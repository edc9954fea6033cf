(** Process-wide name tables for every obs metric kind.

    One mutex-guarded table from names to values: {!Counter},
    {!Gauge}, {!Histogram}, {!Labeled} families and their cells, {!Slo}
    objectives and {!Health} meters each keep their values in one.
    Lookups take the lock once and hash the name once, so a layer that
    resolves its handle per call (a labeled cell per session resolve)
    pays one uncontended lock. *)

type 'a t

val create : unit -> 'a t

val find_or_create : 'a t -> string -> (string -> 'a) -> 'a
(** [find_or_create t name make] returns the value registered under
    [name], registering [make name] first when there is none. [make]
    runs under the table's lock and must not touch [t]. *)

val find : 'a t -> string -> 'a option

val replace : 'a t -> string -> 'a -> unit
(** Register [v] under [name], dropping any previous value. *)

val to_list : 'a t -> (string * 'a) list
(** Every entry, sorted by name. *)

val clear : 'a t -> unit
