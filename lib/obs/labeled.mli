(** Labeled counter families, e.g. [serve.requests{status="ok"}].

    A family is one metric name with one label key; each distinct label
    value gets its own [Atomic]-backed cell, interned like
    {!Counter}'s — instrumented layers resolve their {!cell} once at
    module init, so bumping is a single atomic add from any
    [Parallel.Pool] domain. The exposition layer ({!Expo}) renders
    families as Prometheus labeled series and the JSON snapshot groups
    them per metric. *)

type family
(** One metric name + label key, interned by metric name. *)

type cell
(** One (metric, label value) counter. *)

type sample = {
  metric : string;
  label : string;
  label_value : string;
  value : int;
}

val family : string -> label:string -> family
(** Intern the family [name] with the given label key. Raises
    [Invalid_argument] if [name] is already registered with a different
    label key. *)

val name : family -> string
val label : family -> string

val cell : family -> string -> cell
(** Intern the cell for one label value, creating it at zero. *)

val incr : cell -> unit
val add : cell -> int -> unit
val value : cell -> int

val snapshot : unit -> sample list
(** Every cell of every family, sorted by metric name then label
    value. Cells are included even at zero, so a family registered with
    its expected label values always exposes a complete series. *)
