(** Process-wide named gauges: last-write-wins float cells, interned by
    name like {!Counter}. Used for derived, low-rate measurements such as
    a pool's busy fraction at shutdown. *)

type t

val make : string -> t
val name : t -> string
val set : t -> float -> unit
val value : t -> float

val set_max : t -> float -> unit
(** Raise the gauge to [v] if it is below (or unset): a lock-free
    high-water mark, e.g. the deepest pending queue a server ever saw. *)

val snapshot : unit -> (string * float) list
(** All gauges that have been set at least once, sorted by name. *)
