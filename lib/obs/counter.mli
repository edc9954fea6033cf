(** Process-wide named counters.

    A counter is an [Atomic]-backed integer cell, safe to bump from any
    [Parallel.Pool] domain. [make] interns by name, so every layer that
    says [Counter.make "algos.exact.nodes"] shares one cell; counters are
    always recording (no enable switch) — the instrumented hot loops keep
    a local [int ref] and flush one [add] per solve/search, which keeps
    the fast path free of shared-memory traffic. *)

type t

val make : string -> t
(** Intern the counter named [name], creating it at zero on first use. *)

val name : t -> string
val value : t -> int

val incr : t -> unit
val add : t -> int -> unit

val reset : t -> unit

val find : string -> t option
(** Look up a counter by name without creating it. *)

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val delta : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Counters whose value changed between two snapshots (name, increase);
    counters absent from [before] count from zero, and counters present
    in [before] but missing from [after] (reset or re-registered between
    snapshots) are reported as negative deltas. Sorted by name. *)
