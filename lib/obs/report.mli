(** Plain-text metrics summaries on top of {!Stats.Table}. *)

val to_table : unit -> Stats.Table.t
(** Snapshot of every nonzero counter, every labeled-counter cell, every
    set gauge, every nonempty histogram (count, p50/p90/p99, max) and
    per-name aggregates of the retained {!Phase} records (count and
    total seconds), as a three-column [kind | metric | value] table. *)

val prefix_table : prefix:string -> Stats.Table.t
(** {!to_table} restricted to metrics whose name starts with [prefix]
    (e.g. ["check."]) — the always-on footer a subsystem prints about
    itself without dragging every other family along. Unlike
    {!to_table}, zero-valued counters are kept: a focused footer's zeros
    (["check.violations 0"]) are the healthy-run signal. *)

val delta_table : before:(string * int) list -> Stats.Table.t
(** Counters that moved since the [before] snapshot (from
    {!Counter.snapshot}), as a [counter | delta] table. The experiment
    runner prints this as its per-experiment metrics footer. *)
