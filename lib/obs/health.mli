(** Liveness, readiness and saturation signals for a serving process.

    Each domain owns a heartbeat slot (a {!Ring.slot}); workers mark the
    unit of work they are executing and a watchdog flags slots whose
    heartbeat is older than a configurable task budget. Composite status
    folds the stuck-task evidence together with the saturation meters
    (held in a {!Registry}) into the lattice
    [Ok < Degraded < Unhealthy]. *)

type status = Ok | Degraded of string | Unhealthy of string

val status_to_string : status -> string
(** ["ok"], ["degraded"] or ["unhealthy"]. *)

val status_reason : status -> string option
(** The carried reason, [None] for [Ok]. *)

val worst : status -> status -> status
(** Join in the severity lattice: the more severe of the two. *)

(** {1 Heartbeats} *)

val task_begin : string -> unit
(** Mark the calling domain as working on the named task. Captures the
    ambient {!Sink.current_ctx} request id for watchdog attribution. *)

val beat : unit -> unit
(** Refresh the calling domain's heartbeat mid-task (and re-capture the
    ambient request id). A beating task is never considered stuck. *)

val waiting : unit -> unit
(** Mark the calling domain as blocked on external input (e.g. a serve
    session parked in [read]). Waiting slots are exempt from the
    watchdog. Emits [health.task_recovered] if the slot was reported
    stuck. *)

val task_end : unit -> unit
(** Mark the calling domain idle. Emits [health.task_recovered] if the
    slot was reported stuck. *)

type heartbeat = {
  hdomain : int;
  hstate : string;  (** ["idle"], ["working"] or ["waiting"] *)
  htask : string option;
  hctx : string option;  (** ambient request id, if any *)
  beat_age_s : float;
  task_age_s : float;
}

val heartbeats : unit -> heartbeat list
(** Snapshot of every domain's slot, sorted by domain id. *)

(** {1 Watchdog} *)

val set_task_budget_s : float -> unit
(** Beat-age budget before a working task counts as stuck (default 30s).
    Raises [Invalid_argument] when not positive. *)

val task_budget_s : unit -> float

type stuck = {
  sdomain : int;
  stask : string;
  sctx : string option;
  sage_s : float;  (** seconds since the last beat *)
}

val set_stuck_hook : (stuck -> unit) option -> unit
(** Hook fired once per stuck incident from {!check} — the server uses
    it to trigger a rate-bounded flight-recorder dump. *)

val check : unit -> stuck list
(** Watchdog pass: returns currently stuck tasks, emitting exactly one
    [health.stuck_task] event (and firing the hook) per incident.
    Increments the [health.checks] counter. *)

(** {1 Saturation meters} *)

val register_meter :
  ?degraded_at:float -> ?unhealthy_at:float -> string -> (unit -> float) -> unit
(** Register (replacing any meter of the same name) a saturation meter:
    a fill-factor in [0, inf) where crossing [degraded_at] (default 0.8)
    degrades readiness and [unhealthy_at] (default 1.5) makes the
    process unhealthy. Use infinite thresholds for display-only meters. *)

val meters : unit -> (string * float) list
(** Current fill factor of every registered meter, sorted by name. *)

(** {1 Composite status} *)

val liveness : unit -> status
(** Stuck-task evidence only: [Degraded] when a task exceeds its budget,
    [Unhealthy] when it is an order of magnitude past it. *)

val status : unit -> status
(** Readiness: the worst of {!liveness} and every meter; among equally
    severe meters the first by name gives the reason. Updates the
    [health.status] gauge (0=ok, 1=degraded, 2=unhealthy). *)

val render_lines : unit -> string list
(** Line-based health snapshot (status, meters, heartbeats) used as the
    [health v1] frame payload; repeated lines carry [k=v] tokens. *)

val reset : unit -> unit
(** Test support: clear meters and the stuck hook, restore the default
    budget, and force every slot back to idle. *)
