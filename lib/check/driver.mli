(** The fuzz driver: generate instances across all four machine
    environments, run every registered algorithm, evaluate the
    {!Props} invariants and {!Metamorph} relations, and shrink + persist
    any failure.

    Cases are drawn through {!Workloads.Gen} from per-case RNGs obtained
    by {!Workloads.Rng.split} off a single root seed {e before}
    dispatch, so a run is bit-reproducible from [(seed, case index)]
    regardless of how many {!Parallel.Pool} domains execute it. Every
    16th case is a symmetric instance instead: tied jobs in tied
    classes, which exercises the canonical key's tie search under the
    permute relation.

    Observability ([lib/obs] wiring, all always-on):
    - counters [check.cases], [check.violations], [check.shrink_steps],
      [check.corpus_writes];
    - histogram [check.case_us] (per-case wall time);
    - events [check.violation] (error level, one per broken invariant)
      and [check.shrunk] (info, jobs before/after + steps). *)

type env_kind = Identical | Uniform | Restricted | Unrelated

val env_of_string : string -> env_kind option
val env_to_string : env_kind -> string
val all_envs : env_kind list

type budget = Seconds of float | Cases of int

type config = {
  seed : int;
  budget : budget;
  envs : env_kind list;
  algo_filter : string list;
      (** restrict to these registry names or catalogue aliases; [[]]
          means all *)
  shrink : bool;
  corpus_dir : string option;
      (** where minimal reproducers are written; [None] disables *)
  jobs : int;  (** worker domains (cases are independent) *)
  exact_job_limit : int;  (** largest [n] solved exactly as oracle *)
  heavy_job_limit : int;  (** largest [n] on which [Heavy] algorithms run *)
  max_jobs : int;  (** largest [n] generated at all *)
  metamorphic : bool;
}

val default : config
(** seed 1, 5 s, all environments, all algorithms, shrinking on, no
    corpus dir, 1 job, exact/heavy/max job limits 9/12/28, metamorphic
    checks on. *)

type failure = {
  case : int;  (** case index within the run *)
  env : string;
  instance : Core.Instance.t;  (** as generated *)
  violations : Violation.t list;
  shrunk : Core.Instance.t;  (** equals [instance] when shrinking is off *)
  shrink_steps : int;
  corpus_paths : string list;
}

type summary = {
  cases : int;
  violations : int;
  failures : failure list;
  wall_s : float;
}

val run : ?registry:Props.algo list -> config -> summary
(** Fuzz until the budget is exhausted. [registry] defaults to
    {!Props.registry} — tests inject {!Props.mutant} through it. *)

val check_instance :
  ?registry:Props.algo list ->
  ?subjects:string list ->
  seed:int ->
  exact_job_limit:int ->
  heavy_job_limit:int ->
  metamorphic:bool ->
  Core.Instance.t ->
  Violation.t list
(** One full case on a caller-supplied instance: io round-trip, oracle
    consistency, per-algorithm invariants, metamorphic relations.
    [subjects], when given, restricts to the named algorithms (plus
    ["oracle"]/["io"] pseudo-subjects) — the shrinker uses this to
    re-evaluate only the failing checks. *)
