(** Problem instances for scheduling with setup times.

    An instance consists of [n] jobs partitioned into [K] setup classes and
    [m] parallel machines. A machine pays the setup time of class [k] once if
    it processes at least one job of class [k]. Four machine environments are
    supported, mirroring the paper: identical, uniformly related, restricted
    assignment and unrelated machines.

    All processing and setup times are non-negative floats;
    [Float.infinity] encodes "job/class cannot run on this machine"
    (restricted assignment and unrelated environments only). *)

(** Machine environment. Dimensions: machines are rows, jobs/classes are
    columns. *)
type env =
  | Identical
      (** [p_ij = p_j], [s_ik = s_k]. *)
  | Uniform of float array
      (** [Uniform speeds]: [p_ij = p_j / speeds.(i)],
          [s_ik = s_k / speeds.(i)]. All speeds must be positive. *)
  | Restricted of bool array array
      (** [Restricted eligible]: [p_ij = p_j] if [eligible.(i).(j)], else
          [infinity]. A class is eligible on a machine iff at least one of
          its jobs is; its setup time there is [s_k]. *)
  | Unrelated of float array array
      (** [Unrelated p]: arbitrary [p.(i).(j) >= 0] or [infinity]. *)

type t = private {
  env : env;
  num_machines : int;
  num_classes : int;
  sizes : float array;  (** base job sizes [p_j]; for [Unrelated] only used
                            as a fallback reference, never for [ptime]. *)
  job_class : int array;  (** [job_class.(j)] is the class of job [j]. *)
  setups : float array;  (** base setup sizes [s_k]. *)
  setup_matrix : float array array option;
      (** machine-dependent setup times [s.(i).(k)] for the unrelated
          environment; [None] means setups are derived from [setups] and
          [env] per the table above. *)
}

val num_jobs : t -> int
val num_machines : t -> int
val num_classes : t -> int

val ptime : t -> int -> int -> float
(** [ptime t i j] is the processing time of job [j] on machine [i]
    ([infinity] if ineligible). *)

val setup_time : t -> int -> int -> float
(** [setup_time t i k] is the setup time of class [k] on machine [i]. *)

val job_eligible : t -> int -> int -> bool
(** [job_eligible t i j] holds iff job [j] can complete on machine [i], i.e.
    both its processing time and its class's setup time are finite. *)

val speed : t -> int -> float
(** Machine speed: the [Uniform] speed, or [1.0] for other environments. *)

val jobs_of_class : t -> int -> int list
(** Jobs of a class, in increasing job order. *)

val class_size : t -> int -> float
(** Total base size of the jobs of a class. *)

val total_size : t -> float
(** Sum of all base job sizes. *)

val eligible_machines : t -> int -> int list
(** Machines on which a job is eligible, in increasing order. *)

(** {1 Constructors}

    All constructors validate dimensions and value ranges and raise
    [Invalid_argument] on malformed input: sizes/setups must be finite and
    non-negative, class ids in range, speed arrays of length [m] with
    positive entries, matrices of shape [m * n] (or [m * K]). *)

val identical :
  num_machines:int -> sizes:float array -> job_class:int array ->
  setups:float array -> t

val uniform :
  speeds:float array -> sizes:float array -> job_class:int array ->
  setups:float array -> t

val restricted :
  eligible:bool array array -> sizes:float array -> job_class:int array ->
  setups:float array -> t

val unrelated :
  ?setup_matrix:float array array ->
  p:float array array -> job_class:int array -> setups:float array ->
  unit -> t

(** {1 Derived views} *)

val induced : t -> int list -> t
(** [induced t jobs] is the sub-instance containing only the listed jobs
    (deduplicated, increasing order; classes and machines are kept as-is,
    so class indices remain stable). Raises [Invalid_argument] on an empty
    or out-of-range selection. *)

type new_job = {
  nsize : float;  (** base size [p_j]; for [Unrelated] only a reference
                      value (the constructor re-derives it from the
                      ptimes column) *)
  nclass : int;  (** an {e existing} class id — appending never creates
                     classes *)
  nptimes : float array option;
      (** per-machine processing times; required for [Unrelated],
          rejected elsewhere *)
  neligible : bool array option;
      (** per-machine eligibility; [Restricted] only (default: eligible
          everywhere), rejected elsewhere *)
}
(** Specification of a job to append — the delta unit of the session
    subsystem's add-jobs mutation and of the job-addition metamorphic
    oracle. *)

val append_jobs : t -> new_job list -> t
(** [append_jobs t jobs] is the instance extended with the listed jobs at
    indices [n .. n + length jobs - 1]; existing jobs, machines and
    classes keep their indices. Raises [Invalid_argument] on an empty
    list, an out-of-range class, a malformed per-machine column, or a
    column kind that does not match the environment. *)

val clone_job : t -> int -> new_job
(** [clone_job t j] is job [j]'s whole column as a {!new_job}: its size,
    its class, and its per-machine times ([Unrelated]) or eligibility
    ([Restricted]), so {!append_jobs} accepts the copy in every
    environment. Raises [Invalid_argument] when [j] is out of range. *)

val scale_setups : t -> float -> t
(** Multiply all base setup sizes (and the setup matrix, if any) by a
    factor. Used by the setup-dominance experiments. *)

val restrict_class_uniform : t -> bool
(** For restricted-assignment instances: do all jobs of every class share
    the same eligibility set (Section 3.3.1's precondition)? Vacuously true
    for [Identical] and [Uniform]; false for [Unrelated]. *)

val class_uniform_ptimes : t -> bool
(** Does every machine process all jobs of any fixed class at the same
    (possibly infinite) time (Section 3.3.2's precondition)? *)

val pp : Format.formatter -> t -> unit
