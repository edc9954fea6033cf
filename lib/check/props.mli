(** The executable spec: every solver in the repository, with its
    preconditions and its paper-proven guarantee, plus the invariants any
    run must satisfy.

    The registry is {!Algos.Catalog.all} plus the portfolio. Each
    entry's [applies], [factor] (the proven approximation ratio against
    [OPT], already inflated by the algorithm's own binary-search
    tolerance where it has one), scale-equivariance and [cost] come from
    the catalogue; the portfolio's factor is {!Algos.Portfolio.factor},
    the smallest among its members that apply.

    Invariants checked for every (algorithm, instance) pair:
    - [schedule-valid]: the returned schedule assigns every job to an
      eligible machine ({!Core.Schedule.is_valid});
    - [makespan-consistent]: the reported makespan is finite and equals
      the schedule's recomputed makespan;
    - [lb-sandwich]: [oracle.lb <= makespan], and with an exact oracle
      also [opt <= makespan] (no algorithm beats the optimum);
    - [ratio-bound]: with an exact oracle and a registered factor [f],
      [makespan <= f * opt] (within {!Violation.slack});
    - [no-crash]: an algorithm whose [applies] holds must not raise. *)

type cost = Algos.Catalog.cost = Cheap | Heavy

type algo = {
  name : string;
  applies : Core.Instance.t -> bool;
  factor : Core.Instance.t -> float option;
      (** proven approximation factor vs [OPT] on instances where
          [applies] holds, including search-tolerance slack; [None] for
          heuristics without a bound *)
  scale_equivariant : bool;
      (** scaling all times by a power of two scales the output makespan
          by exactly that factor (combinatorial algorithms; LP-based
          solvers compare against absolute epsilons and are exempt) *)
  cost : cost;
  run : seed:int -> Core.Instance.t -> Algos.Common.result;
}

val registry : unit -> algo list
(** Every catalogue entry under its canonical name, in catalogue order,
    then the portfolio. *)

val find : name:string -> algo list -> algo option
(** By name or by a catalogue alias ([ra2] finds [ra-2approx]). *)

val mutant : algo
(** A deliberately broken algorithm for testing the checker itself: it
    stacks every job on machine 0 (skipping eligibility) while claiming
    factor 1. Never part of {!registry}; tests pass it explicitly. *)

val check_result :
  oracle:Oracle.t ->
  Core.Instance.t ->
  algo ->
  Algos.Common.result ->
  Violation.t list
(** Evaluate the invariants above on one algorithm output. *)

val check_algo :
  oracle:Oracle.t -> seed:int -> Core.Instance.t -> algo -> Violation.t list
(** Run the algorithm (if [applies]) and {!check_result} it; any escaped
    exception becomes a [no-crash] violation. Returns [[]] when the
    algorithm does not apply. *)

val check_io_roundtrip : Core.Instance.t -> Violation.t list
(** [io-roundtrip]: printing the instance with {!Core.Instance_io} and
    parsing it back must succeed and reproduce the identical text
    (parse ∘ print = id, compared on the printed normal form — covers
    [inf] entries in restricted/unrelated instances). *)
