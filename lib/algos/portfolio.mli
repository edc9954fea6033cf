(** Best-of portfolio: run every {!Catalog} entry marked [portfolio]
    whose [applies] holds for the instance and keep the best schedule.

    The paper's algorithms have incomparable strengths — greedy wins on
    easy average cases, Lemma 2.1 under setup dominance, the LP roundings
    carry the guarantees — so the portfolio inherits the best guarantee
    among its members {e and} the best typical case, at the cost of
    running them all; the winner gets a final {!Local_search} polish
    (which can only improve it). Members run in catalogue order, and of
    two equal makespans the earlier member wins. This is the entry point
    a downstream user should reach for first. *)

type report = {
  best : Common.result;
  winner : string;  (** name of the winning algorithm *)
  all : (string * float) list;  (** every attempted algorithm's makespan *)
}

val run : ?seed:int -> Core.Instance.t -> report
(** [seed] feeds the randomized rounding (default 1). Members whose
    preconditions fail are skipped. Raises [Invalid_argument] if some job
    is eligible nowhere (no algorithm can help then). *)

val factor : Core.Instance.t -> float option
(** The portfolio's proven factor on the instance: the smallest [factor]
    among the members that apply, or [None] if none of them carries one.
    The polish can only improve the winner. *)
