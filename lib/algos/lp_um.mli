(** The LP relaxation of ILP-UM (Section 3, constraints (1)–(5)).

    For a makespan guess [T]:

    - [x_ij >= 0] for eligible pairs with [p_ij <= T]  (constraint (5))
    - [y_ik ∈ [0,1]] for classes with [s_ik <= T]
    - [Σ_j x_ij p_ij + Σ_k y_ik s_ik <= T]  per machine  (1)
    - [Σ_i x_ij = 1] per job  (2)
    - [y_i,k_j >= x_ij] per eligible pair  (4)

    Feasibility of this LP at [T = OPT] is implied by any optimal integral
    schedule, so the smallest feasible [T] lower-bounds the optimum. *)

type fractional = {
  makespan : float;  (** the guess [T] this solution is feasible for *)
  x : float array array;  (** [x.(i).(j)], machine-major; 0 for ineligible *)
  y : float array array;  (** [y.(i).(k)] *)
}

val feasible : Core.Instance.t -> makespan:float -> fractional option
(** Solve the relaxation at a fixed guess with a fresh LP (the dual
    simplex from the slack basis). [None] = LP infeasible, hence no
    schedule with makespan [<= makespan] exists. The reference for
    {!lower_bound}'s warm probes and their fallback. *)

type bound = {
  lower : float;
      (** certified lower bound on the optimal makespan: the largest probe
          that was LP-infeasible (or the combinatorial bound if every probe
          was feasible) *)
  solution : fractional;
      (** fractional solution at the smallest feasible probe *)
  probes : int;  (** LP solves spent *)
}

val lower_bound : ?rel_tol:float -> Core.Instance.t -> bound
(** Binary search for the LP threshold. [rel_tol] defaults to 0.02, i.e.
    [solution.makespan <= (1 + rel_tol) · lower] up to the combinatorial
    bracket. Raises [Invalid_argument] if some job is eligible nowhere.

    The whole search is one LP ({!Lp.Simplex.warm}): rows and columns for
    every pair allowed at the top guess, with costs [1 + work / hi] that
    make the slack basis dual feasible. A probe at guess [T] only closes
    the x_ij and y_ik that [T] filters out (upper bound 0) and sets the
    load rows' right-hand side to [T], then re-solves from the previous
    probe's basis by the dual simplex. A feasible verdict is checked
    against (1), (2), (4) and the filters, an infeasible one by its Farkas
    row recomputed from the original rows
    ({!Lp.Simplex.certifies_infeasible}); a failed check or an iteration
    limit re-solves the probe with {!feasible} and counts in
    [lp.simplex.warm_fallbacks]. The verdicts, hence [lower], [probes] and
    the final guess, are those of a search over {!feasible}; the solution
    may be another vertex (the one of least work). *)
