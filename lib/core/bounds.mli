(** Combinatorial lower and upper bounds on the optimal makespan.

    These bounds bootstrap the dual-approximation binary search and serve as
    conservative baselines when the exact optimum is out of reach. All
    bounds are valid for every machine environment. *)

val job_bound : Instance.t -> float
(** [max_j min_i (p_ij + s_{i,k_j})]: every job must run somewhere, behind
    its class's setup. *)

val volume_bound : Instance.t -> float
(** Work-volume bound. For identical/uniform machines:
    [(Σ_j p_j + Σ_k s_k) / Σ_i v_i] (every class present in a schedule pays
    at least one setup). For restricted/unrelated machines:
    [(Σ_j min_i p_ij + Σ_k min_i s_ik) / m]. Both sums over [k] run over
    classes that have jobs. *)

val class_bound : Instance.t -> float
(** Per-class spread bound. If class [k] runs on a machine set [M'], then
    [Σ_{i∈M'} v_i·load_i >= |M'|·s_k + p̄_k], so some machine has load at
    least [(q·s_k + p̄_k) / (Σ of the q largest speeds)], minimized over
    [q]. For restricted/unrelated machines the bound degrades to
    [min_i s_ik + (Σ_{j∈k} min_i p_ij)/m]. The result is the maximum over
    classes — often much stronger than {!volume_bound} when one class
    dominates. *)

val lower_bound : Instance.t -> float
(** Best of the above bounds, capped by {!naive_upper_bound} (a tight
    bound summed in another order can exceed it by rounding). *)

val naive_upper_bound : Instance.t -> float
(** [Σ_j min_i (p_ij + s_{i,k_j})]: the makespan of placing every job on
    its individually cheapest machine is at most this sum, hence the optimal
    makespan is too. Infinite iff some job is nowhere eligible. *)
