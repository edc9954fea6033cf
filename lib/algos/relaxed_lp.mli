(** LP-RelaxedRA (constraints (11)–(14), plus the (16)-style filter), the
    class-granular relaxation shared by both constant-factor special cases
    (Sections 3.3.1 and 3.3.2).

    One variable [x̄_ik] per (machine, class) gives the fraction of class
    [k]'s workload processed on machine [i]:

    - [Σ_k x̄_ik (p̄_ik + α_ik s_ik) <= T] per machine, with
      [α_ik = max(1, p̄_ik / (T - s_ik))]  (11)
    - [Σ_i x̄_ik = 1] per class  (12)
    - [x̄_ik = 0] whenever [s_ik > T], [s_ik + (max job of k on i) > T], or
      [p̄_ik = ∞]  (14)/(16)

    Solutions come from the simplex and are vertices, so their fractional
    support graph is a pseudo-forest (required by {!Graphs.Pseudoforest}). *)

type solution = {
  makespan : float;  (** the guess [T] *)
  xbar : float array array;  (** [xbar.(i).(k)], clamped to [[0, 1]] *)
}

val solve :
  workload:(int -> int -> float) ->
  setup:(int -> int -> float) ->
  max_job:(int -> int -> float) ->
  has_jobs:(int -> bool) ->
  num_machines:int ->
  num_classes:int ->
  makespan:float ->
  solution option
(** [workload i k] is [p̄_ik] ([infinity] if class [k] cannot run on [i]);
    [setup i k] is [s_ik]; [max_job i k] is the largest single-job
    processing time of class [k] on machine [i] (used by the filter).
    A class with [has_jobs k = false] needs no machine: it gets no
    variable and no row (12), and its [xbar] entries are 0.
    [None] = the LP is infeasible at this guess. *)

type split = {
  integral : (int * int) list;  (** [(class, machine)]: [x̄ ≈ 1] classes *)
  graph : Graphs.Pseudoforest.t;  (** support graph of fractional entries *)
}

val split_solution :
  num_machines:int -> num_classes:int -> solution -> split
(** Classify classes as integral ([x̄_ik >= 1 - tol] somewhere) or
    fractional, and build the bipartite support graph of the strictly
    fractional entries. *)
