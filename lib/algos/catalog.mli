(** The paper's polynomial-time algorithms, one entry each.

    This is the one list of algorithms. {!Portfolio} runs its members,
    the serving layer's fast tier and its [greedy]/[lpt] hints run its
    [fast] entries, [lib/check] fuzzes every entry against its proven
    factor, and [schedtool solve] and [compare] run entries by name. An
    entry knows when its algorithm applies, what the paper proves about
    it and which tiers run it; callers select entries by [applies]. *)

type cost = Cheap | Heavy
(** [Heavy] algorithms solve an LP or a DP per probe of a binary search;
    the fuzzer runs them on small cases only. *)

type entry = {
  name : string;
      (** canonical name, printed in replies, fuzz reports and by
          [compare] *)
  aliases : string list;  (** older names that {!find} also accepts *)
  applies : Core.Instance.t -> bool;
      (** exactly the precondition: [run] raises [Invalid_argument] iff
          this is false *)
  factor : float option;
      (** proven approximation factor against [OPT] wherever [applies]
          holds, including the binary search's tolerance; [None] for
          heuristics without a bound and for rounding's
          [O(log n + log m)], whose constant is unspecified *)
  scale_equivariant : bool;
      (** scaling every time by a power of two scales the makespan by
          exactly that factor (the combinatorial algorithms; LP- and
          DP-based ones compare against absolute epsilons) *)
  cost : cost;
  portfolio : bool;  (** a member of {!Portfolio.run} *)
  fast : bool;  (** in the serving layer's near-linear fast tier *)
  run : seed:int -> Core.Instance.t -> Common.result;
      (** [seed] feeds randomized rounding; the others ignore it *)
}

val all : entry list
(** In order: [greedy] (list scheduling, classes grouped),
    [greedy-longest], [greedy-input] (index order), [lpt-placeholders]
    (Lemma 2.1), [oblivious-lpt] (E8's setup-oblivious baseline),
    [batch-lpt], [ptas] (Section 2 at ε = 1/2), [rounding]
    (Theorem 3.3), [ra-2approx] (Theorem 3.10), [cu-3approx]
    (Theorem 3.11). The order is the portfolio's and the fast tier's
    tie-break: of two equal makespans the earlier entry wins. *)

val find : string -> entry option
(** The entry with this name or alias. *)

val all_jobs_eligible : Core.Instance.t -> bool
(** Every job has a machine it may run on: the precondition of list
    scheduling, rounding and the portfolio. *)
