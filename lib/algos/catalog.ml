module I = Core.Instance

type cost = Cheap | Heavy

type entry = {
  name : string;
  aliases : string list;
  applies : I.t -> bool;
  factor : float option;
  scale_equivariant : bool;
  cost : cost;
  portfolio : bool;
  fast : bool;
  run : seed:int -> I.t -> Common.result;
}

let all_jobs_eligible t =
  let rec from j =
    j >= I.num_jobs t || (I.eligible_machines t j <> [] && from (j + 1))
  in
  from 0

let uniformish t =
  match t.I.env with
  | I.Identical | I.Uniform _ -> true
  | I.Restricted _ | I.Unrelated _ -> false

(* Binary-search driven algorithms stop within [rel_tol] of the smallest
   feasible guess, so their factor is the proven one times
   (1 + rel_tol), at the algorithms' default tolerances: 0.02 for the
   class-uniform roundings, eps/4 for the PTAS. *)
let searched ~rel_tol proven = proven *. (1.0 +. rel_tol)
let ptas_eps = 0.5

let entry ?(aliases = []) ?factor ?(scale_equivariant = false)
    ?(portfolio = false) ?(fast = false) ~cost name applies run =
  { name; aliases; applies; factor; scale_equivariant; cost; portfolio; fast; run }

let greedy order ~seed:_ t = List_scheduling.schedule ~order t
let ignore_seed f ~seed:_ t = f t

let all =
  [
    entry "greedy" ~aliases:[ "greedy-by-class" ] ~scale_equivariant:true
      ~portfolio:true ~fast:true ~cost:Cheap all_jobs_eligible
      (greedy List_scheduling.By_class);
    entry "greedy-longest" ~scale_equivariant:true ~portfolio:true ~cost:Cheap
      all_jobs_eligible
      (greedy List_scheduling.Longest_first);
    entry "greedy-input" ~scale_equivariant:true ~cost:Cheap all_jobs_eligible
      (greedy List_scheduling.Input);
    entry "lpt-placeholders" ~aliases:[ "lpt" ]
      ~factor:Lpt.approximation_factor ~scale_equivariant:true ~portfolio:true
      ~fast:true ~cost:Cheap uniformish (ignore_seed Lpt.schedule);
    entry "oblivious-lpt" ~scale_equivariant:true ~cost:Cheap uniformish
      (ignore_seed Lpt.setup_oblivious);
    entry "batch-lpt" ~scale_equivariant:true ~portfolio:true ~fast:true
      ~cost:Cheap uniformish (ignore_seed Batch_lpt.schedule);
    (* the PTAS rounds against its guess, which must be positive: an
       instance whose every job and setup time is zero has none *)
    entry "ptas"
      ~factor:
        (searched ~rel_tol:(ptas_eps /. 4.0)
           (Uniform_ptas.guarantee ~eps:ptas_eps))
      ~portfolio:true ~cost:Heavy
      (fun t -> uniformish t && Core.Bounds.naive_upper_bound t > 0.0)
      (ignore_seed (Uniform_ptas.schedule ~eps:ptas_eps));
    entry "rounding" ~portfolio:true ~cost:Heavy all_jobs_eligible
      (fun ~seed t ->
        fst (Randomized_rounding.schedule (Workloads.Rng.create seed) t));
    entry "ra-2approx" ~aliases:[ "ra2" ]
      ~factor:(searched ~rel_tol:0.02 Ra_class_uniform.guarantee)
      ~portfolio:true ~cost:Heavy
      (fun t ->
        (match t.I.env with
        | I.Identical | I.Restricted _ -> true
        | I.Uniform _ | I.Unrelated _ -> false)
        && I.restrict_class_uniform t && all_jobs_eligible t)
      (ignore_seed Ra_class_uniform.schedule);
    entry "cu-3approx" ~aliases:[ "cu3" ]
      ~factor:(searched ~rel_tol:0.02 Um_class_uniform.guarantee)
      ~portfolio:true ~cost:Heavy
      (fun t -> I.class_uniform_ptimes t && all_jobs_eligible t)
      (ignore_seed Um_class_uniform.schedule);
  ]

let find name =
  List.find_opt (fun e -> e.name = name || List.mem name e.aliases) all
