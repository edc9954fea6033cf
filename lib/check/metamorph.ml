module I = Core.Instance
module V = Violation

let scale_times instance factor =
  if not (factor > 0.0 && factor < infinity) then
    invalid_arg "Metamorph.scale_times: factor must be positive and finite";
  let scale a = Array.map (fun x -> x *. factor) a in
  let sizes = scale instance.I.sizes in
  let setups = scale instance.I.setups in
  let job_class = Array.copy instance.I.job_class in
  match instance.I.env with
  | I.Identical ->
      I.identical ~num_machines:(I.num_machines instance) ~sizes ~job_class
        ~setups
  | I.Uniform speeds ->
      I.uniform ~speeds:(Array.copy speeds) ~sizes ~job_class ~setups
  | I.Restricted eligible ->
      I.restricted ~eligible:(Array.map Array.copy eligible) ~sizes ~job_class
        ~setups
  | I.Unrelated p ->
      I.unrelated
        ?setup_matrix:(Option.map (Array.map scale) instance.I.setup_matrix)
        ~p:(Array.map scale p) ~job_class ~setups ()

let speed_up instance ~machine =
  match instance.I.env with
  | I.Uniform speeds ->
      let speeds = Array.copy speeds in
      speeds.(machine) <- speeds.(machine) *. 2.0;
      Some
        (I.uniform ~speeds ~sizes:(Array.copy instance.I.sizes)
           ~job_class:(Array.copy instance.I.job_class)
           ~setups:(Array.copy instance.I.setups))
  | I.Identical | I.Restricted _ | I.Unrelated _ -> None

(* Re-solve a twin exactly, but only when the base oracle was exact: an
   inexact base gives nothing to relate against. *)
let twin_opt ~oracle ~exact_job_limit twin =
  match oracle.Oracle.opt with
  | None -> None
  | Some _ -> (Oracle.compute ~exact_job_limit twin).Oracle.opt

let cheap_algos algos =
  List.filter (fun (a : Props.algo) -> a.Props.cost = Props.Cheap) algos

let check_permute ~rng ~oracle ~seed ~exact_job_limit instance algos =
  let twin = Serve.Canon.shuffle rng instance in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  if Serve.Canon.key instance <> Serve.Canon.key twin then
    add
      (V.v ~algo:"oracle" ~prop:"meta-permute-canon"
         "canonical keys of an instance and its relabeling differ");
  let lb = Core.Bounds.lower_bound instance
  and lb' = Core.Bounds.lower_bound twin in
  if not (V.approx_eq lb lb') then
    add
      (V.v ~algo:"oracle" ~prop:"meta-permute-lb"
         "lower bound changed under relabeling: %g vs %g" lb lb');
  (match (oracle.Oracle.opt, twin_opt ~oracle ~exact_job_limit twin) with
  | Some o, Some o' when not (V.approx_eq o o') ->
      add
        (V.v ~algo:"oracle" ~prop:"meta-permute-opt"
           "optimum changed under relabeling: %g vs %g" o o')
  | _ -> ());
  (* the twin is the same problem, so the base oracle still applies *)
  List.iter
    (fun (a : Props.algo) ->
      List.iter
        (fun (viol : V.t) ->
          add { viol with V.prop = "meta-permute-" ^ viol.V.prop })
        (Props.check_algo ~oracle ~seed twin a))
    (cheap_algos algos);
  List.rev !violations

let check_scale ~oracle ~seed ~exact_job_limit instance algos =
  let factor = 2.0 in
  let twin = scale_times instance factor in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let lb = Core.Bounds.lower_bound instance
  and lb' = Core.Bounds.lower_bound twin in
  if not (V.approx_eq (lb *. factor) lb') then
    add
      (V.v ~algo:"oracle" ~prop:"meta-scale-lb"
         "lower bound is not scale-equivariant: %g * %g = %g vs %g" lb factor
         (lb *. factor) lb');
  (match (oracle.Oracle.opt, twin_opt ~oracle ~exact_job_limit twin) with
  | Some o, Some o' when not (V.approx_eq (o *. factor) o') ->
      add
        (V.v ~algo:"oracle" ~prop:"meta-scale-opt"
           "optimum is not scale-equivariant: %g * %g vs %g" o factor o')
  | _ -> ());
  List.iter
    (fun (a : Props.algo) ->
      if a.Props.scale_equivariant && a.Props.applies instance then
        match (a.Props.run ~seed instance, a.Props.run ~seed twin) with
        | r, r' ->
            let m = r.Algos.Common.makespan
            and m' = r'.Algos.Common.makespan in
            if not (V.approx_eq (m *. factor) m') then
              add
                (V.v ~algo:a.Props.name ~prop:"meta-scale-makespan"
                   "makespan is not scale-equivariant: %g * %g = %g vs %g" m
                   factor (m *. factor) m')
        | exception e ->
            add
              (V.v ~algo:a.Props.name ~prop:"meta-scale-makespan"
                 "raised %s on a scaled twin" (Printexc.to_string e)))
    (cheap_algos algos);
  List.rev !violations

let check_speed_up ~rng ~oracle ~exact_job_limit instance =
  match
    speed_up instance ~machine:(Workloads.Rng.int rng (I.num_machines instance))
  with
  | None -> []
  | Some twin -> (
      let twin_oracle = Oracle.compute ~exact_job_limit twin in
      match (oracle.Oracle.opt, twin_oracle.Oracle.opt) with
      | Some o, Some o' when not (V.leq o' o) ->
          [
            V.v ~algo:"oracle" ~prop:"meta-speedup-opt"
              "speeding up a machine raised the optimum: %g -> %g" o o';
          ]
      | Some _, _ | _, Some _ -> []
      | None, None ->
          (* weaker sandwich: OPT(fast) <= OPT(slow) <= ub(slow) *)
          if not (V.leq twin_oracle.Oracle.lb oracle.Oracle.ub) then
            [
              V.v ~algo:"oracle" ~prop:"meta-speedup-lb"
                "sped-up lower bound %g exceeds the original upper bound %g"
                twin_oracle.Oracle.lb oracle.Oracle.ub;
            ]
          else [])

let check_drop_job ~rng ~oracle ~exact_job_limit instance =
  let n = I.num_jobs instance in
  if n < 2 then []
  else
    let drop = Workloads.Rng.int rng n in
    let keep = List.filter (fun j -> j <> drop) (List.init n Fun.id) in
    let twin = I.induced instance keep in
    let twin_oracle = Oracle.compute ~exact_job_limit twin in
    match (oracle.Oracle.opt, twin_oracle.Oracle.opt) with
    | Some o, Some o' when not (V.leq o' o) ->
        [
          V.v ~algo:"oracle" ~prop:"meta-dropjob-opt"
            "removing job %d raised the optimum: %g -> %g" drop o o';
        ]
    | Some _, _ | _, Some _ -> []
    | None, None ->
        (* OPT(sub) <= OPT(full) <= ub(full) *)
        if not (V.leq twin_oracle.Oracle.lb oracle.Oracle.ub) then
          [
            V.v ~algo:"oracle" ~prop:"meta-dropjob-lb"
              "sub-instance lower bound %g exceeds the full upper bound %g"
              twin_oracle.Oracle.lb oracle.Oracle.ub;
          ]
        else []

let check_add_job ~rng ~oracle ~exact_job_limit instance =
  (* duplicating job [j]'s entire column is a twin every environment
     accepts, and adding work can only push the optimum up *)
  let job = Workloads.Rng.int rng (I.num_jobs instance) in
  let twin = I.append_jobs instance [ I.clone_job instance job ] in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let lb = Core.Bounds.lower_bound instance
  and lb' = Core.Bounds.lower_bound twin in
  if not (V.leq lb lb') then
    add
      (V.v ~algo:"oracle" ~prop:"meta-addjob-lb"
         "cloning job %d lowered the certified lower bound: %g -> %g" job lb
         lb');
  let twin_oracle = Oracle.compute ~exact_job_limit twin in
  (match (oracle.Oracle.opt, twin_oracle.Oracle.opt) with
  | Some o, Some o' when not (V.leq o o') ->
      add
        (V.v ~algo:"oracle" ~prop:"meta-addjob-opt"
           "cloning job %d lowered the optimum: %g -> %g" job o o')
  | Some _, _ | _, Some _ -> ()
  | None, None ->
      (* weaker sandwich: lb(full) <= OPT(full) <= OPT(full+clone) <=
         ub(full+clone) *)
      if not (V.leq oracle.Oracle.lb twin_oracle.Oracle.ub) then
        add
          (V.v ~algo:"oracle" ~prop:"meta-addjob-ub"
             "grown instance upper bound %g undercuts the original lower \
              bound %g"
             twin_oracle.Oracle.ub oracle.Oracle.lb));
  List.rev !violations

let check ~rng ~oracle ~seed ~exact_job_limit instance algos =
  check_permute ~rng ~oracle ~seed ~exact_job_limit instance algos
  @ check_scale ~oracle ~seed ~exact_job_limit instance algos
  @ check_speed_up ~rng ~oracle ~exact_job_limit instance
  @ check_drop_job ~rng ~oracle ~exact_job_limit instance
  @ check_add_job ~rng ~oracle ~exact_job_limit instance
