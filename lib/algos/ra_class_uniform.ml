let guarantee = 2.0

let check_preconditions instance =
  (match instance.Core.Instance.env with
  | Core.Instance.Identical | Core.Instance.Restricted _ -> ()
  | Core.Instance.Uniform _ | Core.Instance.Unrelated _ ->
      invalid_arg
        "Ra_class_uniform: requires an identical or restricted-assignment \
         instance");
  if not (Core.Instance.restrict_class_uniform instance) then
    invalid_arg "Ra_class_uniform: class eligibility sets are not uniform"

let schedule_for_guess instance ~makespan:t =
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let jobs_of_class = Array.init kk (Core.Instance.jobs_of_class instance) in
  let class_total = Array.init kk (Core.Instance.class_size instance) in
  let class_max =
    Array.init kk (fun k ->
        List.fold_left
          (fun acc j -> Float.max acc instance.Core.Instance.sizes.(j))
          0.0 jobs_of_class.(k))
  in
  (* In the class-uniform restricted environment eligibility is a property
     of (machine, class); a class is available iff its setup is finite. *)
  let class_eligible i k = Core.Instance.setup_time instance i k < infinity in
  let workload i k = if class_eligible i k then class_total.(k) else infinity in
  let setup i k = Core.Instance.setup_time instance i k in
  let max_job i k = if class_eligible i k then class_max.(k) else infinity in
  match
    Relaxed_lp.solve ~workload ~setup ~max_job
      ~has_jobs:(fun k -> jobs_of_class.(k) <> []) ~num_machines:m
      ~num_classes:kk ~makespan:t
  with
  | None -> None
  | Some sol ->
      let split = Relaxed_lp.split_solution ~num_machines:m ~num_classes:kk sol in
      let assignment = Array.make (Core.Instance.num_jobs instance) (-1) in
      let assign_class k i =
        List.iter (fun j -> assignment.(j) <- i) jobs_of_class.(k)
      in
      List.iter (fun (k, i) -> assign_class k i) split.Relaxed_lp.integral;
      let kept = Graphs.Pseudoforest.round split.Relaxed_lp.graph in
      let kept_of_class = Array.make kk [] in
      List.iter
        (fun (k, i) -> kept_of_class.(k) <- i :: kept_of_class.(k))
        kept;
      let fractional_classes =
        List.filter
          (fun k -> not (List.mem_assoc k split.Relaxed_lp.integral))
          (List.init kk Fun.id)
      in
      List.iter
        (fun k ->
          let support =
            List.filter (fun i -> sol.Relaxed_lp.xbar.(i).(k) > 1e-7)
              (List.init m Fun.id)
          in
          if support <> [] then begin
            let kept_machines = kept_of_class.(k) in
            let cut =
              List.filter (fun i -> not (List.mem i kept_machines)) support
            in
            (* Lemma 3.8 property 2: at most one cut machine. *)
            let kept_machines =
              if kept_machines = [] then
                (* degenerate fallback: treat the largest-x̄ machine as kept *)
                [ List.fold_left
                    (fun acc i ->
                      if sol.Relaxed_lp.xbar.(i).(k)
                         > sol.Relaxed_lp.xbar.(acc).(k)
                      then i
                      else acc)
                    (List.hd support) support ]
              else kept_machines
            in
            let cut =
              List.filter (fun i -> not (List.mem i kept_machines)) cut
            in
            (* i⁺_k: an arbitrary kept machine, placed last in fill order;
               it additionally receives the cut machine's workload. *)
            let i_plus = List.hd kept_machines in
            let moved =
              List.fold_left
                (fun acc i -> acc +. sol.Relaxed_lp.xbar.(i).(k))
                0.0 cut
            in
            let slot i =
              let base = sol.Relaxed_lp.xbar.(i).(k) *. class_total.(k) in
              if i = i_plus then base +. (moved *. class_total.(k)) else base
            in
            let order =
              List.filter (fun i -> i <> i_plus) kept_machines @ [ i_plus ]
            in
            (* Greedy slot filling: stay on a machine while its reserved
               slot is not exhausted; the last machine absorbs the rest. *)
            let rec fill jobs machines used =
              match (jobs, machines) with
              | [], _ -> ()
              | j :: rest, [ i ] ->
                  assignment.(j) <- i;
                  fill rest machines (used +. instance.Core.Instance.sizes.(j))
              | j :: rest, i :: more ->
                  if used < slot i then begin
                    assignment.(j) <- i;
                    fill rest machines (used +. instance.Core.Instance.sizes.(j))
                  end
                  else fill jobs more 0.0
              | _ :: _, [] -> assert false
            in
            fill jobs_of_class.(k) order 0.0
          end)
        fractional_classes;
      Some (Common.result_of_assignment instance assignment)

let schedule ?(rel_tol = 0.02) instance =
  check_preconditions instance;
  let lo = Core.Bounds.lower_bound instance in
  let hi = Core.Bounds.naive_upper_bound instance in
  if hi = infinity then invalid_arg "Ra_class_uniform: job eligible nowhere";
  match
    Core.Binary_search.min_feasible ~lo ~hi ~rel_tol (fun t ->
        schedule_for_guess instance ~makespan:t)
  with
  | Some (_, result) -> result
  | None ->
      (* The naive upper bound is always achievable, hence LP-feasible. *)
      assert false
