let guarantee = 3.0

let schedule_for_guess instance ~makespan:t =
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let jobs_of_class = Array.init kk (Core.Instance.jobs_of_class instance) in
  let class_count = Array.map List.length jobs_of_class in
  (* Per-machine, per-class job time (class-uniform by precondition). *)
  let ptime_ik i k =
    match jobs_of_class.(k) with
    | [] -> 0.0
    | j :: _ -> Core.Instance.ptime instance i j
  in
  let class_eligible i k =
    ptime_ik i k < infinity && Core.Instance.setup_time instance i k < infinity
  in
  let workload i k =
    if class_eligible i k then float_of_int class_count.(k) *. ptime_ik i k
    else infinity
  in
  let setup i k = Core.Instance.setup_time instance i k in
  let max_job i k = if class_eligible i k then ptime_ik i k else infinity in
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
      List.iter (fun (k, i) -> kept_of_class.(k) <- i :: kept_of_class.(k)) kept;
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
            let kept_machines =
              if kept_machines = [] then
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
              List.filter (fun i -> not (List.mem i kept_machines)) support
            in
            (* ½-threshold rule on the (single, by Lemma 3.8) cut machine *)
            let big_cut =
              List.find_opt (fun i -> sol.Relaxed_lp.xbar.(i).(k) > 0.5) cut
            in
            match big_cut with
            | Some i_minus -> assign_class k i_minus
            | None ->
                let scale = if cut = [] then 1.0 else 2.0 in
                let slot i = scale *. sol.Relaxed_lp.xbar.(i).(k) *. workload i k in
                let rec fill jobs machines used =
                  match (jobs, machines) with
                  | [], _ -> ()
                  | j :: rest, [ i ] ->
                      assignment.(j) <- i;
                      fill rest machines (used +. ptime_ik i k)
                  | j :: rest, i :: more ->
                      if used < slot i then begin
                        assignment.(j) <- i;
                        fill rest machines (used +. ptime_ik i k)
                      end
                      else fill jobs more 0.0
                  | _ :: _, [] -> assert false
                in
                fill jobs_of_class.(k) kept_machines 0.0
          end)
        fractional_classes;
      Some (Common.result_of_assignment instance assignment)

let schedule ?(rel_tol = 0.02) instance =
  if not (Core.Instance.class_uniform_ptimes instance) then
    invalid_arg "Um_class_uniform: processing times are not class-uniform";
  let lo = Core.Bounds.lower_bound instance in
  let hi = Core.Bounds.naive_upper_bound instance in
  if hi = infinity then invalid_arg "Um_class_uniform: job eligible nowhere";
  match
    Core.Binary_search.min_feasible ~lo ~hi ~rel_tol (fun t ->
        schedule_for_guess instance ~makespan:t)
  with
  | Some (_, result) -> result
  | None -> assert false
