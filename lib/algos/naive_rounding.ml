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
  let class_eligible i k = Core.Instance.setup_time instance i k < infinity in
  let workload i k = if class_eligible i k then class_total.(k) else infinity in
  let setup i k = Core.Instance.setup_time instance i k in
  let max_job i k = if class_eligible i k then class_max.(k) else infinity in
  match
    Relaxed_lp.solve ~workload ~setup ~max_job
      ~has_jobs:(fun k -> jobs_of_class.(k) <> [])
      ~num_machines:m ~num_classes:kk
      ~makespan:t
  with
  | None -> None
  | Some sol ->
      let assignment = Array.make (Core.Instance.num_jobs instance) (-1) in
      for k = 0 to kk - 1 do
        let best = ref (-1) and best_x = ref (-1.0) in
        for i = 0 to m - 1 do
          if sol.Relaxed_lp.xbar.(i).(k) > !best_x then begin
            best := i;
            best_x := sol.Relaxed_lp.xbar.(i).(k)
          end
        done;
        List.iter (fun j -> assignment.(j) <- !best) jobs_of_class.(k)
      done;
      Some (Common.result_of_assignment instance assignment)

let schedule ?(rel_tol = 0.02) instance =
  let lo = Core.Bounds.lower_bound instance in
  let hi = Core.Bounds.naive_upper_bound instance in
  if hi = infinity then invalid_arg "Naive_rounding: job eligible nowhere";
  match
    Core.Binary_search.min_feasible ~lo ~hi ~rel_tol (fun t ->
        schedule_for_guess instance ~makespan:t)
  with
  | Some (_, result) -> result
  | None -> assert false
