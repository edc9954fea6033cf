type piece = { machine : int; cls : int; fraction : float }

type t = { pieces : piece list; makespan : float; guess : float }

(* Workload of class k on machine i (time units), infinity if ineligible.
   Well defined in the class-uniform environments. *)
let workload_fn instance =
  let kk = Core.Instance.num_classes instance in
  let jobs_of_class = Array.init kk (Core.Instance.jobs_of_class instance) in
  match instance.Core.Instance.env with
  | Core.Instance.Identical | Core.Instance.Restricted _ ->
      if not (Core.Instance.restrict_class_uniform instance) then
        invalid_arg "Splittable: restrictions are not class-uniform";
      let totals = Array.init kk (Core.Instance.class_size instance) in
      fun i k ->
        if Core.Instance.setup_time instance i k < infinity then totals.(k)
        else infinity
  | Core.Instance.Unrelated _ ->
      if not (Core.Instance.class_uniform_ptimes instance) then
        invalid_arg "Splittable: processing times are not class-uniform";
      fun i k -> (
        match jobs_of_class.(k) with
        | [] -> 0.0
        | j :: _ ->
            let p = Core.Instance.ptime instance i j in
            if p < infinity && Core.Instance.setup_time instance i k < infinity
            then float_of_int (List.length jobs_of_class.(k)) *. p
            else infinity)
  | Core.Instance.Uniform _ ->
      invalid_arg
        "Splittable: uniform machines need per-speed workloads; use the \
         identical environment or class-uniform processing times"

let loads instance pieces =
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let workload = workload_fn instance in
  let load = Array.make m 0.0 in
  let has_setup = Array.make_matrix m kk false in
  List.iter
    (fun { machine; cls; fraction } ->
      load.(machine) <- load.(machine) +. (fraction *. workload machine cls);
      if not has_setup.(machine).(cls) then begin
        has_setup.(machine).(cls) <- true;
        load.(machine) <-
          load.(machine) +. Core.Instance.setup_time instance machine cls
      end)
    pieces;
  load

let is_valid instance pieces =
  let kk = Core.Instance.num_classes instance in
  let sums = Array.make kk 0.0 in
  let ok = ref true in
  List.iter
    (fun { machine; cls; fraction } ->
      if fraction <= 0.0 || fraction > 1.0 +. 1e-9 then ok := false;
      if
        cls < 0 || cls >= kk || machine < 0
        || machine >= Core.Instance.num_machines instance
      then ok := false
      else begin
        if Core.Instance.setup_time instance machine cls = infinity then
          ok := false;
        sums.(cls) <- sums.(cls) +. fraction
      end)
    pieces;
  for k = 0 to kk - 1 do
    if Core.Instance.jobs_of_class instance k <> [] then
      if Float.abs (sums.(k) -. 1.0) > 1e-6 then ok := false
  done;
  !ok

let schedule_for_guess instance ~makespan:t =
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let workload = workload_fn instance in
  let setup i k = Core.Instance.setup_time instance i k in
  (* splittable pieces have no single-job granularity, so the (16)-style
     filter reduces to "the setup alone must fit" *)
  let max_job _ _ = 0.0 in
  match
    Relaxed_lp.solve ~workload ~setup ~max_job
      ~has_jobs:(fun k -> Core.Instance.jobs_of_class instance k <> [])
      ~num_machines:m ~num_classes:kk ~makespan:t
  with
  | None -> None
  | Some sol ->
      let split = Relaxed_lp.split_solution ~num_machines:m ~num_classes:kk sol in
      let pieces = ref [] in
      List.iter
        (fun (k, i) ->
          if Core.Instance.jobs_of_class instance k <> [] then
            pieces := { machine = i; cls = k; fraction = 1.0 } :: !pieces)
        split.Relaxed_lp.integral;
      let kept = Graphs.Pseudoforest.round split.Relaxed_lp.graph in
      let kept_of_class = Array.make kk [] in
      List.iter (fun (k, i) -> kept_of_class.(k) <- i :: kept_of_class.(k)) kept;
      for k = 0 to kk - 1 do
        if
          (not (List.mem_assoc k split.Relaxed_lp.integral))
          && Core.Instance.jobs_of_class instance k <> []
        then begin
          let support =
            List.filter
              (fun i -> sol.Relaxed_lp.xbar.(i).(k) > 1e-7)
              (List.init m Fun.id)
          in
          if support <> [] then begin
            let kept_machines =
              if kept_of_class.(k) = [] then
                [ List.fold_left
                    (fun acc i ->
                      if sol.Relaxed_lp.xbar.(i).(k)
                         > sol.Relaxed_lp.xbar.(acc).(k)
                      then i
                      else acc)
                    (List.hd support) support ]
              else kept_of_class.(k)
            in
            let cut =
              List.filter (fun i -> not (List.mem i kept_machines)) support
            in
            let moved =
              List.fold_left
                (fun acc i -> acc +. sol.Relaxed_lp.xbar.(i).(k))
                0.0 cut
            in
            (* the cut fraction (at most one machine, Lemma 3.8) moves to an
               arbitrary kept machine i+_k *)
            let i_plus = List.hd kept_machines in
            List.iter
              (fun i ->
                let fraction =
                  sol.Relaxed_lp.xbar.(i).(k)
                  +. if i = i_plus then moved else 0.0
                in
                if fraction > 1e-9 then
                  pieces := { machine = i; cls = k; fraction } :: !pieces)
              kept_machines
          end
        end
      done;
      let pieces = !pieces in
      let load = loads instance pieces in
      Some
        {
          pieces;
          makespan = Array.fold_left Float.max 0.0 load;
          guess = t;
        }

let schedule ?(rel_tol = 0.02) instance =
  (* force the environment check before searching *)
  let (_ : int -> int -> float) = workload_fn instance in
  let lo = Core.Bounds.lower_bound instance in
  let hi = Core.Bounds.naive_upper_bound instance in
  if hi = infinity then invalid_arg "Splittable: job eligible nowhere";
  match
    Core.Binary_search.min_feasible ~lo ~hi ~rel_tol (fun t ->
        schedule_for_guess instance ~makespan:t)
  with
  | Some (_, result) -> result
  | None -> assert false
