(* Tests for the algorithms library: every algorithm of the paper plus the
   exact solver, validated against brute force / each other / the proven
   approximation factors. *)

module I = Core.Instance
module S = Core.Schedule

let check_float tol = Alcotest.(check (float tol))

(* Brute-force optimum by enumerating all m^n assignments (tiny only). *)
let brute_force instance =
  let n = I.num_jobs instance in
  let m = I.num_machines instance in
  let best = ref infinity in
  let assignment = Array.make n 0 in
  let rec go j =
    if j = n then begin
      if
        Array.for_all Fun.id
          (Array.mapi (fun j' i -> I.job_eligible instance i j') assignment)
      then begin
        let ms = S.makespan (S.make instance assignment) in
        if ms < !best then best := ms
      end
    end
    else
      for i = 0 to m - 1 do
        assignment.(j) <- i;
        go (j + 1)
      done
  in
  go 0;
  !best

let uniform_fixture () =
  I.uniform ~speeds:[| 1.0; 2.0 |]
    ~sizes:[| 4.0; 2.0; 6.0; 2.0 |]
    ~job_class:[| 0; 0; 1; 1 |]
    ~setups:[| 3.0; 1.0 |]

(* --- List scheduling ---------------------------------------------------- *)

let test_list_scheduling_valid () =
  let t = uniform_fixture () in
  List.iter
    (fun order ->
      let r = Algos.List_scheduling.schedule ~order t in
      Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
      Alcotest.(check bool) "makespan consistent" true
        (Float.abs (r.Algos.Common.makespan -. S.makespan r.Algos.Common.schedule)
        < 1e-9))
    [
      Algos.List_scheduling.Input;
      Algos.List_scheduling.Longest_first;
      Algos.List_scheduling.By_class;
    ]

let test_list_scheduling_respects_eligibility () =
  let t =
    I.restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 3.0; 5.0 |] ~job_class:[| 0; 1 |] ~setups:[| 1.0; 1.0 |]
  in
  let r = Algos.List_scheduling.schedule t in
  Alcotest.(check int) "job 0 on machine 0" 0
    (S.machine_of r.Algos.Common.schedule 0);
  Alcotest.(check int) "job 1 on machine 1" 1
    (S.machine_of r.Algos.Common.schedule 1)

let test_list_scheduling_within_naive_bound () =
  (* greedy never exceeds the naive per-job upper bound *)
  let rng = Workloads.Rng.create 101 in
  for _ = 1 to 10 do
    let t = Workloads.Gen.uniform rng ~n:8 ~m:3 ~k:3 () in
    let r = Algos.List_scheduling.schedule t in
    Alcotest.(check bool) "within naive bound" true
      (r.Algos.Common.makespan <= Core.Bounds.naive_upper_bound t +. 1e-9);
    Alcotest.(check bool) "at least the lower bound" true
      (r.Algos.Common.makespan >= Core.Bounds.lower_bound t -. 1e-9)
  done

(* --- Exact --------------------------------------------------------------- *)

let test_exact_matches_brute_force () =
  let rng = Workloads.Rng.create 42 in
  for trial = 1 to 12 do
    let n = 3 + Workloads.Rng.int rng 4 in
    let m = 2 + Workloads.Rng.int rng 2 in
    let k = 1 + Workloads.Rng.int rng 2 in
    let t =
      if trial mod 2 = 0 then Workloads.Gen.uniform rng ~n ~m ~k ()
      else Workloads.Gen.unrelated rng ~n ~m ~k ()
    in
    let outcome = Algos.Exact.solve t in
    Alcotest.(check bool) "optimal proven" true outcome.Algos.Exact.optimal;
    check_float 1e-6
      (Printf.sprintf "trial %d matches brute force" trial)
      (brute_force t)
      outcome.Algos.Exact.result.Algos.Common.makespan
  done

let test_exact_single_machine () =
  let t =
    I.identical ~num_machines:1 ~sizes:[| 5.0; 5.0 |] ~job_class:[| 0; 1 |]
      ~setups:[| 2.0; 3.0 |]
  in
  check_float 1e-9 "sum plus setups" 15.0 (Algos.Exact.makespan t)

let test_exact_beats_greedy_or_ties () =
  let rng = Workloads.Rng.create 7 in
  for _ = 1 to 10 do
    let t = Workloads.Gen.uniform rng ~n:7 ~m:3 ~k:3 () in
    let greedy = Algos.List_scheduling.schedule t in
    let exact = Algos.Exact.solve t in
    Alcotest.(check bool) "exact <= greedy" true
      (exact.Algos.Exact.result.Algos.Common.makespan
      <= greedy.Algos.Common.makespan +. 1e-9)
  done

let test_exact_respects_node_limit () =
  let rng = Workloads.Rng.create 3 in
  let t = Workloads.Gen.uniform rng ~n:12 ~m:4 ~k:3 () in
  let outcome = Algos.Exact.solve ~node_limit:10 t in
  Alcotest.(check bool) "not proven optimal" false outcome.Algos.Exact.optimal;
  Alcotest.(check bool) "still returns valid schedule" true
    (S.is_valid t outcome.Algos.Exact.result.Algos.Common.schedule)

let test_exact_parallel_pool_reuse () =
  let pool = Parallel.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let rng = Workloads.Rng.create 113 in
      for _ = 1 to 5 do
        let t = Workloads.Gen.unrelated rng ~n:7 ~m:3 ~k:2 () in
        let par = Algos.Exact_parallel.solve ~pool t in
        Alcotest.(check bool) "optimal" true par.Algos.Exact_parallel.optimal;
        check_float 1e-9 "same as sequential" (Algos.Exact.makespan t)
          par.Algos.Exact_parallel.result.Algos.Common.makespan;
        Alcotest.(check bool) "subtrees = eligible machines of job 0" true
          (par.Algos.Exact_parallel.subtrees >= 1)
      done)

let test_exact_parallel_identical_symmetry () =
  let rng = Workloads.Rng.create 127 in
  let t = Workloads.Gen.identical rng ~n:8 ~m:4 ~k:2 () in
  let par = Algos.Exact_parallel.solve t in
  (* identical machines split on the second job: exactly two subtrees *)
  Alcotest.(check int) "two symmetric subtrees" 2
    par.Algos.Exact_parallel.subtrees;
  check_float 1e-9 "optimum preserved" (Algos.Exact.makespan t)
    par.Algos.Exact_parallel.result.Algos.Common.makespan

(* --- LPT (Lemma 2.1) ----------------------------------------------------- *)

let test_lpt_factor_on_fixture () =
  let t = uniform_fixture () in
  let r = Algos.Lpt.schedule t in
  let opt = Algos.Exact.makespan t in
  Alcotest.(check bool) "within 4.74 of optimum" true
    (r.Algos.Common.makespan <= Algos.Lpt.approximation_factor *. opt +. 1e-9)

let test_lpt_factor_random () =
  let rng = Workloads.Rng.create 11 in
  for _ = 1 to 15 do
    let n = 4 + Workloads.Rng.int rng 5 in
    let m = 2 + Workloads.Rng.int rng 2 in
    let k = 1 + Workloads.Rng.int rng 3 in
    let t = Workloads.Gen.uniform rng ~n ~m ~k ~setup_range:(1.0, 80.0) () in
    let r = Algos.Lpt.schedule t in
    Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
    let opt = Algos.Exact.makespan t in
    Alcotest.(check bool) "Lemma 2.1 factor" true
      (r.Algos.Common.makespan
      <= Algos.Lpt.approximation_factor *. opt +. 1e-6)
  done

let test_lpt_small_jobs_bundled () =
  (* 6 tiny jobs of one class, setup dominates: placeholders force them to
     share machines instead of paying 6 setups *)
  let t =
    I.identical ~num_machines:3
      ~sizes:[| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
      ~job_class:[| 0; 0; 0; 0; 0; 0 |]
      ~setups:[| 10.0 |]
  in
  let r = Algos.Lpt.schedule t in
  (* one placeholder of size 10 -> all jobs on one machine: 6 + 10 = 16 *)
  check_float 1e-9 "bundled" 16.0 r.Algos.Common.makespan

let test_lpt_rejects_unrelated () =
  let t =
    I.unrelated ~p:[| [| 1.0 |] |] ~job_class:[| 0 |] ~setups:[| 1.0 |] ()
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Lpt.schedule t);
       false
     with Invalid_argument _ -> true)

let test_setup_oblivious_degrades () =
  (* three classes of many tiny jobs: oblivious LPT balances pure sizes and
     scatters every class over every machine, paying 3 setups per machine;
     the placeholder transformation keeps classes together *)
  let t =
    I.identical ~num_machines:3
      ~sizes:(Array.make 30 1.0)
      ~job_class:(Array.init 30 (fun j -> j / 10))
      ~setups:[| 10.0; 10.0; 10.0 |]
  in
  let oblivious = Algos.Lpt.setup_oblivious t in
  let aware = Algos.Lpt.schedule t in
  Alcotest.(check bool) "aware beats oblivious" true
    (aware.Algos.Common.makespan < oblivious.Algos.Common.makespan)

let test_batch_lpt_valid_and_one_setup_per_class () =
  let rng = Workloads.Rng.create 71 in
  for _ = 1 to 10 do
    let t = Workloads.Gen.uniform rng ~n:10 ~m:3 ~k:4 () in
    let r = Algos.Batch_lpt.schedule t in
    Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
    (* wholesale batching pays exactly one setup per nonempty class *)
    Alcotest.(check int) "one setup per class" (I.num_classes t)
      (S.num_setups r.Algos.Common.schedule)
  done

let test_batch_lpt_loses_on_dominant_class () =
  (* one huge class: batching puts it on one machine; placeholder LPT
     splits it at setup granularity *)
  let t =
    I.identical ~num_machines:4
      ~sizes:(Array.make 16 5.0)
      ~job_class:(Array.make 16 0)
      ~setups:[| 2.0 |]
  in
  let batch = Algos.Batch_lpt.schedule t in
  let lpt = Algos.Lpt.schedule t in
  Alcotest.(check bool) "placeholders beat wholesale batching" true
    (lpt.Algos.Common.makespan < batch.Algos.Common.makespan)

let test_batch_lpt_rejects_unrelated () =
  let t =
    I.unrelated ~p:[| [| 1.0 |] |] ~job_class:[| 0 |] ~setups:[| 1.0 |] ()
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Batch_lpt.schedule t);
       false
     with Invalid_argument _ -> true)

(* --- LP relaxation of ILP-UM --------------------------------------------- *)

let test_lp_um_sandwich () =
  let rng = Workloads.Rng.create 19 in
  for _ = 1 to 8 do
    let t = Workloads.Gen.unrelated rng ~n:6 ~m:3 ~k:2 () in
    let opt = Algos.Exact.makespan t in
    let bound = Algos.Lp_um.lower_bound t in
    Alcotest.(check bool) "lower <= OPT" true
      (bound.Algos.Lp_um.lower <= opt +. 1e-6);
    Alcotest.(check bool) "feasible guess >= lower" true
      (bound.Algos.Lp_um.solution.Algos.Lp_um.makespan
      >= bound.Algos.Lp_um.lower -. 1e-6)
  done

(* Constraints (1), (2) and (4) on a fractional solution, whichever LP
   path produced it. *)
let check_lp_um_solution t (sol : Algos.Lp_um.fractional) =
  let tt = sol.Algos.Lp_um.makespan in
  let n = I.num_jobs t and m = I.num_machines t and kk = I.num_classes t in
  (* (2): assignments sum to one *)
  for j = 0 to n - 1 do
    let sum = ref 0.0 in
    for i = 0 to m - 1 do
      sum := !sum +. sol.Algos.Lp_um.x.(i).(j)
    done;
    check_float 1e-5 (Printf.sprintf "job %d assigned" j) 1.0 !sum
  done;
  (* (1): loads within T; (4): y >= x *)
  for i = 0 to m - 1 do
    let load = ref 0.0 in
    for j = 0 to n - 1 do
      (* an ineligible pair has p_ij = infinity and x_ij = 0 *)
      if sol.Algos.Lp_um.x.(i).(j) > 0.0 then
        load := !load +. (sol.Algos.Lp_um.x.(i).(j) *. I.ptime t i j);
      Alcotest.(check bool) "y dominates x" true
        (sol.Algos.Lp_um.y.(i).(t.I.job_class.(j))
        >= sol.Algos.Lp_um.x.(i).(j) -. 1e-6)
    done;
    for k = 0 to kk - 1 do
      if sol.Algos.Lp_um.y.(i).(k) > 0.0 then
        load := !load +. (sol.Algos.Lp_um.y.(i).(k) *. I.setup_time t i k)
    done;
    Alcotest.(check bool) (Printf.sprintf "machine %d load" i) true
      (!load <= tt +. 1e-5)
  done

let test_lp_um_solution_constraints () =
  let rng = Workloads.Rng.create 23 in
  let t = Workloads.Gen.unrelated rng ~n:8 ~m:3 ~k:3 () in
  check_lp_um_solution t (Algos.Lp_um.lower_bound t).Algos.Lp_um.solution

let test_lp_um_infeasible_below_bound () =
  let t = uniform_fixture () in
  let opt = Algos.Exact.makespan t in
  Alcotest.(check bool) "infeasible well below OPT" true
    (Algos.Lp_um.feasible t ~makespan:(opt /. 10.0) = None)

(* --- Empty classes --------------------------------------------------------- *)

(* Jobs 3, 4 and 5 in class 0 (setup 1) on two machines, OPT 8 (3+4+1
   against 5+1); class 1 (setup 100) has no job and must cost nothing. *)
let empty_class_identical () =
  I.identical ~num_machines:2 ~sizes:[| 3.0; 4.0; 5.0 |]
    ~job_class:[| 0; 0; 0 |] ~setups:[| 1.0; 100.0 |]

(* The same jobs on restricted machines: with no job, class 1 is eligible
   nowhere, so it has no finite setup on any machine. *)
let empty_class_restricted () =
  I.restricted
    ~eligible:[| [| true; true; true |]; [| true; true; true |] |]
    ~sizes:[| 3.0; 4.0; 5.0 |] ~job_class:[| 0; 0; 0 |]
    ~setups:[| 1.0; 100.0 |]

let test_empty_class name instance () =
  let t = instance () in
  let opt = brute_force t in
  check_float 1e-9 (name ^ ": OPT") 8.0 opt;
  Alcotest.(check bool) (name ^ ": lower bound <= OPT") true
    (Core.Bounds.lower_bound t <= opt +. 1e-9);
  let bound = Algos.Lp_um.lower_bound t in
  Alcotest.(check bool) (name ^ ": LP lower bound <= OPT") true
    (bound.Algos.Lp_um.lower <= opt +. 1e-6);
  check_lp_um_solution t bound.Algos.Lp_um.solution;
  let r = Algos.Ra_class_uniform.schedule t in
  Alcotest.(check bool) (name ^ ": ra-2approx valid") true
    (S.is_valid t r.Algos.Common.schedule);
  Alcotest.(check bool) (name ^ ": ra-2approx within 2(1+tol) OPT") true
    (r.Algos.Common.makespan <= (2.0 *. 1.02 *. opt) +. 1e-9);
  match Serve.Dispatch.solve ~hint:"portfolio" t with
  | Error msg -> Alcotest.failf "%s: portfolio dispatch failed: %s" name msg
  | Ok o ->
      Alcotest.(check bool) (name ^ ": portfolio valid") true
        (S.is_valid t o.Serve.Dispatch.result.Algos.Common.schedule)

(* --- Randomized rounding -------------------------------------------------- *)

let test_rounding_valid_and_bounded () =
  let rng = Workloads.Rng.create 31 in
  for _ = 1 to 5 do
    let t = Workloads.Gen.unrelated rng ~n:10 ~m:3 ~k:3 () in
    let r, stats = Algos.Randomized_rounding.schedule rng t in
    Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
    let n = float_of_int (I.num_jobs t) and m = float_of_int (I.num_machines t) in
    (* Theorem 3.3 bound with a generous constant *)
    let bound = 8.0 *. stats.Algos.Randomized_rounding.lp_makespan *. (log n +. log m +. 1.0) in
    Alcotest.(check bool) "O(T(log n + log m))" true
      (r.Algos.Common.makespan <= bound)
  done

let test_rounding_deterministic_given_seed () =
  let t = Workloads.Gen.unrelated (Workloads.Rng.create 5) ~n:8 ~m:3 ~k:2 () in
  let r1, _ = Algos.Randomized_rounding.schedule (Workloads.Rng.create 99) t in
  let r2, _ = Algos.Randomized_rounding.schedule (Workloads.Rng.create 99) t in
  check_float 1e-12 "same seed, same result" r1.Algos.Common.makespan
    r2.Algos.Common.makespan

let test_rounding_stats () =
  let t = Workloads.Gen.unrelated (Workloads.Rng.create 5) ~n:8 ~m:3 ~k:2 () in
  let _, stats = Algos.Randomized_rounding.schedule (Workloads.Rng.create 1) t in
  Alcotest.(check bool) "iterations = ceil(3 ln 8)" true
    (stats.Algos.Randomized_rounding.iterations = 7);
  Alcotest.(check bool) "lp probes counted" true
    (stats.Algos.Randomized_rounding.lp_probes > 0)

(* --- 2-approx: restricted assignment, class-uniform restrictions ---------- *)

let test_ra_class_uniform_guarantee () =
  let rng = Workloads.Rng.create 37 in
  for _ = 1 to 8 do
    let n = 5 + Workloads.Rng.int rng 4 in
    let m = 2 + Workloads.Rng.int rng 2 in
    let k = 1 + Workloads.Rng.int rng 3 in
    let t = Workloads.Gen.restricted_class_uniform rng ~n ~m ~k () in
    let r = Algos.Ra_class_uniform.schedule t in
    Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
    let opt = Algos.Exact.makespan t in
    Alcotest.(check bool) "Theorem 3.10 factor" true
      (r.Algos.Common.makespan <= 2.0 *. 1.03 *. opt +. 1e-6)
  done

let test_ra_class_uniform_probe_semantics () =
  let rng = Workloads.Rng.create 41 in
  let t = Workloads.Gen.restricted_class_uniform rng ~n:7 ~m:3 ~k:2 () in
  let opt = Algos.Exact.makespan t in
  (match Algos.Ra_class_uniform.schedule_for_guess t ~makespan:opt with
  | None -> Alcotest.fail "probe at OPT must be feasible"
  | Some r ->
      Alcotest.(check bool) "probe result <= 2*guess" true
        (r.Algos.Common.makespan <= (2.0 *. opt) +. 1e-6));
  Alcotest.(check bool) "far below OPT infeasible" true
    (Algos.Ra_class_uniform.schedule_for_guess t ~makespan:(opt /. 20.0) = None)

let test_ra_class_uniform_rejects_nonuniform () =
  let t =
    I.restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 0 |] ~setups:[| 1.0 |]
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Ra_class_uniform.schedule t);
       false
     with Invalid_argument _ -> true)

(* --- 3-approx: class-uniform processing times ----------------------------- *)

let test_um_class_uniform_guarantee () =
  let rng = Workloads.Rng.create 43 in
  for _ = 1 to 8 do
    let n = 5 + Workloads.Rng.int rng 4 in
    let m = 2 + Workloads.Rng.int rng 2 in
    let k = 1 + Workloads.Rng.int rng 3 in
    let t = Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k () in
    let r = Algos.Um_class_uniform.schedule t in
    Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
    let opt = Algos.Exact.makespan t in
    Alcotest.(check bool) "Theorem 3.11 factor" true
      (r.Algos.Common.makespan <= 3.0 *. 1.03 *. opt +. 1e-6)
  done

let test_um_class_uniform_rejects_general () =
  let t =
    I.unrelated
      ~p:[| [| 1.0; 5.0 |]; [| 2.0; 1.0 |] |]
      ~job_class:[| 0; 0 |] ~setups:[| 1.0 |]
      ()
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Um_class_uniform.schedule t);
       false
     with Invalid_argument _ -> true)

(* --- Exact via ILP-UM ------------------------------------------------------ *)

let test_exact_ilp_matches_bnb () =
  let rng = Workloads.Rng.create 73 in
  for trial = 1 to 8 do
    let n = 4 + Workloads.Rng.int rng 4 in
    let m = 2 + Workloads.Rng.int rng 2 in
    let k = 1 + Workloads.Rng.int rng 2 in
    let t =
      if trial mod 2 = 0 then Workloads.Gen.uniform rng ~n ~m ~k ()
      else Workloads.Gen.unrelated rng ~n ~m ~k ()
    in
    let ilp = Algos.Exact_ilp.solve t in
    (* generators draw integral times only when sizes are integral; the
       uniform env divides by speeds, so compare against B&B rather than
       requiring exactness flags *)
    let bnb = Algos.Exact.makespan t in
    if ilp.Algos.Exact_ilp.optimal then
      check_float 1e-6
        (Printf.sprintf "trial %d agrees with B&B" trial)
        bnb ilp.Algos.Exact_ilp.result.Algos.Common.makespan
    else
      Alcotest.(check bool) "at least a valid upper bound" true
        (ilp.Algos.Exact_ilp.result.Algos.Common.makespan >= bnb -. 1e-6)
  done

let test_exact_ilp_feasible_probe () =
  let rng = Workloads.Rng.create 79 in
  let t = Workloads.Gen.unrelated rng ~n:6 ~m:3 ~k:2 () in
  let opt = Algos.Exact.makespan t in
  (match Algos.Exact_ilp.feasible t ~makespan:opt with
  | None -> Alcotest.fail "feasible at OPT"
  | Some r ->
      Alcotest.(check bool) "within bound" true
        (r.Algos.Common.makespan <= opt +. 1e-6));
  Alcotest.(check bool) "infeasible below" true
    (Algos.Exact_ilp.feasible t ~makespan:(opt -. 1.0) = None)

(* --- Local search ------------------------------------------------------------ *)

let test_local_search_never_worse () =
  let rng = Workloads.Rng.create 107 in
  for _ = 1 to 10 do
    let t = Workloads.Gen.uniform rng ~n:10 ~m:3 ~k:3 () in
    let start = Algos.List_scheduling.schedule ~order:Algos.List_scheduling.Input t in
    let polished = Algos.Local_search.improve t start.Algos.Common.schedule in
    Alcotest.(check bool) "valid" true
      (S.is_valid t polished.Algos.Local_search.result.Algos.Common.schedule);
    Alcotest.(check bool) "never worse" true
      (polished.Algos.Local_search.result.Algos.Common.makespan
      <= start.Algos.Common.makespan +. 1e-9);
    Alcotest.(check bool) "never beats OPT" true
      (polished.Algos.Local_search.result.Algos.Common.makespan
      >= Algos.Exact.makespan t -. 1e-9)
  done

let test_local_search_fixes_obvious () =
  (* all jobs dumped on machine 0: local search must spread them *)
  let t =
    I.identical ~num_machines:3
      ~sizes:[| 5.0; 5.0; 5.0 |]
      ~job_class:[| 0; 1; 2 |]
      ~setups:[| 1.0; 1.0; 1.0 |]
  in
  let start = Core.Schedule.make t [| 0; 0; 0 |] in
  let polished = Algos.Local_search.improve t start in
  check_float 1e-9 "one job per machine" 6.0
    polished.Algos.Local_search.result.Algos.Common.makespan;
  Alcotest.(check bool) "made moves" true (polished.Algos.Local_search.moves >= 2)

let test_local_search_swap_needed () =
  (* machines at 9 vs 5 where only an exchange (4<->2) helps: moving either
     job alone does not reduce the makespan, swapping does *)
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 5.0; 4.0; 3.0; 2.0 |]
      ~job_class:[| 0; 0; 0; 0 |]
      ~setups:[| 0.0 |]
  in
  let start = Core.Schedule.make t [| 0; 0; 1; 1 |] in
  let polished = Algos.Local_search.improve t start in
  check_float 1e-9 "balanced" 7.0
    polished.Algos.Local_search.result.Algos.Common.makespan

let test_local_search_respects_eligibility () =
  let t =
    I.restricted
      ~eligible:[| [| true; true |]; [| false; true |] |]
      ~sizes:[| 8.0; 1.0 |] ~job_class:[| 0; 1 |] ~setups:[| 1.0; 1.0 |]
  in
  let start = Core.Schedule.make t [| 0; 0 |] in
  let polished = Algos.Local_search.improve t start in
  Alcotest.(check bool) "valid" true
    (S.is_valid t polished.Algos.Local_search.result.Algos.Common.schedule);
  (* job 0 cannot leave machine 0 *)
  Alcotest.(check int) "job 0 stays" 0
    (S.machine_of polished.Algos.Local_search.result.Algos.Common.schedule 0)

let test_local_search_max_steps () =
  let rng = Workloads.Rng.create 109 in
  let t = Workloads.Gen.uniform rng ~n:12 ~m:3 ~k:3 () in
  let start = Algos.List_scheduling.schedule ~order:Algos.List_scheduling.Input t in
  let limited = Algos.Local_search.improve ~max_steps:1 t start.Algos.Common.schedule in
  Alcotest.(check bool) "at most one improvement applied" true
    (limited.Algos.Local_search.moves + limited.Algos.Local_search.swaps <= 1)

(* --- Incremental repair ------------------------------------------------------ *)

let test_incremental_add_repair () =
  let rng = Workloads.Rng.create 211 in
  for round = 1 to 8 do
    let t = Workloads.Gen.uniform rng ~n:12 ~m:3 ~k:3 () in
    let base =
      Algos.List_scheduling.schedule ~order:Algos.List_scheduling.By_class t
    in
    let t' =
      I.append_jobs t
        [
          {
            I.nsize = float_of_int round;
            nclass = round mod 3;
            nptimes = None;
            neligible = None;
          };
        ]
    in
    let seed =
      Array.append (S.assignment base.Algos.Common.schedule) [| -1 |]
    in
    let rep = Algos.Incremental.repair t' ~seed in
    Alcotest.(check bool) "valid" true
      (S.is_valid t' rep.Algos.Incremental.result.Algos.Common.schedule);
    Alcotest.(check int) "one job placed" 1 rep.Algos.Incremental.placed;
    Alcotest.(check bool) "above certified LB" true
      (rep.Algos.Incremental.result.Algos.Common.makespan
      >= Core.Bounds.lower_bound t' -. 1e-9);
    check_float 1e-9 "makespan consistent"
      (S.makespan rep.Algos.Incremental.result.Algos.Common.schedule)
      rep.Algos.Incremental.result.Algos.Common.makespan
  done

let test_incremental_drop_repair () =
  let rng = Workloads.Rng.create 223 in
  let t = Workloads.Gen.unrelated rng ~n:10 ~m:3 ~k:2 () in
  let base =
    Algos.List_scheduling.schedule ~order:Algos.List_scheduling.By_class t
  in
  let keep = [ 0; 1; 2; 3; 4; 6; 7; 8; 9 ] (* drop job 5 *) in
  let t' = I.induced t keep in
  let old = S.assignment base.Algos.Common.schedule in
  let seed = Array.of_list (List.map (fun j -> old.(j)) keep) in
  let rep = Algos.Incremental.repair t' ~seed in
  Alcotest.(check bool) "valid" true
    (S.is_valid t' rep.Algos.Incremental.result.Algos.Common.schedule);
  Alcotest.(check int) "nothing to place" 0 rep.Algos.Incremental.placed;
  (* pure rebalance: never worse than the seed schedule on the smaller
     instance *)
  let seeded = Algos.Common.result_of_assignment t' seed in
  Alcotest.(check bool) "never worse than seed" true
    (rep.Algos.Incremental.result.Algos.Common.makespan
    <= seeded.Algos.Common.makespan +. 1e-9)

let test_incremental_seed_sanitized () =
  let t =
    I.restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 2.0; 3.0 |] ~job_class:[| 0; 0 |] ~setups:[| 1.0 |]
  in
  (* job 1 seeded out of range, job 0 seeded on an ineligible machine:
     both must be re-placed instead of crashing *)
  let rep = Algos.Incremental.repair t ~seed:[| 1; 7 |] in
  Alcotest.(check bool) "valid" true
    (S.is_valid t rep.Algos.Incremental.result.Algos.Common.schedule);
  Alcotest.(check int) "both placed" 2 rep.Algos.Incremental.placed;
  Alcotest.(check bool) "bad seed length rejected" true
    (try
       ignore (Algos.Incremental.repair t ~seed:[| 0 |]);
       false
     with Invalid_argument _ -> true)

let test_incremental_batches_into_class () =
  (* machine 0 already paid class 0's big setup; the new classmate must
     batch there rather than open the class on machine 1 *)
  let t =
    I.identical ~num_machines:2 ~sizes:[| 1.0; 5.0 |] ~job_class:[| 0; 1 |]
      ~setups:[| 10.0; 0.0 |]
  in
  let t' =
    I.append_jobs t
      [ { I.nsize = 1.0; nclass = 0; nptimes = None; neligible = None } ]
  in
  let rep =
    Algos.Incremental.repair ~polish_steps:0 t' ~seed:[| 0; 1; -1 |]
  in
  Alcotest.(check int) "batched with its class" 0
    (S.machine_of rep.Algos.Incremental.result.Algos.Common.schedule 2);
  Alcotest.(check int) "no polish requested" 0
    (rep.Algos.Incremental.moves + rep.Algos.Incremental.swaps)

(* --- Portfolio --------------------------------------------------------------- *)

let test_portfolio_beats_members () =
  let rng = Workloads.Rng.create 97 in
  for _ = 1 to 6 do
    let t = Workloads.Gen.uniform rng ~n:10 ~m:3 ~k:3 () in
    let report = Algos.Portfolio.run t in
    Alcotest.(check bool) "valid" true
      (S.is_valid t report.Algos.Portfolio.best.Algos.Common.schedule);
    (* the winner is the min over all attempted makespans *)
    List.iter
      (fun (_, ms) ->
        Alcotest.(check bool) "best <= member" true
          (report.Algos.Portfolio.best.Algos.Common.makespan <= ms +. 1e-9))
      report.Algos.Portfolio.all;
    Alcotest.(check bool) "winner listed" true
      (List.mem_assoc report.Algos.Portfolio.winner report.Algos.Portfolio.all)
  done

let test_portfolio_skips_inapplicable () =
  let rng = Workloads.Rng.create 101 in
  let t = Workloads.Gen.unrelated rng ~n:8 ~m:3 ~k:2 () in
  let report = Algos.Portfolio.run t in
  (* LPT and PTAS require (semi-)uniform machines and must be skipped *)
  Alcotest.(check bool) "no lpt on unrelated" false
    (List.mem_assoc "lpt-placeholders" report.Algos.Portfolio.all);
  Alcotest.(check bool) "greedy always present" true
    (List.mem_assoc "greedy" report.Algos.Portfolio.all)

(* --- Catalog ------------------------------------------------------------------ *)

module C = Algos.Catalog
module R = Workloads.Rng

let test_catalog_names () =
  Alcotest.(check (list (pair string (list string))))
    "canonical names and aliases, in order"
    [
      ("greedy", [ "greedy-by-class" ]);
      ("greedy-longest", []);
      ("greedy-input", []);
      ("lpt-placeholders", [ "lpt" ]);
      ("oblivious-lpt", []);
      ("batch-lpt", []);
      ("ptas", []);
      ("rounding", []);
      ("ra-2approx", [ "ra2" ]);
      ("cu-3approx", [ "cu3" ]);
    ]
    (List.map (fun (e : C.entry) -> (e.name, e.aliases)) C.all);
  let names = List.concat_map (fun (e : C.entry) -> e.name :: e.aliases) C.all in
  Alcotest.(check int) "names and aliases pairwise distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (e : C.entry) ->
      List.iter
        (fun n ->
          Alcotest.(check (option string)) (n ^ " resolves") (Some e.name)
            (Option.map (fun (f : C.entry) -> f.name) (C.find n)))
        (e.name :: e.aliases))
    C.all;
  List.iter
    (fun reserved ->
      Alcotest.(check bool) (reserved ^ " is not in the catalogue") true
        (C.find reserved = None))
    [ "auto"; "exact"; "portfolio"; "io"; "oracle" ];
  let tier f =
    List.filter_map (fun (e : C.entry) -> if f e then Some e.name else None) C.all
  in
  Alcotest.(check (list string)) "portfolio members, in order"
    [
      "greedy"; "greedy-longest"; "lpt-placeholders"; "batch-lpt"; "ptas";
      "rounding"; "ra-2approx"; "cu-3approx";
    ]
    (tier (fun e -> e.portfolio));
  Alcotest.(check (list string)) "fast tier, in order"
    [ "greedy"; "lpt-placeholders"; "batch-lpt" ]
    (tier (fun e -> e.fast))

(* Six shapes the preconditions tell apart. Per-job eligibility breaks
   Theorem 3.10's class-uniform restriction and can leave a job with no
   machine at all. *)
let catalog_shapes rng ~n ~m ~k =
  let per_job =
    let base = Workloads.Gen.identical rng ~n ~m ~k () in
    let eligible =
      Array.init m (fun _ -> Array.init n (fun _ -> R.float rng < 0.6))
    in
    I.restricted ~eligible ~sizes:base.I.sizes ~job_class:base.I.job_class
      ~setups:base.I.setups
  in
  [
    Workloads.Gen.identical rng ~n ~m ~k ();
    Workloads.Gen.uniform rng ~n ~m ~k ();
    Workloads.Gen.unrelated rng ~n ~m ~k ~ineligible_prob:0.4 ();
    Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ();
    Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k ();
    per_job;
  ]

(* The same instance with one class's jobs removed, the class kept. *)
let with_class_emptied rng t =
  let k = R.int rng (I.num_classes t) in
  match
    List.filter (fun j -> t.I.job_class.(j) <> k) (List.init (I.num_jobs t) Fun.id)
  with
  | [] -> []
  | kept -> [ I.induced t kept ]

(* [applies] must be exactly the precondition: callers select entries
   by it, so an entry that applies must run and one that does not must
   be rejected. *)
let test_catalog_applies () =
  let rng = R.create 2718 in
  let all_zero =
    I.identical ~num_machines:2 ~sizes:[| 0.0; 0.0; 0.0 |]
      ~job_class:[| 0; 1; 0 |] ~setups:[| 0.0; 0.0 |]
  in
  let instances =
    all_zero
    :: List.concat_map
         (fun _ ->
           let n = 2 + R.int rng 15 and m = 1 + R.int rng 5 in
           let k = 1 + R.int rng (min n 4) in
           List.concat_map
             (fun t -> t :: with_class_emptied rng t)
             (catalog_shapes rng ~n ~m ~k))
         (List.init 100 Fun.id)
  in
  List.iter
    (fun t ->
      List.iter
        (fun (e : C.entry) ->
          let ran =
            match e.run ~seed:1 t with
            | _ -> true
            | exception Invalid_argument _ -> false
          in
          if ran <> e.applies t then
            Alcotest.failf "%s: applies is %b but run %s on@.%a" e.name
              (e.applies t)
              (if ran then "succeeded" else "raised Invalid_argument")
              I.pp t)
        C.all)
    instances

(* Check.Props's hand-written portfolio factor before the catalogue,
   kept as the reference for [Portfolio.factor]. *)
let reference_portfolio_factor t =
  let uniformish =
    match t.I.env with
    | I.Identical | I.Uniform _ -> true
    | I.Restricted _ | I.Unrelated _ -> false
  in
  let ra_applies =
    (match t.I.env with
    | I.Identical | I.Restricted _ -> true
    | I.Uniform _ | I.Unrelated _ -> false)
    && I.restrict_class_uniform t
  in
  let search_tol = 0.02 and ptas_eps = 0.5 in
  let member_factors =
    (if uniformish then
       [
         Algos.Lpt.approximation_factor;
         Algos.Uniform_ptas.guarantee ~eps:ptas_eps
         *. (1.0 +. (ptas_eps /. 4.0));
       ]
     else [])
    @ (if ra_applies then
         [ Algos.Ra_class_uniform.guarantee *. (1.0 +. search_tol) ]
       else [])
    @
    if I.class_uniform_ptimes t then
      [ Algos.Um_class_uniform.guarantee *. (1.0 +. search_tol) ]
    else []
  in
  match member_factors with
  | [] -> None
  | fs -> Some (List.fold_left Float.min infinity fs)

let test_portfolio_factor () =
  let rng = R.create 31 in
  for round = 1 to 12 do
    let n = 2 + (round mod 7) and m = 1 + (round mod 4) in
    let k = 1 + (round mod min n 3) in
    List.iter
      (fun t ->
        Alcotest.(check (option (float 0.0)))
          "Portfolio.factor = the hand-written reference"
          (reference_portfolio_factor t) (Algos.Portfolio.factor t))
      [
        Workloads.Gen.identical rng ~n ~m ~k ();
        Workloads.Gen.uniform rng ~n ~m ~k ();
        Workloads.Gen.unrelated rng ~n ~m ~k ();
        Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ();
        Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k ();
      ]
  done

(* --- Splittable model (Correa et al. [5]) ----------------------------------- *)

let test_splittable_valid_and_bounded () =
  let rng = Workloads.Rng.create 89 in
  for _ = 1 to 8 do
    let t = Workloads.Gen.restricted_class_uniform rng ~n:10 ~m:3 ~k:3 () in
    let frac = Algos.Splittable.schedule t in
    Alcotest.(check bool) "valid fractional schedule" true
      (Algos.Splittable.is_valid t frac.Algos.Splittable.pieces);
    (* 2-approximation with the binary-search slack *)
    Alcotest.(check bool) "within 2(1+tol) of guess" true
      (frac.Algos.Splittable.makespan
      <= 2.0 *. frac.Algos.Splittable.guess *. (1.0 +. 1e-9));
    (* the splittable optimum is a relaxation of the integral problem *)
    let integral = Algos.Ra_class_uniform.schedule t in
    Alcotest.(check bool) "relaxation never needs a larger guess" true
      (frac.Algos.Splittable.makespan
      <= 2.0 *. (integral.Algos.Common.makespan +. 1e-9) *. 1.03)
  done

let test_splittable_loads_match () =
  let t =
    I.identical ~num_machines:2 ~sizes:[| 6.0; 6.0 |] ~job_class:[| 0; 0 |]
      ~setups:[| 2.0 |]
  in
  let pieces =
    [
      { Algos.Splittable.machine = 0; cls = 0; fraction = 0.5 };
      { Algos.Splittable.machine = 1; cls = 0; fraction = 0.5 };
    ]
  in
  let load = Algos.Splittable.loads t pieces in
  (* half of 12 units plus one setup each *)
  check_float 1e-9 "machine 0" 8.0 load.(0);
  check_float 1e-9 "machine 1" 8.0 load.(1);
  Alcotest.(check bool) "valid" true (Algos.Splittable.is_valid t pieces)

let test_splittable_validity_checks () =
  let t =
    I.identical ~num_machines:2 ~sizes:[| 6.0 |] ~job_class:[| 0 |]
      ~setups:[| 2.0 |]
  in
  Alcotest.(check bool) "fractions must sum to one" false
    (Algos.Splittable.is_valid t
       [ { Algos.Splittable.machine = 0; cls = 0; fraction = 0.4 } ]);
  Alcotest.(check bool) "no negative fractions" false
    (Algos.Splittable.is_valid t
       [
         { Algos.Splittable.machine = 0; cls = 0; fraction = 1.5 };
         { Algos.Splittable.machine = 1; cls = 0; fraction = -0.5 };
       ])

let test_splittable_beats_or_ties_integral () =
  (* splitting helps when one class dominates: the integral problem must
     pack whole jobs, the splittable one spreads them perfectly *)
  let t = Workloads.Curated.setup_trap ~m:2 ~jobs_per_class:3 in
  let frac = Algos.Splittable.schedule t in
  let integral = Algos.Exact.makespan t in
  Alcotest.(check bool) "splittable <= integral at same guarantee" true
    (frac.Algos.Splittable.guess <= integral *. (1.0 +. 0.03))

let test_splittable_rejects_uniform () =
  let t =
    I.uniform ~speeds:[| 1.0; 2.0 |] ~sizes:[| 1.0 |] ~job_class:[| 0 |]
      ~setups:[| 1.0 |]
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Splittable.schedule t);
       false
     with Invalid_argument _ -> true)

(* --- Configuration IP ------------------------------------------------------ *)

let test_config_ip_matches_exact () =
  let rng = Workloads.Rng.create 83 in
  for trial = 1 to 8 do
    let n = 5 + Workloads.Rng.int rng 5 in
    let m = 2 + Workloads.Rng.int rng 3 in
    let k = 1 + Workloads.Rng.int rng 3 in
    let t = Workloads.Gen.identical rng ~n ~m ~k () in
    let cfg = Algos.Config_ip.solve t in
    Alcotest.(check bool) "optimal flag" true cfg.Algos.Config_ip.optimal;
    check_float 1e-6
      (Printf.sprintf "trial %d matches B&B" trial)
      (Algos.Exact.makespan t)
      cfg.Algos.Config_ip.result.Algos.Common.makespan
  done

let test_config_ip_configurations_maximal () =
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 3.0; 3.0; 2.0 |]
      ~job_class:[| 0; 0; 1 |]
      ~setups:[| 1.0; 1.0 |]
  in
  let configs = Algos.Config_ip.configurations t ~makespan:7.0 in
  Alcotest.(check bool) "some configs" true (configs <> []);
  (* every configuration fits the guess: cost <= 7 *)
  let types = Array.of_list (Algos.Ptas_dp.item_types t) in
  List.iter
    (fun c ->
      let cost = ref 0.0 in
      let classes = Array.make 2 false in
      Array.iteri
        (fun ty count ->
          let k, p, _ = types.(ty) in
          cost := !cost +. (float_of_int count *. p);
          if count > 0 then classes.(k) <- true)
        c;
      Array.iteri (fun k present -> if present then cost := !cost +. t.I.setups.(k)) classes;
      Alcotest.(check bool) "fits" true (!cost <= 7.0 +. 1e-9))
    configs

let test_config_ip_uniform_supported () =
  let rng = Workloads.Rng.create 87 in
  let t = Workloads.Gen.uniform rng ~n:7 ~m:3 ~k:2 () in
  let cfg = Algos.Config_ip.solve t in
  let opt = Algos.Exact.makespan t in
  (* the uniform path is tolerance-bounded, not exact *)
  Alcotest.(check bool) "close to optimum" true
    (cfg.Algos.Config_ip.result.Algos.Common.makespan <= opt *. 1.001 +. 1e-6
    && cfg.Algos.Config_ip.result.Algos.Common.makespan >= opt -. 1e-6)

let test_config_ip_rejects_unrelated () =
  let t =
    I.unrelated ~p:[| [| 1.0 |] |] ~job_class:[| 0 |] ~setups:[| 1.0 |] ()
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Config_ip.solve t);
       false
     with Invalid_argument _ -> true)

let test_config_ip_trap_instance () =
  (* the setup trap has a pinned optimum of 2 * jobs_per_class *)
  let t = Workloads.Curated.setup_trap ~m:3 ~jobs_per_class:4 in
  let cfg = Algos.Config_ip.solve t in
  check_float 1e-9 "pinned optimum" 8.0
    cfg.Algos.Config_ip.result.Algos.Common.makespan;
  check_float 1e-9 "curated optimum agrees" 8.0
    (Option.get (Workloads.Curated.optimum t))

(* --- Curated instances ------------------------------------------------------ *)

let test_curated_graham () =
  let m = 3 in
  let t = Workloads.Curated.graham_lpt_worst ~m in
  let opt = Option.get (Workloads.Curated.optimum t) in
  check_float 1e-9 "optimum 3m" (float_of_int (3 * m)) opt;
  check_float 1e-9 "exact agrees" opt (Algos.Exact.makespan t);
  (* LPT achieves exactly (4/3 - 1/(3m)) * OPT on this family *)
  let lpt = Algos.Lpt.setup_oblivious t in
  let expected = (4.0 /. 3.0 -. (1.0 /. (3.0 *. float_of_int m))) *. opt in
  check_float 1e-6 "LPT worst case ratio" expected lpt.Algos.Common.makespan

let test_curated_dominant_class () =
  let t = Workloads.Curated.dominant_class ~m:3 in
  let lpt = Algos.Lpt.schedule t in
  let batch = Algos.Batch_lpt.schedule t in
  Alcotest.(check bool) "placeholders beat wholesale batching" true
    (lpt.Algos.Common.makespan < batch.Algos.Common.makespan)

let test_curated_speed_ladder () =
  let t = Workloads.Curated.speed_ladder ~groups:4 in
  Alcotest.(check int) "one machine per rung" 4 (I.num_machines t);
  (* the PTAS handles the wide speed range *)
  let r = Algos.Uniform_ptas.schedule ~eps:0.5 t in
  Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule)

let test_curated_validation () =
  Alcotest.(check bool) "graham m>=2" true
    (try
       ignore (Workloads.Curated.graham_lpt_worst ~m:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "ladder range" true
    (try
       ignore (Workloads.Curated.speed_ladder ~groups:11);
       false
     with Invalid_argument _ -> true)

(* --- Speed groups (Remarks 2.5-2.7) --------------------------------------- *)

let test_speed_groups_overlap () =
  let sg = Algos.Speed_groups.create ~eps:0.5 ~makespan:10.0 ~vmin:1.0 in
  (* every speed lies in exactly two consecutive groups *)
  List.iter
    (fun v ->
      let g1, g2 = Algos.Speed_groups.groups_of_speed sg v in
      Alcotest.(check int) "consecutive" (g1 + 1) g2;
      Alcotest.(check bool) "v in g1" true
        (Algos.Speed_groups.group_lo sg g1 <= v
        && v < Algos.Speed_groups.group_hi sg g1);
      Alcotest.(check bool) "v in g2" true
        (Algos.Speed_groups.group_lo sg g2 <= v
        && v < Algos.Speed_groups.group_hi sg g2))
    [ 1.0; 1.5; 2.0; 7.9; 64.0; 1000.0 ]

let test_speed_groups_thresholds () =
  let sg = Algos.Speed_groups.create ~eps:0.5 ~makespan:10.0 ~vmin:1.0 in
  check_float 1e-12 "delta" 0.25 (Algos.Speed_groups.delta sg);
  check_float 1e-12 "gamma" 0.125 (Algos.Speed_groups.gamma sg)

let test_remark_25_core_or_fringe () =
  (* every job of a class is either core or fringe in simplified instances
     (size >= eps * setup) *)
  let sg = Algos.Speed_groups.create ~eps:0.5 ~makespan:10.0 ~vmin:1.0 in
  let setup = 8.0 in
  List.iter
    (fun size ->
      let core = Algos.Speed_groups.is_core_job sg ~setup ~size in
      let fringe = Algos.Speed_groups.is_fringe_job sg ~setup ~size in
      Alcotest.(check bool)
        (Printf.sprintf "size %g exactly one kind" size)
        true
        ((core || fringe) && not (core && fringe)))
    [ 4.0; 8.0; 31.9; 32.0; 100.0 ]

let test_remark_26_core_jobs_small_on_fringe_machines () =
  let eps = 0.5 in
  let sg = Algos.Speed_groups.create ~eps ~makespan:10.0 ~vmin:1.0 in
  let setup = 4.0 in
  (* core job sizes in [eps*s, s/delta); fringe machines: T*v >= s/gamma *)
  List.iter
    (fun size ->
      if Algos.Speed_groups.is_core_job sg ~setup ~size then
        List.iter
          (fun speed ->
            if Algos.Speed_groups.is_fringe_machine sg ~setup ~speed then
              Alcotest.(check bool) "core job small on fringe machine" true
                (Algos.Speed_groups.size_category sg ~speed size = `Small))
          [ 3.2; 5.0; 10.0; 100.0 ])
    [ 2.0; 4.0; 15.9 ]

let test_remark_27_core_job_big_in_core_group () =
  let eps = 0.5 in
  let sg = Algos.Speed_groups.create ~eps ~makespan:10.0 ~vmin:1.0 in
  List.iter
    (fun setup ->
      let g = Algos.Speed_groups.core_group sg ~setup in
      List.iter
        (fun size ->
          if Algos.Speed_groups.is_core_job sg ~setup ~size then begin
            (* some speed in group g makes the size big *)
            let lo = Algos.Speed_groups.group_lo sg g in
            let hi = Algos.Speed_groups.group_hi sg g in
            let found = ref false in
            let steps = 2000 in
            for s = 0 to steps - 1 do
              let v = lo *. ((hi /. lo) ** (float_of_int s /. float_of_int steps)) in
              if Algos.Speed_groups.size_category sg ~speed:v size = `Big then
                found := true
            done;
            Alcotest.(check bool)
              (Printf.sprintf "setup %g size %g big somewhere in core group"
                 setup size)
              true !found
          end)
        [ setup /. 2.0; setup; setup *. 2.0; setup *. 3.9 ])
    [ 10.0; 25.0; 80.0 ]

let test_native_group_definition () =
  let sg = Algos.Speed_groups.create ~eps:0.5 ~makespan:10.0 ~vmin:1.0 in
  let contains_all_big g size =
    (* big speeds are [p/T, p/(eps T)]; both ends must be in the group *)
    Algos.Speed_groups.group_lo sg g *. 10.0 <= size
    && size < 0.5 *. Algos.Speed_groups.group_hi sg g *. 10.0
  in
  List.iter
    (fun size ->
      let g = Algos.Speed_groups.native_group sg ~size in
      Alcotest.(check bool) "contains all big speeds" true
        (contains_all_big g size);
      Alcotest.(check bool) "minimal" false (contains_all_big (g - 1) size))
    [ 3.0; 10.0; 47.0; 512.0 ]

(* --- Relaxed schedules (Lemma 2.8) ----------------------------------------- *)

let test_relaxed_roundtrip_identical () =
  (* direction 1 (schedule -> relaxed) must be valid on identical machines
     at T = OPT, and direction 2 (relaxed -> schedule) must come back
     within the lemma's (1+O(eps)) factor *)
  let rng = Workloads.Rng.create 131 in
  let eps = 0.5 in
  for _ = 1 to 10 do
    let t = Workloads.Gen.identical rng ~n:8 ~m:3 ~k:3 () in
    let exact = Algos.Exact.solve t in
    let opt = exact.Algos.Exact.result.Algos.Common.makespan in
    let ctx = Algos.Relaxed_schedule.make_ctx ~eps ~makespan:opt t in
    let relaxed =
      Algos.Relaxed_schedule.of_schedule ctx
        exact.Algos.Exact.result.Algos.Common.schedule
    in
    Alcotest.(check bool) "direction 1 valid" true
      (Algos.Relaxed_schedule.is_valid ctx relaxed);
    let back = Algos.Relaxed_schedule.to_schedule ctx relaxed in
    Alcotest.(check bool) "converted valid" true (S.is_valid t back);
    Alcotest.(check bool) "Lemma 2.8 factor" true
      (S.makespan back <= ((1.0 +. eps) ** 4.0) *. opt +. 1e-6)
  done

let test_relaxed_all_integral_is_identity () =
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 6.0; 5.0 |]
      ~job_class:[| 0; 1 |]
      ~setups:[| 1.0; 1.0 |]
  in
  (* both jobs big at T = 7: integral on their machines *)
  let ctx = Algos.Relaxed_schedule.make_ctx ~eps:0.5 ~makespan:7.0 t in
  let s = Core.Schedule.make t [| 0; 1 |] in
  let relaxed = Algos.Relaxed_schedule.of_schedule ctx s in
  Alcotest.(check bool) "all integral" true
    (Array.for_all Option.is_some relaxed.Algos.Relaxed_schedule.home);
  let back = Algos.Relaxed_schedule.to_schedule ctx relaxed in
  Alcotest.(check (array int)) "identity" (S.assignment s) (S.assignment back)

let test_relaxed_rejects_wrong_group () =
  let t =
    I.uniform
      ~speeds:[| 1.0; 64.0 |]
      ~sizes:[| 60.0; 1.0 |]
      ~job_class:[| 0; 0 |]
      ~setups:[| 1.0 |]
  in
  let ctx = Algos.Relaxed_schedule.make_ctx ~eps:0.5 ~makespan:2.0 t in
  (* job 0 is big only for fast speeds; claiming it integral on the slow
     machine violates the group constraint *)
  let bad = { Algos.Relaxed_schedule.home = [| Some 0; None |] } in
  Alcotest.(check bool) "invalid" false (Algos.Relaxed_schedule.is_valid ctx bad)

let test_relaxed_space_condition_detects_overflow () =
  (* more fractional volume than free space: invalid *)
  let t =
    I.identical ~num_machines:1
      ~sizes:[| 10.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
      ~job_class:[| 0; 0; 0; 0; 0; 0 |]
      ~setups:[| 0.0 |]
  in
  (* T = 10: machine full with the big job; 5 units fractional overflow *)
  let ctx = Algos.Relaxed_schedule.make_ctx ~eps:0.5 ~makespan:10.0 t in
  let bad =
    { Algos.Relaxed_schedule.home = [| Some 0; None; None; None; None; None |] }
  in
  Alcotest.(check bool) "overflow detected" false
    (Algos.Relaxed_schedule.is_valid ctx bad)

let test_relaxed_fringe_core_classification () =
  let t =
    I.identical ~num_machines:1
      ~sizes:[| 100.0; 3.0 |]
      ~job_class:[| 0; 0 |]
      ~setups:[| 4.0 |]
  in
  let ctx = Algos.Relaxed_schedule.make_ctx ~eps:0.5 ~makespan:200.0 t in
  (* s/delta = 16: job 0 (100) is fringe, job 1 (3) is core *)
  Alcotest.(check bool) "big job is fringe" true
    (Algos.Relaxed_schedule.is_fringe ctx 0);
  Alcotest.(check bool) "small job is core" false
    (Algos.Relaxed_schedule.is_fringe ctx 1)

let test_relaxed_uniform_conditional () =
  (* multi-speed case: direction 1 is not guaranteed to land in the valid
     region (group membership of the optimal assignment is instance-
     dependent), but whenever it does, direction 2 must deliver the
     factor; require that the valid case actually occurs *)
  let rng = Workloads.Rng.create 137 in
  let eps = 0.5 in
  let valid_seen = ref 0 in
  for _ = 1 to 12 do
    let t = Workloads.Gen.uniform rng ~n:7 ~m:3 ~k:2 ~speed_range:(1.0, 2.0) () in
    let exact = Algos.Exact.solve t in
    let opt = exact.Algos.Exact.result.Algos.Common.makespan in
    (* extra headroom makes validity more likely without weakening the
       conversion check *)
    let guess = opt *. 1.2 in
    let ctx = Algos.Relaxed_schedule.make_ctx ~eps ~makespan:guess t in
    let relaxed =
      Algos.Relaxed_schedule.of_schedule ctx
        exact.Algos.Exact.result.Algos.Common.schedule
    in
    if Algos.Relaxed_schedule.is_valid ctx relaxed then begin
      incr valid_seen;
      let back = Algos.Relaxed_schedule.to_schedule ctx relaxed in
      Alcotest.(check bool) "uniform conversion factor" true
        (S.makespan back <= ((1.0 +. eps) ** 4.0) *. guess +. 1e-6)
    end
  done;
  Alcotest.(check bool) "valid cases occurred" true (!valid_seen > 0)

(* --- Simplify (Lemmas 2.2-2.4) -------------------------------------------- *)

let test_simplify_preserves_classes () =
  let t = uniform_fixture () in
  let simp = Algos.Simplify.simplify ~eps:0.5 ~makespan:9.0 t in
  let s = Algos.Simplify.simplified simp in
  Alcotest.(check int) "classes preserved" (I.num_classes t) (I.num_classes s);
  Alcotest.(check bool) "uniform env" true
    (match s.I.env with I.Uniform _ -> true | _ -> false)

let test_simplify_target_inflation () =
  let t = uniform_fixture () in
  let simp = Algos.Simplify.simplify ~eps:0.25 ~makespan:8.0 t in
  check_float 1e-9 "target = (1+eps)^5 T" (8.0 *. (1.25 ** 5.0))
    (Algos.Simplify.target simp)

let test_simplify_sizes_rounded_up () =
  let t = uniform_fixture () in
  let simp = Algos.Simplify.simplify ~eps:0.5 ~makespan:9.0 t in
  let s = Algos.Simplify.simplified simp in
  (* every simplified size is at least the floor and on the rounding grid *)
  Array.iter
    (fun p -> Alcotest.(check bool) "positive size" true (p > 0.0))
    s.I.sizes

let test_simplify_reconstruct_roundtrip () =
  let rng = Workloads.Rng.create 53 in
  for _ = 1 to 10 do
    let t =
      Workloads.Gen.uniform rng ~n:6 ~m:3 ~k:2 ~setup_range:(5.0, 30.0) ()
    in
    let guess = Core.Bounds.naive_upper_bound t in
    let simp = Algos.Simplify.simplify ~eps:0.5 ~makespan:guess t in
    match
      Algos.Ptas_dp.feasible
        (Algos.Simplify.simplified simp)
        ~makespan:(Algos.Simplify.target simp)
    with
    | None -> Alcotest.fail "generous guess must be feasible"
    | Some sched ->
        let back = Algos.Simplify.reconstruct simp sched in
        Alcotest.(check bool) "reconstructed valid" true (S.is_valid t back);
        (* Lemma 2.3 back direction: at most (1+eps) * target *)
        Alcotest.(check bool) "reconstructed within (1+eps)*target" true
          (S.makespan back
          <= (1.5 *. Algos.Simplify.target simp) +. 1e-6)
  done

(* --- PTAS DP --------------------------------------------------------------- *)

let test_ptas_dp_matches_exact_feasibility () =
  let rng = Workloads.Rng.create 59 in
  for _ = 1 to 10 do
    let t = Workloads.Gen.uniform rng ~n:6 ~m:2 ~k:2 () in
    let opt = Algos.Exact.makespan t in
    (match Algos.Ptas_dp.feasible t ~makespan:(opt *. 1.000001) with
    | None -> Alcotest.fail "feasible at OPT"
    | Some sched ->
        Alcotest.(check bool) "schedule meets bound" true
          (S.makespan sched <= opt +. 1e-6));
    Alcotest.(check bool) "infeasible below OPT" true
      (Algos.Ptas_dp.feasible t ~makespan:(opt *. 0.999) = None)
  done

let test_ptas_dp_item_types () =
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 3.0; 3.0; 3.0; 5.0 |]
      ~job_class:[| 0; 0; 1; 1 |]
      ~setups:[| 1.0; 1.0 |]
  in
  Alcotest.(check int) "grouped" 3 (Algos.Ptas_dp.num_item_types t)

(* --- Uniform PTAS ----------------------------------------------------------- *)

let test_uniform_ptas_ratio () =
  let rng = Workloads.Rng.create 61 in
  for _ = 1 to 6 do
    let t = Workloads.Gen.uniform rng ~n:6 ~m:2 ~k:2 () in
    let opt = Algos.Exact.makespan t in
    let eps = 0.5 in
    let r = Algos.Uniform_ptas.schedule ~eps t in
    Alcotest.(check bool) "valid" true (S.is_valid t r.Algos.Common.schedule);
    let bound = ((1.0 +. eps) ** 6.0) *. (1.0 +. (eps /. 4.0)) *. opt in
    Alcotest.(check bool) "PTAS guarantee" true
      (r.Algos.Common.makespan <= bound +. 1e-6)
  done

let test_uniform_ptas_improves_with_eps () =
  (* not guaranteed monotone instance-by-instance, but eps=1/4 must also
     respect its (tighter) bound *)
  let rng = Workloads.Rng.create 67 in
  let t = Workloads.Gen.uniform rng ~n:6 ~m:2 ~k:2 () in
  let opt = Algos.Exact.makespan t in
  let r = Algos.Uniform_ptas.schedule ~eps:0.25 t in
  let bound = (1.25 ** 6.0) *. (1.0 +. 0.0625) *. opt in
  Alcotest.(check bool) "tighter guarantee at eps=1/4" true
    (r.Algos.Common.makespan <= bound +. 1e-6)

let test_uniform_ptas_rejects_unrelated () =
  let t =
    I.unrelated ~p:[| [| 1.0 |] |] ~job_class:[| 0 |] ~setups:[| 1.0 |] ()
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Algos.Uniform_ptas.schedule ~eps:0.5 t);
       false
     with Invalid_argument _ -> true)

(* --- Properties -------------------------------------------------------------- *)

let instance_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n = int_range 3 7 in
    let* m = int_range 2 3 in
    let* k = int_range 1 3 in
    return (seed, n, m, k))

(* Robustness sweep: every catalogue entry whose precondition holds
   returns a valid schedule with a consistent makespan — never a wrong
   answer. The "catalog applies" test shows the others raise
   Invalid_argument. *)
let prop_validity_sweep =
  QCheck.Test.make ~name:"all algorithms valid or cleanly rejected" ~count:30
    (QCheck.make instance_gen) (fun (seed, n, m, k) ->
      let rng = Workloads.Rng.create seed in
      let instances =
        [
          Workloads.Gen.identical rng ~n ~m ~k ();
          Workloads.Gen.uniform rng ~n ~m ~k ();
          Workloads.Gen.unrelated rng ~n ~m ~k ();
          Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ();
          Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k ();
        ]
      in
      List.for_all
        (fun t ->
          List.for_all
            (fun (e : Algos.Catalog.entry) ->
              (not (e.applies t))
              ||
              let r = e.run ~seed t in
              S.is_valid t r.Algos.Common.schedule
              && Float.abs
                   (r.Algos.Common.makespan -. S.makespan r.Algos.Common.schedule)
                 < 1e-9
              && r.Algos.Common.makespan >= Core.Bounds.lower_bound t -. 1e-6)
            Algos.Catalog.all)
        instances)

let prop_greedy_vs_exact =
  QCheck.Test.make ~name:"exact <= greedy on random uniform instances"
    ~count:40 (QCheck.make instance_gen) (fun (seed, n, m, k) ->
      let rng = Workloads.Rng.create seed in
      let t = Workloads.Gen.uniform rng ~n ~m ~k () in
      let greedy = Algos.List_scheduling.schedule t in
      let exact = Algos.Exact.solve t in
      exact.Algos.Exact.result.Algos.Common.makespan
      <= greedy.Algos.Common.makespan +. 1e-9)

let prop_lpt_factor =
  QCheck.Test.make ~name:"LPT respects the 4.74 factor" ~count:40
    (QCheck.make instance_gen) (fun (seed, n, m, k) ->
      let rng = Workloads.Rng.create seed in
      let t = Workloads.Gen.uniform rng ~n ~m ~k ~setup_range:(1.0, 120.0) () in
      let r = Algos.Lpt.schedule t in
      let opt = Algos.Exact.makespan t in
      r.Algos.Common.makespan <= (Algos.Lpt.approximation_factor *. opt) +. 1e-6)

let prop_lp_lower_bound_sound =
  QCheck.Test.make ~name:"LP lower bound never exceeds OPT" ~count:25
    (QCheck.make instance_gen) (fun (seed, n, m, k) ->
      let rng = Workloads.Rng.create seed in
      let t = Workloads.Gen.unrelated rng ~n ~m ~k () in
      let opt = Algos.Exact.makespan t in
      let bound = Algos.Lp_um.lower_bound t in
      bound.Algos.Lp_um.lower <= opt +. 1e-6)

(* The relaxation at one guess written out here from (1), (2), (4) and
   the filters, and solved by the two-phase reference simplex, which
   shares no code with the bounded tableau: [true] when it is feasible. *)
let lp_um_reference_feasible t ~makespan =
  let n = Core.Instance.num_jobs t in
  let m = Core.Instance.num_machines t in
  let kk = Core.Instance.num_classes t in
  let job_class = t.Core.Instance.job_class in
  let vars = ref [] and nv = ref 0 in
  let add ub =
    vars := { Simplex_ref.lb = 0.0; ub; obj = 0.0 } :: !vars;
    incr nv;
    Some (!nv - 1)
  in
  let y =
    Array.init m (fun i ->
        Array.init kk (fun k ->
            if Core.Instance.setup_time t i k <= makespan then add 1.0 else None))
  in
  let x =
    Array.init m (fun i ->
        Array.init n (fun j ->
            if Core.Instance.ptime t i j <= makespan && y.(i).(job_class.(j)) <> None
            then add infinity
            else None))
  in
  (* the terms [f a] yields over a = 0 .. len - 1 *)
  let terms f len = List.filter_map f (List.init len Fun.id) in
  let assign =
    List.init n (fun j -> terms (fun i -> Option.map (fun v -> (v, 1.0)) x.(i).(j)) m)
  in
  let load i =
    terms (fun j -> Option.map (fun v -> (v, Core.Instance.ptime t i j)) x.(i).(j)) n
    @ terms
        (fun k -> Option.map (fun v -> (v, Core.Instance.setup_time t i k)) y.(i).(k))
        kk
  in
  let dominate i =
    terms
      (fun j ->
        match (x.(i).(j), y.(i).(job_class.(j))) with
        | Some xv, Some yv ->
            Some
              { Simplex_ref.coeffs = [ (yv, 1.0); (xv, -1.0) ]; rel = Lp.Ge; rhs = 0.0 }
        | _ -> None)
      n
  in
  let rows =
    List.map (fun coeffs -> { Simplex_ref.coeffs; rel = Lp.Eq; rhs = 1.0 }) assign
    @ List.init m (fun i -> { Simplex_ref.coeffs = load i; rel = Lp.Le; rhs = makespan })
    @ List.concat (List.init m dominate)
  in
  List.for_all (fun coeffs -> coeffs <> []) assign
  &&
  match Simplex_ref.solve_model (Array.of_list (List.rev !vars)) rows with
  | `Optimal _ -> true
  | `Infeasible -> false
  | `Unbounded | `Limit -> Alcotest.fail "reference: zero objective, small LP"

(* The warm search re-solves one LP from the previous probe's basis; a
   cold search builds and solves a fresh LP per guess. Both must walk the
   same trajectory: same verdict at every probe, hence the same probe
   count, certified lower bound and final guess. The cold verdicts come
   from the bounded tableau too, so every probe is also checked against
   the two-phase reference. *)
let lp_um_shape_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* shape = int_range 0 8 in
    let* n = int_range 2 14 in
    let* m = int_range 1 4 in
    let* k = int_range 1 4 in
    return (seed, shape, n, m, k))

let lp_um_shape_instance (seed, shape, n, m, k) =
  let rng = Workloads.Rng.create seed in
  let k = min k n in
  match shape with
  | 0 -> Workloads.Gen.identical rng ~n ~m ~k ()
  | 1 -> Workloads.Gen.uniform rng ~n ~m ~k ()
  | 2 -> Workloads.Gen.unrelated rng ~n ~m ~k ()
  | 3 -> Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ()
  | 4 -> Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k ()
  | 5 -> Workloads.Gen.unrelated rng ~n ~m ~k ~setup_range:(0.0, 0.0) ()
  | 6 -> Workloads.Gen.unrelated rng ~n ~m ~k ~ineligible_prob:0.4 ()
  | 7 -> Workloads.Gen.unrelated rng ~n ~m:1 ~k ()
  | _ -> Workloads.Gen.uniform rng ~n ~m ~k:1 ()

let prop_lp_um_warm_matches_cold =
  QCheck.Test.make ~name:"warm ILP-UM search matches a cold search" ~count:60
    (QCheck.make lp_um_shape_gen) (fun params ->
      let t = lp_um_shape_instance params in
      let lo = Core.Bounds.lower_bound t in
      let hi = Core.Bounds.naive_upper_bound t in
      let probes = ref 0 and max_infeasible = ref lo and disagreements = ref 0 in
      let cold guess =
        incr probes;
        let answer = Algos.Lp_um.feasible t ~makespan:guess in
        if answer = None && guess > !max_infeasible then
          max_infeasible := guess;
        if Option.is_some answer <> lp_um_reference_feasible t ~makespan:guess then
          incr disagreements;
        answer
      in
      let cold_guess =
        match Core.Binary_search.min_feasible ~lo ~hi ~rel_tol:0.02 cold with
        | Some (guess, _) -> guess
        | None -> nan
      in
      let fallbacks = Obs.Counter.make "lp.simplex.warm_fallbacks" in
      let before = Obs.Counter.value fallbacks in
      let warm = Algos.Lp_um.lower_bound t in
      check_lp_um_solution t warm.Algos.Lp_um.solution;
      !disagreements = 0
      && warm.Algos.Lp_um.probes = !probes
      && warm.Algos.Lp_um.lower = !max_infeasible
      && warm.Algos.Lp_um.solution.Algos.Lp_um.makespan = cold_guess
      && Obs.Counter.value fallbacks = before)

(* Exact_ilp solves ILP-UM through Mip, one cold LP per node, so on
   integral instances its integer bisection must prove the same optimum
   as branch and bound over assignments. Uniform speeds of 1 and 2 over
   even sizes and setups keep the processing times integral. *)
let integral_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* env = int_range 0 3 in
    let* n = int_range 1 7 in
    let* m = int_range 1 3 in
    let* k = int_range 1 3 in
    return (seed, env, n, m, k))

let integral_instance (seed, env, n, m, k) =
  let rng = Workloads.Rng.create seed in
  let k = min k n in
  match env with
  | 0 -> Workloads.Gen.identical rng ~n ~m ~k ()
  | 1 ->
      let t = Workloads.Gen.identical rng ~n ~m ~k () in
      let double = Array.map (fun v -> 2.0 *. v) in
      Core.Instance.uniform
        ~speeds:(Array.init m (fun i -> if i mod 2 = 0 then 1.0 else 2.0))
        ~sizes:(double t.Core.Instance.sizes) ~job_class:t.Core.Instance.job_class
        ~setups:(double t.Core.Instance.setups)
  | 2 -> Workloads.Gen.unrelated rng ~n ~m ~k ()
  | _ -> Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ()

let prop_exact_ilp_matches_bnb =
  QCheck.Test.make ~name:"Exact_ilp proves the branch-and-bound optimum"
    ~count:200
    (QCheck.make
       ~print:(fun (seed, env, n, m, k) ->
         Printf.sprintf "seed %d env %d n %d m %d k %d" seed env n m k)
       integral_gen)
    (fun params ->
      let t = integral_instance params in
      let ilp = Algos.Exact_ilp.solve t in
      let bnb = Algos.Exact.solve t in
      ilp.Algos.Exact_ilp.optimal
      && bnb.Algos.Exact.optimal
      && Float.abs
           (ilp.Algos.Exact_ilp.result.Algos.Common.makespan
           -. bnb.Algos.Exact.result.Algos.Common.makespan)
         <= 1e-6)

let prop_ra_two_approx =
  QCheck.Test.make ~name:"RA class-uniform stays within 2(1+tol) OPT"
    ~count:25 (QCheck.make instance_gen) (fun (seed, n, m, k) ->
      let rng = Workloads.Rng.create seed in
      let t = Workloads.Gen.restricted_class_uniform rng ~n ~m ~k () in
      let r = Algos.Ra_class_uniform.schedule t in
      let opt = Algos.Exact.makespan t in
      r.Algos.Common.makespan <= (2.0 *. 1.03 *. opt) +. 1e-6)

let prop_um_three_approx =
  QCheck.Test.make ~name:"class-uniform ptimes stays within 3(1+tol) OPT"
    ~count:25 (QCheck.make instance_gen) (fun (seed, n, m, k) ->
      let rng = Workloads.Rng.create seed in
      let t = Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k () in
      let r = Algos.Um_class_uniform.schedule t in
      let opt = Algos.Exact.makespan t in
      r.Algos.Common.makespan <= (3.0 *. 1.03 *. opt) +. 1e-6)

let () =
  Alcotest.run "algos"
    [
      ( "list scheduling",
        [
          Alcotest.test_case "valid all orders" `Quick
            test_list_scheduling_valid;
          Alcotest.test_case "eligibility" `Quick
            test_list_scheduling_respects_eligibility;
          Alcotest.test_case "within bounds" `Quick
            test_list_scheduling_within_naive_bound;
        ] );
      ( "exact",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_exact_matches_brute_force;
          Alcotest.test_case "single machine" `Quick test_exact_single_machine;
          Alcotest.test_case "beats greedy" `Quick
            test_exact_beats_greedy_or_ties;
          Alcotest.test_case "node limit" `Quick test_exact_respects_node_limit;
          Alcotest.test_case "parallel pool reuse" `Quick
            test_exact_parallel_pool_reuse;
          Alcotest.test_case "parallel identical symmetry" `Quick
            test_exact_parallel_identical_symmetry;
        ] );
      ( "lpt",
        [
          Alcotest.test_case "factor on fixture" `Quick
            test_lpt_factor_on_fixture;
          Alcotest.test_case "factor random" `Quick test_lpt_factor_random;
          Alcotest.test_case "small jobs bundled" `Quick
            test_lpt_small_jobs_bundled;
          Alcotest.test_case "rejects unrelated" `Quick
            test_lpt_rejects_unrelated;
          Alcotest.test_case "oblivious degrades" `Quick
            test_setup_oblivious_degrades;
          Alcotest.test_case "batch lpt valid" `Quick
            test_batch_lpt_valid_and_one_setup_per_class;
          Alcotest.test_case "batch lpt dominant class" `Quick
            test_batch_lpt_loses_on_dominant_class;
          Alcotest.test_case "batch lpt rejects unrelated" `Quick
            test_batch_lpt_rejects_unrelated;
        ] );
      ( "lp um",
        [
          Alcotest.test_case "sandwich" `Quick test_lp_um_sandwich;
          Alcotest.test_case "solution constraints" `Quick
            test_lp_um_solution_constraints;
          Alcotest.test_case "infeasible below bound" `Quick
            test_lp_um_infeasible_below_bound;
        ] );
      ( "randomized rounding",
        [
          Alcotest.test_case "valid and bounded" `Quick
            test_rounding_valid_and_bounded;
          Alcotest.test_case "deterministic" `Quick
            test_rounding_deterministic_given_seed;
          Alcotest.test_case "stats" `Quick test_rounding_stats;
        ] );
      ( "ra class uniform",
        [
          Alcotest.test_case "guarantee" `Quick test_ra_class_uniform_guarantee;
          Alcotest.test_case "probe semantics" `Quick
            test_ra_class_uniform_probe_semantics;
          Alcotest.test_case "rejects nonuniform" `Quick
            test_ra_class_uniform_rejects_nonuniform;
        ] );
      ( "um class uniform",
        [
          Alcotest.test_case "guarantee" `Quick test_um_class_uniform_guarantee;
          Alcotest.test_case "rejects general" `Quick
            test_um_class_uniform_rejects_general;
        ] );
      ( "exact ilp",
        [
          Alcotest.test_case "matches B&B" `Quick test_exact_ilp_matches_bnb;
          Alcotest.test_case "feasibility probe" `Quick
            test_exact_ilp_feasible_probe;
        ] );
      ( "local search",
        [
          Alcotest.test_case "never worse" `Quick test_local_search_never_worse;
          Alcotest.test_case "fixes obvious" `Quick
            test_local_search_fixes_obvious;
          Alcotest.test_case "swap needed" `Quick test_local_search_swap_needed;
          Alcotest.test_case "respects eligibility" `Quick
            test_local_search_respects_eligibility;
          Alcotest.test_case "max steps" `Quick test_local_search_max_steps;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add repair" `Quick test_incremental_add_repair;
          Alcotest.test_case "drop repair" `Quick test_incremental_drop_repair;
          Alcotest.test_case "seed sanitized" `Quick
            test_incremental_seed_sanitized;
          Alcotest.test_case "batches into class" `Quick
            test_incremental_batches_into_class;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "beats members" `Quick test_portfolio_beats_members;
          Alcotest.test_case "skips inapplicable" `Quick
            test_portfolio_skips_inapplicable;
          Alcotest.test_case "factor" `Quick test_portfolio_factor;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "names" `Quick test_catalog_names;
          Alcotest.test_case "applies is the precondition" `Quick
            test_catalog_applies;
        ] );
      ( "splittable",
        [
          Alcotest.test_case "valid and bounded" `Quick
            test_splittable_valid_and_bounded;
          Alcotest.test_case "loads" `Quick test_splittable_loads_match;
          Alcotest.test_case "validity checks" `Quick
            test_splittable_validity_checks;
          Alcotest.test_case "relaxation" `Quick
            test_splittable_beats_or_ties_integral;
          Alcotest.test_case "rejects uniform" `Quick
            test_splittable_rejects_uniform;
        ] );
      ( "config ip",
        [
          Alcotest.test_case "matches exact" `Quick test_config_ip_matches_exact;
          Alcotest.test_case "configurations fit" `Quick
            test_config_ip_configurations_maximal;
          Alcotest.test_case "uniform supported" `Quick
            test_config_ip_uniform_supported;
          Alcotest.test_case "rejects unrelated" `Quick
            test_config_ip_rejects_unrelated;
          Alcotest.test_case "setup trap" `Quick test_config_ip_trap_instance;
        ] );
      ( "curated",
        [
          Alcotest.test_case "graham worst case" `Quick test_curated_graham;
          Alcotest.test_case "dominant class" `Quick
            test_curated_dominant_class;
          Alcotest.test_case "speed ladder" `Quick test_curated_speed_ladder;
          Alcotest.test_case "validation" `Quick test_curated_validation;
        ] );
      ( "speed groups",
        [
          Alcotest.test_case "overlap" `Quick test_speed_groups_overlap;
          Alcotest.test_case "thresholds" `Quick test_speed_groups_thresholds;
          Alcotest.test_case "remark 2.5" `Quick test_remark_25_core_or_fringe;
          Alcotest.test_case "remark 2.6" `Quick
            test_remark_26_core_jobs_small_on_fringe_machines;
          Alcotest.test_case "remark 2.7" `Quick
            test_remark_27_core_job_big_in_core_group;
          Alcotest.test_case "native group" `Quick test_native_group_definition;
        ] );
      ( "relaxed schedule",
        [
          Alcotest.test_case "roundtrip identical" `Quick
            test_relaxed_roundtrip_identical;
          Alcotest.test_case "all integral identity" `Quick
            test_relaxed_all_integral_is_identity;
          Alcotest.test_case "rejects wrong group" `Quick
            test_relaxed_rejects_wrong_group;
          Alcotest.test_case "space condition" `Quick
            test_relaxed_space_condition_detects_overflow;
          Alcotest.test_case "fringe vs core" `Quick
            test_relaxed_fringe_core_classification;
          Alcotest.test_case "uniform conditional" `Quick
            test_relaxed_uniform_conditional;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "preserves classes" `Quick
            test_simplify_preserves_classes;
          Alcotest.test_case "target inflation" `Quick
            test_simplify_target_inflation;
          Alcotest.test_case "sizes positive" `Quick
            test_simplify_sizes_rounded_up;
          Alcotest.test_case "reconstruct roundtrip" `Quick
            test_simplify_reconstruct_roundtrip;
        ] );
      ( "ptas dp",
        [
          Alcotest.test_case "matches exact feasibility" `Quick
            test_ptas_dp_matches_exact_feasibility;
          Alcotest.test_case "item types" `Quick test_ptas_dp_item_types;
        ] );
      ( "uniform ptas",
        [
          Alcotest.test_case "ratio" `Quick test_uniform_ptas_ratio;
          Alcotest.test_case "eps 1/4" `Quick test_uniform_ptas_improves_with_eps;
          Alcotest.test_case "rejects unrelated" `Quick
            test_uniform_ptas_rejects_unrelated;
        ] );
      ( "empty classes",
        [
          Alcotest.test_case "identical" `Quick
            (test_empty_class "identical" empty_class_identical);
          Alcotest.test_case "restricted" `Quick
            (test_empty_class "restricted" empty_class_restricted);
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_validity_sweep;
            prop_greedy_vs_exact;
            prop_lpt_factor;
            prop_lp_lower_bound_sound;
            prop_lp_um_warm_matches_cold;
            prop_ra_two_approx;
            prop_um_three_approx;
            prop_exact_ilp_matches_bnb;
          ] );
    ]
