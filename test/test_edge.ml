(* Edge-case robustness: degenerate instances every algorithm must handle
   without crashing or producing invalid schedules. *)

module I = Core.Instance
module S = Core.Schedule

let check_float = Alcotest.(check (float 1e-9))

(* Every catalogue entry whose precondition holds, and the exact
   solver; every job of these instances has an eligible machine. *)
let algorithms t =
  List.filter_map
    (fun (e : Algos.Catalog.entry) ->
      if e.applies t then Some (e.name, e.run ~seed:1) else None)
    Algos.Catalog.all
  @ [ ("exact", fun t -> (Algos.Exact.solve t).Algos.Exact.result) ]

let run_all name t ~expect_opt =
  List.iter
    (fun (algo_name, algo) ->
      let r = algo t in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s valid" name algo_name)
        true
        (S.is_valid t r.Algos.Common.schedule);
      match expect_opt with
      | Some opt ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s >= OPT" name algo_name)
            true
            (r.Algos.Common.makespan >= opt -. 1e-9)
      | None -> ())
    (algorithms t)

let test_zero_setups () =
  (* the classical problem: all setups zero *)
  let t =
    I.identical ~num_machines:3
      ~sizes:[| 5.0; 4.0; 3.0; 2.0; 1.0 |]
      ~job_class:[| 0; 0; 1; 1; 2 |]
      ~setups:[| 0.0; 0.0; 0.0 |]
  in
  run_all "zero setups" t ~expect_opt:(Some 5.0);
  check_float "exact finds classic optimum" 5.0 (Algos.Exact.makespan t)

let test_zero_sizes () =
  (* only setups matter *)
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 0.0; 0.0; 0.0 |]
      ~job_class:[| 0; 1; 2 |]
      ~setups:[| 4.0; 4.0; 4.0 |]
  in
  run_all "zero sizes" t ~expect_opt:(Some 8.0);
  check_float "two setups on one machine" 8.0 (Algos.Exact.makespan t)

let test_single_machine () =
  let t =
    I.identical ~num_machines:1
      ~sizes:[| 3.0; 2.0; 1.0 |]
      ~job_class:[| 0; 1; 0 |]
      ~setups:[| 2.0; 5.0 |]
  in
  (* everything on the one machine: 6 + 7 = 13 *)
  run_all "single machine" t ~expect_opt:(Some 13.0);
  check_float "sum" 13.0 (Algos.Exact.makespan t)

let test_more_machines_than_jobs () =
  let t =
    I.identical ~num_machines:6 ~sizes:[| 9.0; 1.0 |] ~job_class:[| 0; 1 |]
      ~setups:[| 1.0; 1.0 |]
  in
  run_all "m > n" t ~expect_opt:(Some 10.0);
  check_float "spread out" 10.0 (Algos.Exact.makespan t)

let test_singleton_classes () =
  (* K = n: every job its own class; reduces to classic with size+setup *)
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 4.0; 3.0; 2.0; 1.0 |]
      ~job_class:[| 0; 1; 2; 3 |]
      ~setups:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  (* effective sizes 5,4,3,2 -> OPT 7 *)
  run_all "singleton classes" t ~expect_opt:(Some 7.0);
  check_float "classic packing" 7.0 (Algos.Exact.makespan t)

let test_one_class_everything () =
  let t =
    I.identical ~num_machines:3 ~sizes:(Array.make 9 2.0)
      ~job_class:(Array.make 9 0) ~setups:[| 6.0 |]
  in
  run_all "one class" t ~expect_opt:(Some 12.0);
  (* 3 jobs + setup each: 6+6 = 12 *)
  check_float "balanced with setups" 12.0 (Algos.Exact.makespan t)

let test_identical_sizes_many_ties () =
  let t =
    I.uniform ~speeds:[| 1.0; 1.0; 1.0 |] ~sizes:(Array.make 12 1.0)
      ~job_class:(Array.init 12 (fun j -> j mod 2))
      ~setups:[| 1.0; 1.0 |]
  in
  run_all "all ties" t ~expect_opt:None

let test_huge_value_ranges () =
  let t =
    I.identical ~num_machines:2
      ~sizes:[| 1e9; 1.0; 1e-3 |]
      ~job_class:[| 0; 0; 1 |]
      ~setups:[| 1e6; 1e-6 |]
  in
  run_all "huge ranges" t ~expect_opt:None;
  let exact = Algos.Exact.makespan t in
  Alcotest.(check bool) "dominated by the huge job" true (exact >= 1e9)

let test_extreme_speed_ratio () =
  let t =
    I.uniform
      ~speeds:[| 1.0; 1000.0 |]
      ~sizes:[| 10.0; 20.0; 30.0 |]
      ~job_class:[| 0; 1; 0 |]
      ~setups:[| 5.0; 5.0 |]
  in
  run_all "speed ratio 1000" t ~expect_opt:None;
  (* everything on the fast machine beats anything using the slow one *)
  let exact = Algos.Exact.makespan t in
  check_float "fast machine takes all" 0.07 exact

let test_restricted_single_option () =
  (* each job eligible on exactly one machine: forced schedule *)
  let t =
    I.restricted
      ~eligible:[| [| true; false; true |]; [| false; true; false |] |]
      ~sizes:[| 2.0; 3.0; 4.0 |] ~job_class:[| 0; 0; 1 |]
      ~setups:[| 1.0; 1.0 |]
  in
  run_all "forced assignment" t ~expect_opt:(Some 8.0);
  check_float "forced makespan" 8.0 (Algos.Exact.makespan t)

let () =
  Alcotest.run "edge-cases"
    [
      ( "degenerate instances",
        [
          Alcotest.test_case "zero setups" `Quick test_zero_setups;
          Alcotest.test_case "zero sizes" `Quick test_zero_sizes;
          Alcotest.test_case "single machine" `Quick test_single_machine;
          Alcotest.test_case "m > n" `Quick test_more_machines_than_jobs;
          Alcotest.test_case "singleton classes" `Quick test_singleton_classes;
          Alcotest.test_case "one class" `Quick test_one_class_everything;
          Alcotest.test_case "all ties" `Quick test_identical_sizes_many_ties;
          Alcotest.test_case "huge ranges" `Quick test_huge_value_ranges;
          Alcotest.test_case "extreme speeds" `Quick test_extreme_speed_ratio;
          Alcotest.test_case "forced assignment" `Quick
            test_restricted_single_option;
        ] );
    ]
