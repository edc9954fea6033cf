(* Tests for the core model: instances, schedules, bounds, binary search,
   serialization. *)

let check_float = Alcotest.(check (float 1e-9))

(* A small shared fixture: 2 machines (uniform speeds 1 and 2), 4 jobs in 2
   classes. *)
let uniform_fixture () =
  Core.Instance.uniform ~speeds:[| 1.0; 2.0 |]
    ~sizes:[| 4.0; 2.0; 6.0; 2.0 |]
    ~job_class:[| 0; 0; 1; 1 |]
    ~setups:[| 3.0; 1.0 |]

let unrelated_fixture () =
  Core.Instance.unrelated
    ~p:[| [| 1.0; 2.0; infinity |]; [| 4.0; 1.0; 5.0 |] |]
    ~job_class:[| 0; 1; 1 |]
    ~setups:[| 2.0; 3.0 |]
    ()

(* --- Instance ---------------------------------------------------------- *)

let test_instance_accessors () =
  let t = uniform_fixture () in
  Alcotest.(check int) "jobs" 4 (Core.Instance.num_jobs t);
  Alcotest.(check int) "machines" 2 (Core.Instance.num_machines t);
  Alcotest.(check int) "classes" 2 (Core.Instance.num_classes t);
  check_float "ptime slow" 4.0 (Core.Instance.ptime t 0 0);
  check_float "ptime fast" 2.0 (Core.Instance.ptime t 1 0);
  check_float "setup slow" 3.0 (Core.Instance.setup_time t 0 0);
  check_float "setup fast" 1.5 (Core.Instance.setup_time t 1 0);
  check_float "speed" 2.0 (Core.Instance.speed t 1);
  Alcotest.(check (list int)) "class 1 jobs" [ 2; 3 ]
    (Core.Instance.jobs_of_class t 1);
  check_float "class size" 8.0 (Core.Instance.class_size t 1);
  check_float "total size" 14.0 (Core.Instance.total_size t)

let test_instance_identical () =
  let t =
    Core.Instance.identical ~num_machines:3 ~sizes:[| 1.0; 2.0 |]
      ~job_class:[| 0; 0 |] ~setups:[| 5.0 |]
  in
  check_float "ptime" 2.0 (Core.Instance.ptime t 2 1);
  check_float "setup" 5.0 (Core.Instance.setup_time t 1 0);
  Alcotest.(check bool) "eligible" true (Core.Instance.job_eligible t 0 0)

let test_instance_restricted () =
  let t =
    Core.Instance.restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 1 |] ~setups:[| 5.0; 6.0 |]
  in
  check_float "eligible ptime" 1.0 (Core.Instance.ptime t 0 0);
  check_float "ineligible ptime" infinity (Core.Instance.ptime t 1 0);
  (* class 0 has no job on machine 1, so its setup there is infinite *)
  check_float "setup on wrong machine" infinity
    (Core.Instance.setup_time t 1 0);
  check_float "setup on right machine" 5.0 (Core.Instance.setup_time t 0 0);
  Alcotest.(check bool) "job 0 not eligible on machine 1" false
    (Core.Instance.job_eligible t 1 0);
  Alcotest.(check (list int)) "eligible machines" [ 1 ]
    (Core.Instance.eligible_machines t 1)

let test_instance_unrelated () =
  let t = unrelated_fixture () in
  check_float "finite ptime" 1.0 (Core.Instance.ptime t 0 0);
  check_float "infinite ptime" infinity (Core.Instance.ptime t 0 2);
  Alcotest.(check bool) "eligible" false (Core.Instance.job_eligible t 0 2);
  (* base sizes become minimum finite processing time *)
  check_float "derived size" 1.0 t.Core.Instance.sizes.(1)

let test_instance_setup_matrix () =
  let t =
    Core.Instance.unrelated
      ~setup_matrix:[| [| 1.0; infinity |]; [| 0.5; 2.0 |] |]
      ~p:[| [| 1.0 |]; [| 2.0 |] |]
      ~job_class:[| 1 |] ~setups:[| 9.0; 9.0 |]
      ()
  in
  check_float "matrix setup" 2.0 (Core.Instance.setup_time t 1 1);
  Alcotest.(check bool) "blocked by setup" false
    (Core.Instance.job_eligible t 0 0)

let test_instance_validation () =
  let bad name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  bad "length mismatch" (fun () ->
      Core.Instance.identical ~num_machines:1 ~sizes:[| 1.0 |] ~job_class:[||]
        ~setups:[| 1.0 |]);
  bad "zero machines" (fun () ->
      Core.Instance.identical ~num_machines:0 ~sizes:[||] ~job_class:[||]
        ~setups:[||]);
  bad "negative size" (fun () ->
      Core.Instance.identical ~num_machines:1 ~sizes:[| -1.0 |]
        ~job_class:[| 0 |] ~setups:[| 1.0 |]);
  bad "class out of range" (fun () ->
      Core.Instance.identical ~num_machines:1 ~sizes:[| 1.0 |]
        ~job_class:[| 3 |] ~setups:[| 1.0 |]);
  bad "zero speed" (fun () ->
      Core.Instance.uniform ~speeds:[| 0.0 |] ~sizes:[| 1.0 |]
        ~job_class:[| 0 |] ~setups:[| 1.0 |]);
  bad "ragged matrix" (fun () ->
      Core.Instance.unrelated
        ~p:[| [| 1.0; 2.0 |] |]
        ~job_class:[| 0 |] ~setups:[| 1.0 |]
        ())

let test_scale_setups () =
  let t = uniform_fixture () in
  let t2 = Core.Instance.scale_setups t 2.0 in
  check_float "scaled" 6.0 (Core.Instance.setup_time t2 0 0);
  check_float "original untouched" 3.0 (Core.Instance.setup_time t 0 0)

let test_class_uniform_predicates () =
  let t = uniform_fixture () in
  Alcotest.(check bool) "uniform is class-uniform-restricted" true
    (Core.Instance.restrict_class_uniform t);
  let r_ok =
    Core.Instance.restricted
      ~eligible:[| [| true; true |]; [| false; false |] |]
      ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 0 |] ~setups:[| 1.0 |]
  in
  Alcotest.(check bool) "class-uniform restriction" true
    (Core.Instance.restrict_class_uniform r_ok);
  let r_bad =
    Core.Instance.restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 0 |] ~setups:[| 1.0 |]
  in
  Alcotest.(check bool) "non-uniform restriction" false
    (Core.Instance.restrict_class_uniform r_bad);
  let cu =
    Core.Instance.unrelated
      ~p:[| [| 2.0; 2.0; 7.0 |]; [| 3.0; 3.0; 1.0 |] |]
      ~job_class:[| 0; 0; 1 |] ~setups:[| 1.0; 1.0 |]
      ()
  in
  Alcotest.(check bool) "class-uniform ptimes" true
    (Core.Instance.class_uniform_ptimes cu);
  Alcotest.(check bool) "fixture not class-uniform" false
    (Core.Instance.class_uniform_ptimes (unrelated_fixture ()))

let test_induced () =
  let t = uniform_fixture () in
  let sub = Core.Instance.induced t [ 2; 0; 2 ] in
  Alcotest.(check int) "two jobs" 2 (Core.Instance.num_jobs sub);
  Alcotest.(check int) "classes preserved" 2 (Core.Instance.num_classes sub);
  check_float "size of kept job" 4.0 sub.Core.Instance.sizes.(0);
  check_float "size of second kept job" 6.0 sub.Core.Instance.sizes.(1);
  Alcotest.(check int) "class stable" 1 sub.Core.Instance.job_class.(1);
  Alcotest.(check bool) "empty selection rejected" true
    (try
       ignore (Core.Instance.induced t []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "range checked" true
    (try
       ignore (Core.Instance.induced t [ 9 ]);
       false
     with Invalid_argument _ -> true)

let test_append_jobs () =
  let open Core.Instance in
  let t = uniform_fixture () in
  let t' =
    append_jobs t
      [ { nsize = 5.0; nclass = 1; nptimes = None; neligible = None } ]
  in
  Alcotest.(check int) "one more job" 5 (num_jobs t');
  Alcotest.(check int) "classes unchanged" 2 (num_classes t');
  check_float "new job size" 5.0 t'.sizes.(4);
  Alcotest.(check int) "new job class" 1 t'.job_class.(4);
  check_float "fast machine ptime" 2.5 (ptime t' 1 4);
  check_float "old jobs untouched" (ptime t 0 2) (ptime t' 0 2);
  Alcotest.(check int) "original not mutated" 4 (num_jobs t);
  let invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty list rejected" true
    (invalid (fun () -> append_jobs t []));
  Alcotest.(check bool) "unknown class rejected" true
    (invalid (fun () ->
         append_jobs t
           [ { nsize = 1.0; nclass = 9; nptimes = None; neligible = None } ]));
  Alcotest.(check bool) "ptimes rejected off unrelated" true
    (invalid (fun () ->
         append_jobs t
           [
             {
               nsize = 1.0;
               nclass = 0;
               nptimes = Some [| 1.0; 1.0 |];
               neligible = None;
             };
           ]))

let test_append_jobs_matrix_envs () =
  let open Core.Instance in
  let r =
    restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 1 |] ~setups:[| 5.0; 6.0 |]
  in
  let r' =
    append_jobs r
      [
        {
          nsize = 3.0;
          nclass = 0;
          nptimes = None;
          neligible = Some [| false; true |];
        };
        { nsize = 4.0; nclass = 1; nptimes = None; neligible = None };
      ]
  in
  Alcotest.(check int) "restricted grows" 4 (num_jobs r');
  check_float "explicit eligibility" infinity (ptime r' 0 2);
  check_float "explicit eligibility on" 3.0 (ptime r' 1 2);
  check_float "default eligible everywhere" 4.0 (ptime r' 0 3);
  (* appending a class-0 job to machine 1 makes class 0's setup finite
     there: the derived setup view follows the new column *)
  check_float "setup follows new job" 5.0 (setup_time r' 1 0);
  let u = unrelated_fixture () in
  let u' =
    append_jobs u
      [
        {
          nsize = 0.0;
          nclass = 0;
          nptimes = Some [| 7.0; infinity |];
          neligible = None;
        };
      ]
  in
  check_float "ptimes column" 7.0 (ptime u' 0 3);
  check_float "ptimes column inf" infinity (ptime u' 1 3);
  check_float "derived base size" 7.0 u'.sizes.(3);
  let invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unrelated needs ptimes" true
    (invalid (fun () ->
         append_jobs u
           [ { nsize = 1.0; nclass = 0; nptimes = None; neligible = None } ]));
  Alcotest.(check bool) "eligible length checked" true
    (invalid (fun () ->
         append_jobs r
           [
             {
               nsize = 1.0;
               nclass = 0;
               nptimes = None;
               neligible = Some [| true |];
             };
           ]))

let test_induced_restricted () =
  let t =
    Core.Instance.restricted
      ~eligible:[| [| true; false |]; [| false; true |] |]
      ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 1 |] ~setups:[| 5.0; 6.0 |]
  in
  let sub = Core.Instance.induced t [ 1 ] in
  check_float "eligibility follows the job" infinity
    (Core.Instance.ptime sub 0 0);
  check_float "kept machine" 2.0 (Core.Instance.ptime sub 1 0)

(* --- Schedule ---------------------------------------------------------- *)

let test_schedule_loads () =
  let t = uniform_fixture () in
  (* both class-0 jobs on machine 0; both class-1 jobs on machine 1 *)
  let s = Core.Schedule.make t [| 0; 0; 1; 1 |] in
  (* machine 0: jobs 4+2 plus setup 3 -> 9; machine 1: (6+2)/2 + 1/2 = 4.5 *)
  check_float "load 0" 9.0 (Core.Schedule.load s 0);
  check_float "load 1" 4.5 (Core.Schedule.load s 1);
  check_float "makespan" 9.0 (Core.Schedule.makespan s);
  Alcotest.(check int) "setups" 2 (Core.Schedule.num_setups s);
  Alcotest.(check (list int)) "jobs of machine" [ 0; 1 ]
    (Core.Schedule.jobs_of_machine s 0);
  Alcotest.(check (list int)) "classes of machine" [ 1 ]
    (Core.Schedule.classes_of_machine s 1)

let test_schedule_setup_counted_once () =
  let t = uniform_fixture () in
  (* split classes across machines: every machine pays both setups *)
  let s = Core.Schedule.make t [| 0; 1; 0; 1 |] in
  Alcotest.(check int) "setups" 4 (Core.Schedule.num_setups s);
  (* machine 0: 4 + 6 + 3 + 1 = 14 *)
  check_float "load 0" 14.0 (Core.Schedule.load s 0);
  (* machine 1: (2 + 2)/2 + (3 + 1)/2 = 4 *)
  check_float "load 1" 4.0 (Core.Schedule.load s 1)

let test_schedule_validation () =
  let t = unrelated_fixture () in
  Alcotest.(check bool) "ineligible rejected" true
    (try
       ignore (Core.Schedule.make t [| 0; 1; 0 |]);
       false
     with Invalid_argument _ -> true);
  let s = Core.Schedule.make t [| 0; 1; 1 |] in
  Alcotest.(check bool) "valid" true (Core.Schedule.is_valid t s);
  Alcotest.(check bool) "range checked" true
    (try
       ignore (Core.Schedule.make t [| 0; 1; 7 |]);
       false
     with Invalid_argument _ -> true)

let test_schedule_empty_machine () =
  let t = uniform_fixture () in
  let s = Core.Schedule.make t [| 0; 0; 0; 0 |] in
  check_float "empty machine load" 0.0 (Core.Schedule.load s 1);
  (* machine 0 pays both setups: 4+2+6+2 + 3+1 = 18 *)
  check_float "loaded machine" 18.0 (Core.Schedule.load s 0)

(* --- Bounds ------------------------------------------------------------ *)

let test_bounds_uniform () =
  let t = uniform_fixture () in
  (* job_bound: job 0 best on machine 1: (4+3)/2 = 3.5; job 2: (6+1)/2=3.5 *)
  check_float "job bound" 3.5 (Core.Bounds.job_bound t);
  (* volume: (14 + 4) / 3 = 6 *)
  check_float "volume bound" 6.0 (Core.Bounds.volume_bound t);
  check_float "lower bound" 6.0 (Core.Bounds.lower_bound t);
  Alcotest.(check bool) "upper >= lower" true
    (Core.Bounds.naive_upper_bound t >= Core.Bounds.lower_bound t)

let test_bounds_unrelated () =
  let t = unrelated_fixture () in
  (* job 2 must run on machine 1: 5 + 3 = 8 *)
  check_float "job bound" 8.0 (Core.Bounds.job_bound t);
  Alcotest.(check bool) "volume bound positive" true
    (Core.Bounds.volume_bound t > 0.0)

let test_class_bound () =
  (* one class of 4 unit jobs with setup 10 on 4 identical machines:
     spreading pays 4 setups, so OPT = 11; the class bound finds it *)
  let t =
    Core.Instance.identical ~num_machines:4
      ~sizes:[| 1.0; 1.0; 1.0; 1.0 |]
      ~job_class:[| 0; 0; 0; 0 |]
      ~setups:[| 10.0 |]
  in
  check_float "class bound" 11.0 (Core.Bounds.class_bound t);
  check_float "dominates volume" 11.0 (Core.Bounds.lower_bound t);
  (* volume bound alone is much weaker *)
  check_float "volume" 3.5 (Core.Bounds.volume_bound t)

let test_class_bound_restricted () =
  let t =
    Core.Instance.restricted
      ~eligible:[| [| true; true |]; [| true; true |] |]
      ~sizes:[| 4.0; 4.0 |] ~job_class:[| 0; 0 |] ~setups:[| 6.0 |]
  in
  (* min_setup + work/m = 6 + 8/2 = 10 *)
  check_float "restricted class bound" 10.0 (Core.Bounds.class_bound t)

let test_bounds_sandwich_optimal () =
  (* enumerate all schedules of the fixture; bounds must sandwich OPT *)
  let t = uniform_fixture () in
  let best = ref infinity in
  for a = 0 to 1 do
    for b = 0 to 1 do
      for c = 0 to 1 do
        for d = 0 to 1 do
          let s = Core.Schedule.make t [| a; b; c; d |] in
          if Core.Schedule.makespan s < !best then
            best := Core.Schedule.makespan s
        done
      done
    done
  done;
  Alcotest.(check bool) "lower_bound <= OPT" true
    (Core.Bounds.lower_bound t <= !best +. 1e-9);
  Alcotest.(check bool) "OPT <= naive upper" true
    (!best <= Core.Bounds.naive_upper_bound t +. 1e-9)

(* --- Binary search ----------------------------------------------------- *)

let test_binary_search_basic () =
  let target = 7.3 in
  let probe t = if t >= target then Some t else None in
  match
    Core.Binary_search.min_feasible ~lo:1.0 ~hi:100.0 ~rel_tol:0.001 probe
  with
  | None -> Alcotest.fail "expected feasible"
  | Some (t, w) ->
      Alcotest.(check bool) "witness from probe" true (w = t);
      Alcotest.(check bool) "close to target" true
        (t >= target && t <= target *. 1.002)

let test_binary_search_infeasible () =
  let probe _ = None in
  Alcotest.(check bool) "infeasible" true
    (Core.Binary_search.min_feasible ~lo:1.0 ~hi:10.0 ~rel_tol:0.01 probe
    = None)

let test_binary_search_all_feasible () =
  let probe t = Some t in
  match
    Core.Binary_search.min_feasible ~lo:2.0 ~hi:10.0 ~rel_tol:0.01 probe
  with
  | None -> Alcotest.fail "expected feasible"
  | Some (t, _) ->
      Alcotest.(check bool) "converges to lo" true (t <= 2.0 *. 1.02)

let test_binary_search_validation () =
  Alcotest.(check bool) "bad args rejected" true
    (try
       ignore
         (Core.Binary_search.min_feasible ~lo:5.0 ~hi:1.0 ~rel_tol:0.1
            (fun _ -> None));
       false
     with Invalid_argument _ -> true)

let test_binary_search_probe_count () =
  Alcotest.(check bool) "probes bounded" true
    (Core.Binary_search.probes ~lo:1.0 ~hi:1000.0 ~rel_tol:0.01 < 50)

(* --- Instance_io ------------------------------------------------------- *)

let roundtrip name t =
  let text = Core.Instance_io.to_string t in
  let t' = Core.Instance_io.of_string text in
  Alcotest.(check int) (name ^ " jobs") (Core.Instance.num_jobs t)
    (Core.Instance.num_jobs t');
  Alcotest.(check int)
    (name ^ " machines")
    (Core.Instance.num_machines t)
    (Core.Instance.num_machines t');
  for i = 0 to Core.Instance.num_machines t - 1 do
    for j = 0 to Core.Instance.num_jobs t - 1 do
      check_float
        (Printf.sprintf "%s ptime %d %d" name i j)
        (Core.Instance.ptime t i j)
        (Core.Instance.ptime t' i j)
    done;
    for k = 0 to Core.Instance.num_classes t - 1 do
      check_float
        (Printf.sprintf "%s setup %d %d" name i k)
        (Core.Instance.setup_time t i k)
        (Core.Instance.setup_time t' i k)
    done
  done

let test_io_roundtrip_uniform () = roundtrip "uniform" (uniform_fixture ())

let test_io_roundtrip_unrelated () =
  roundtrip "unrelated" (unrelated_fixture ())

let test_io_roundtrip_identical () =
  roundtrip "identical"
    (Core.Instance.identical ~num_machines:3 ~sizes:[| 1.0; 2.5 |]
       ~job_class:[| 0; 1 |] ~setups:[| 0.5; 4.0 |])

let test_io_roundtrip_restricted () =
  roundtrip "restricted"
    (Core.Instance.restricted
       ~eligible:[| [| true; false |]; [| true; true |] |]
       ~sizes:[| 1.0; 2.0 |] ~job_class:[| 0; 1 |] ~setups:[| 1.0; 2.0 |])

let test_io_roundtrip_setup_matrix () =
  roundtrip "setup-matrix"
    (Core.Instance.unrelated
       ~setup_matrix:[| [| 1.0; infinity |]; [| 0.5; 2.0 |] |]
       ~p:[| [| 1.0 |]; [| 2.0 |] |]
       ~job_class:[| 1 |] ~setups:[| 9.0; 9.0 |]
       ())

let test_io_parse_errors () =
  let bad name text =
    Alcotest.(check bool) name true
      (try
         ignore (Core.Instance_io.of_string text);
         false
       with Core.Instance_io.Parse_error _ -> true)
  in
  bad "empty" "";
  bad "unknown keyword" "env identical\nbogus 3\n";
  bad "bad env" "env martian\n";
  bad "bad number" "env identical\nmachines 1\nclasses 1\nsetups x\n";
  bad "missing job_class"
    "env identical\nmachines 1\nclasses 1\nsetups 1\njobs 1\nsizes 1\n";
  bad "wrong row width"
    "env unrelated\nmachines 2\nclasses 1\nsetups 1\njobs 2\n\
     job_class 0 0\nptimes\n1 2\n3\n"

let test_io_structured_errors () =
  let err name text check =
    match Core.Instance_io.of_string_result text with
    | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")
    | Error e -> check e
  in
  (* truncated block: the error names the block's header line and field *)
  err "truncated ptimes"
    "env unrelated\nmachines 3\nclasses 1\nsetups 1\njobs 2\n\
     job_class 0 0\nptimes\n1 2\n"
    (fun e ->
      Alcotest.(check (option int)) "line of header" (Some 7)
        e.Core.Instance_io.line;
      Alcotest.(check (option string)) "field" (Some "ptimes")
        e.Core.Instance_io.field;
      Alcotest.(check bool) "says truncated" true
        (Astring.String.is_infix ~affix:"truncated"
           e.Core.Instance_io.message));
  (* negative times are rejected at the offending line, not deep inside
     the constructor *)
  err "negative setup"
    "env identical\nmachines 1\nclasses 2\nsetups 3 -1\njobs 1\nsizes 1\n\
     job_class 0\n"
    (fun e ->
      Alcotest.(check (option int)) "line" (Some 4) e.Core.Instance_io.line;
      Alcotest.(check (option string)) "field" (Some "setups")
        e.Core.Instance_io.field);
  err "negative size"
    "env identical\nmachines 1\nclasses 1\nsetups 1\njobs 2\nsizes 5 -2\n\
     job_class 0 0\n"
    (fun e ->
      Alcotest.(check (option int)) "line" (Some 6) e.Core.Instance_io.line;
      Alcotest.(check (option string)) "field" (Some "sizes")
        e.Core.Instance_io.field);
  (* out-of-range class id names the job_class line *)
  err "class id out of range"
    "env identical\nmachines 1\nclasses 2\nsetups 1 1\njobs 2\nsizes 1 1\n\
     job_class 0 5\n"
    (fun e ->
      Alcotest.(check (option int)) "line" (Some 7) e.Core.Instance_io.line;
      Alcotest.(check (option string)) "field" (Some "job_class")
        e.Core.Instance_io.field;
      Alcotest.(check bool) "names range" true
        (Astring.String.is_infix ~affix:"out of range"
           e.Core.Instance_io.message));
  (* error_to_string folds line and field into the rendered message *)
  err "rendering"
    "env identical\nmachines 1\nclasses 1\nsetups -9\njobs 1\nsizes 1\n\
     job_class 0\n"
    (fun e ->
      let rendered = Core.Instance_io.error_to_string e in
      Alcotest.(check bool) "has line" true
        (Astring.String.is_infix ~affix:"line 4" rendered);
      Alcotest.(check bool) "has field" true
        (Astring.String.is_infix ~affix:"setups" rendered))

let test_io_comments_and_inf () =
  let t =
    Core.Instance_io.of_string
      "# header\nenv unrelated\nmachines 1 # trailing\nclasses 1\nsetups 2\n\
       jobs 2\njob_class 0 0\nptimes\n1 inf\n"
  in
  check_float "inf parsed" infinity (Core.Instance.ptime t 0 1)

let test_io_file_roundtrip () =
  let t = uniform_fixture () in
  let path = Filename.temp_file "sched" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Core.Instance_io.to_file path t;
      let t' = Core.Instance_io.of_file path in
      check_float "ptime preserved" (Core.Instance.ptime t 1 2)
        (Core.Instance.ptime t' 1 2))

(* The printer must match the Printf reference byte for byte, on all
   four environments, with and without a setup matrix, over values that
   exercise every branch of %.17g. *)
let awkward_times =
  [| 0.0; -0.0; 0.1; 1e-300; 1e16; 1e17; 0x1p53; 1e300; 99999999999999984.0 |]

let gen_time st =
  match Random.State.int st 4 with
  | 0 -> awkward_times.(Random.State.int st (Array.length awkward_times))
  | 1 -> float_of_int (Random.State.int st 1000)
  | 2 -> Random.State.float st 100.0
  | _ -> ldexp (Random.State.float st 1.0) (Random.State.int st 140 - 70)

let gen_ptime st = if Random.State.int st 6 = 0 then infinity else gen_time st

let rec gen_speed st =
  let v = gen_time st in
  if v > 0.0 then v else gen_speed st

let gen_instance st =
  let module I = Core.Instance in
  let n = 1 + Random.State.int st 6 in
  let m = 1 + Random.State.int st 4 in
  let k = 1 + Random.State.int st 3 in
  let job_class = Array.init n (fun _ -> Random.State.int st k) in
  let setups = Array.init k (fun _ -> gen_time st) in
  let sizes = Array.init n (fun _ -> gen_time st) in
  let matrix cols gen = Array.init m (fun _ -> Array.init cols (fun _ -> gen st)) in
  match Random.State.int st 5 with
  | 0 -> I.identical ~num_machines:m ~sizes ~job_class ~setups
  | 1 -> I.uniform ~speeds:(Array.init m (fun _ -> gen_speed st)) ~sizes ~job_class ~setups
  | 2 -> I.restricted ~eligible:(matrix n Random.State.bool) ~sizes ~job_class ~setups
  | 3 -> I.unrelated ~p:(matrix n gen_ptime) ~job_class ~setups ()
  | _ ->
      I.unrelated ~setup_matrix:(matrix k gen_ptime) ~p:(matrix n gen_ptime)
        ~job_class ~setups ()

let prop_printer_matches_reference =
  QCheck.Test.make ~name:"printer matches the Printf reference" ~count:500
    (QCheck.make ~print:Instance_io_ref.to_string gen_instance)
    (fun t -> String.equal (Core.Instance_io.to_string t) (Instance_io_ref.to_string t))

let () =
  Alcotest.run "core"
    [
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "identical" `Quick test_instance_identical;
          Alcotest.test_case "restricted" `Quick test_instance_restricted;
          Alcotest.test_case "unrelated" `Quick test_instance_unrelated;
          Alcotest.test_case "setup matrix" `Quick test_instance_setup_matrix;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "scale setups" `Quick test_scale_setups;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "induced restricted" `Quick
            test_induced_restricted;
          Alcotest.test_case "append jobs" `Quick test_append_jobs;
          Alcotest.test_case "append jobs matrix envs" `Quick
            test_append_jobs_matrix_envs;
          Alcotest.test_case "class-uniform predicates" `Quick
            test_class_uniform_predicates;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "loads" `Quick test_schedule_loads;
          Alcotest.test_case "setup counted once" `Quick
            test_schedule_setup_counted_once;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "empty machine" `Quick test_schedule_empty_machine;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "uniform" `Quick test_bounds_uniform;
          Alcotest.test_case "unrelated" `Quick test_bounds_unrelated;
          Alcotest.test_case "class bound" `Quick test_class_bound;
          Alcotest.test_case "class bound restricted" `Quick
            test_class_bound_restricted;
          Alcotest.test_case "sandwich optimal" `Quick
            test_bounds_sandwich_optimal;
        ] );
      ( "binary search",
        [
          Alcotest.test_case "basic" `Quick test_binary_search_basic;
          Alcotest.test_case "infeasible" `Quick test_binary_search_infeasible;
          Alcotest.test_case "all feasible" `Quick
            test_binary_search_all_feasible;
          Alcotest.test_case "validation" `Quick test_binary_search_validation;
          Alcotest.test_case "probe count" `Quick
            test_binary_search_probe_count;
        ] );
      ( "instance io",
        [
          Alcotest.test_case "roundtrip uniform" `Quick
            test_io_roundtrip_uniform;
          Alcotest.test_case "roundtrip unrelated" `Quick
            test_io_roundtrip_unrelated;
          Alcotest.test_case "roundtrip identical" `Quick
            test_io_roundtrip_identical;
          Alcotest.test_case "roundtrip restricted" `Quick
            test_io_roundtrip_restricted;
          Alcotest.test_case "roundtrip setup matrix" `Quick
            test_io_roundtrip_setup_matrix;
          Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
          Alcotest.test_case "structured errors" `Quick
            test_io_structured_errors;
          Alcotest.test_case "comments and inf" `Quick
            test_io_comments_and_inf;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_printer_matches_reference;
        ] );
    ]
