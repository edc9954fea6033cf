(* Tests for lib/check: the violation helpers, oracles, property
   registry, metamorphic relations, shrinker, corpus and fuzz driver. *)

module I = Core.Instance
module R = Workloads.Rng

let identical_small () =
  I.identical ~num_machines:2
    ~sizes:[| 4.0; 3.0; 3.0; 2.0 |]
    ~job_class:[| 0; 1; 0; 1 |] ~setups:[| 1.0; 2.0 |]

(* machine 0 is ineligible for class-1 jobs: the stacking mutant must
   trip schedule-valid here *)
let restricted_small () =
  I.restricted
    ~eligible:[| [| true; true; false |]; [| false; true; true |] |]
    ~sizes:[| 5.0; 4.0; 3.0 |]
    ~job_class:[| 0; 1; 1 |] ~setups:[| 1.0; 1.0 |]

let unrelated_with_inf () =
  I.unrelated
    ~p:[| [| 2.0; infinity; 4.0 |]; [| 3.0; 5.0; infinity |] |]
    ~job_class:[| 0; 1; 0 |] ~setups:[| 1.0; 2.0 |]
    ~setup_matrix:[| [| 1.0; infinity |]; [| 2.0; 3.0 |] |]
    ()

let bigger_identical seed n =
  Workloads.Gen.identical (R.create seed) ~n ~m:3 ~k:3 ()

(* --- Violation ------------------------------------------------------------ *)

let test_violation_tolerances () =
  Alcotest.(check bool) "leq strict" true (Check.Violation.leq 1.0 2.0);
  Alcotest.(check bool) "leq with slack" true
    (Check.Violation.leq (1.0 +. 1e-9) 1.0);
  Alcotest.(check bool) "leq violated" false (Check.Violation.leq 1.1 1.0);
  Alcotest.(check bool) "leq infinity" true (Check.Violation.leq 1.0 infinity);
  Alcotest.(check bool) "approx_eq inf" true
    (Check.Violation.approx_eq infinity infinity);
  Alcotest.(check bool) "approx_eq near" true
    (Check.Violation.approx_eq 100.0 (100.0 +. 1e-8));
  Alcotest.(check bool) "approx_eq far" false
    (Check.Violation.approx_eq 100.0 101.0);
  let v = Check.Violation.v ~algo:"a" ~prop:"p" "x=%d" 3 in
  Alcotest.(check string) "to_string" "a/p: x=3" (Check.Violation.to_string v)

(* --- Oracle --------------------------------------------------------------- *)

let test_oracle_exact_path () =
  let o = Check.Oracle.compute (identical_small ()) in
  Alcotest.(check bool) "opt proven" true (Option.is_some o.Check.Oracle.opt);
  Alcotest.(check (list string)) "self-consistent" []
    (List.map Check.Violation.to_string (Check.Oracle.consistent o));
  let opt = Option.get o.Check.Oracle.opt in
  Alcotest.(check bool) "lb <= opt" true (o.Check.Oracle.lb <= opt +. 1e-9);
  Alcotest.(check bool) "opt <= ub" true (opt <= o.Check.Oracle.ub +. 1e-9)

let test_oracle_bounds_path () =
  let o = Check.Oracle.compute ~exact_job_limit:2 (bigger_identical 3 20) in
  Alcotest.(check bool) "no opt claimed" true (o.Check.Oracle.opt = None);
  Alcotest.(check int) "no nodes spent" 0 o.Check.Oracle.nodes;
  Alcotest.(check (list string)) "self-consistent" []
    (List.map Check.Violation.to_string (Check.Oracle.consistent o));
  Alcotest.(check bool) "sandwich" true
    (o.Check.Oracle.lb <= o.Check.Oracle.ub +. 1e-9);
  Alcotest.(check bool) "describe nonempty" true
    (String.length (Check.Oracle.describe o) > 0)

(* --- Props ---------------------------------------------------------------- *)

let test_registry_names () =
  let registry = Check.Props.registry () in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("registry has " ^ name) true
        (Check.Props.find ~name registry <> None))
    [
      "greedy"; "greedy-longest"; "greedy-by-class"; "greedy-input";
      "lpt-placeholders"; "lpt"; "oblivious-lpt"; "batch-lpt"; "ptas";
      "rounding"; "ra2"; "ra-2approx"; "cu3"; "cu-3approx"; "portfolio";
    ];
  Alcotest.(check bool) "mutant not registered" false
    (Check.Props.find ~name:Check.Props.mutant.Check.Props.name registry
    <> None)

let test_all_algos_clean_on_small_instance () =
  let t = identical_small () in
  let oracle = Check.Oracle.compute t in
  List.iter
    (fun algo ->
      Alcotest.(check (list string))
        (algo.Check.Props.name ^ " clean")
        []
        (List.map Check.Violation.to_string
           (Check.Props.check_algo ~oracle ~seed:1 t algo)))
    (Check.Props.registry ())

let test_mutant_trips_schedule_valid () =
  let t = restricted_small () in
  let oracle = Check.Oracle.compute t in
  let vs = Check.Props.check_algo ~oracle ~seed:1 t Check.Props.mutant in
  Alcotest.(check bool) "violations found" true (vs <> []);
  Alcotest.(check bool) "schedule-valid among them" true
    (List.exists (fun v -> v.Check.Violation.prop = "schedule-valid") vs)

let test_mutant_trips_ratio_bound () =
  (* two equal jobs, two machines: opt splits, the mutant stacks *)
  let t =
    I.identical ~num_machines:2 ~sizes:[| 10.0; 10.0 |] ~job_class:[| 0; 0 |]
      ~setups:[| 1.0 |]
  in
  let oracle = Check.Oracle.compute t in
  let vs = Check.Props.check_algo ~oracle ~seed:1 t Check.Props.mutant in
  Alcotest.(check bool) "ratio-bound tripped" true
    (List.exists (fun v -> v.Check.Violation.prop = "ratio-bound") vs)

let test_io_roundtrip_with_inf () =
  (* regression: "inf" entries in unrelated/restricted instances must
     survive print -> parse -> print unchanged *)
  Alcotest.(check (list string)) "unrelated with inf" []
    (List.map Check.Violation.to_string
       (Check.Props.check_io_roundtrip (unrelated_with_inf ())));
  Alcotest.(check (list string)) "restricted" []
    (List.map Check.Violation.to_string
       (Check.Props.check_io_roundtrip (restricted_small ())))

(* --- Portfolio invariants ------------------------------------------------- *)

let portfolio_never_worse t =
  let report = Algos.Portfolio.run ~seed:1 t in
  let best_member =
    List.fold_left
      (fun acc (_, ms) -> Float.min acc ms)
      infinity report.Algos.Portfolio.all
  in
  Alcotest.(check bool) "portfolio <= best member" true
    (Check.Violation.leq
       report.Algos.Portfolio.best.Algos.Common.makespan
       best_member)

let test_portfolio_exact_oracle () =
  let t = identical_small () in
  portfolio_never_worse t;
  let oracle = Check.Oracle.compute t in
  Alcotest.(check bool) "exact oracle in play" true
    (Option.is_some oracle.Check.Oracle.opt);
  let algo =
    Option.get (Check.Props.find ~name:"portfolio" (Check.Props.registry ()))
  in
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Check.Violation.to_string
       (Check.Props.check_algo ~oracle ~seed:1 t algo))

let test_portfolio_bounds_oracle () =
  let t = bigger_identical 11 18 in
  portfolio_never_worse t;
  let oracle = Check.Oracle.compute ~exact_job_limit:2 t in
  Alcotest.(check bool) "bounds oracle in play" true
    (oracle.Check.Oracle.opt = None);
  let algo =
    Option.get (Check.Props.find ~name:"portfolio" (Check.Props.registry ()))
  in
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Check.Violation.to_string
       (Check.Props.check_algo ~oracle ~seed:1 t algo))

(* --- Metamorph ------------------------------------------------------------ *)

let test_scale_times () =
  let t = identical_small () in
  let t2 = Check.Metamorph.scale_times t 4.0 in
  Alcotest.(check (float 1e-9)) "sizes scaled" 16.0 t2.I.sizes.(0);
  Alcotest.(check (float 1e-9)) "setups scaled" 4.0 t2.I.setups.(0);
  let lb = Core.Bounds.lower_bound t in
  let lb2 = Core.Bounds.lower_bound t2 in
  Alcotest.(check (float 1e-9)) "lower bound equivariant" (4.0 *. lb) lb2

let test_metamorph_clean () =
  List.iter
    (fun t ->
      let oracle = Check.Oracle.compute t in
      Alcotest.(check (list string)) "no metamorphic violations" []
        (List.map Check.Violation.to_string
           (Check.Metamorph.check ~rng:(R.create 5) ~oracle ~seed:5
              ~exact_job_limit:9 t
              (List.filter
                 (fun a -> a.Check.Props.cost = Check.Props.Cheap)
                 (Check.Props.registry ())))))
    [
      identical_small ();
      restricted_small ();
      unrelated_with_inf ();
      Workloads.Gen.uniform (R.create 8) ~n:7 ~m:3 ~k:2 ();
    ]

let test_metamorph_add_job_monotone () =
  (* positive: cloning any job never lowers the certified lower bound or
     a proven optimum, across every environment *)
  List.iter
    (fun t ->
      let oracle = Check.Oracle.compute t in
      for trial = 1 to 8 do
        Alcotest.(check (list string))
          (Printf.sprintf "add-job clean trial %d" trial)
          []
          (List.map Check.Violation.to_string
             (Check.Metamorph.check_add_job
                ~rng:(R.create (40 + trial))
                ~oracle ~exact_job_limit:9 t))
      done)
    [
      identical_small ();
      restricted_small ();
      unrelated_with_inf ();
      Workloads.Gen.uniform (R.create 8) ~n:7 ~m:3 ~k:2 ();
    ];
  (* negative: an oracle claiming an absurdly high optimum must trip the
     monotonicity relation — proves the check can actually fire *)
  let t = identical_small () in
  let oracle = Check.Oracle.compute t in
  let lying = { oracle with Check.Oracle.opt = Some 1e9 } in
  let viols =
    Check.Metamorph.check_add_job ~rng:(R.create 3) ~oracle:lying
      ~exact_job_limit:9 t
  in
  Alcotest.(check bool) "violation fires" true
    (List.exists
       (fun (v : Check.Violation.t) -> v.Check.Violation.prop = "meta-addjob-opt")
       viols)

(* --- Shrink --------------------------------------------------------------- *)

let test_drop_machine () =
  let t =
    I.restricted
      ~eligible:
        [| [| true; true; false |]; [| true; true; true |]; [| false; false; true |] |]
      ~sizes:[| 5.0; 4.0; 3.0 |]
      ~job_class:[| 0; 1; 1 |] ~setups:[| 1.0; 1.0 |]
  in
  (* machine 1 covers everything, so machine 0 is droppable; machine 1
     is job 2's companion to machine 2 and dropping it strands nothing,
     but dropping both ends of restricted_small would *)
  (match Check.Shrink.drop_machine t 0 with
  | None -> Alcotest.fail "machine 0 should be droppable"
  | Some t' -> Alcotest.(check int) "machines" 2 (I.num_machines t'));
  (* in restricted_small each machine is some job's only host *)
  let t2 = restricted_small () in
  Alcotest.(check bool) "sole host not droppable" true
    (Check.Shrink.drop_machine t2 0 = None
    && Check.Shrink.drop_machine t2 1 = None);
  let one = I.identical ~num_machines:1 ~sizes:[| 1.0 |] ~job_class:[| 0 |]
      ~setups:[| 1.0 |] in
  Alcotest.(check bool) "last machine not droppable" true
    (Check.Shrink.drop_machine one 0 = None)

let test_merge_classes () =
  let t = identical_small () in
  match Check.Shrink.merge_classes t ~src:1 ~dst:0 with
  | None -> Alcotest.fail "merge should apply"
  | Some t' ->
      Alcotest.(check int) "classes" 1 (I.num_classes t');
      Alcotest.(check int) "jobs kept" 4 (I.num_jobs t');
      Array.iter
        (fun k -> Alcotest.(check int) "all class 0" 0 k)
        t'.I.job_class;
      Alcotest.(check bool) "src=dst rejected" true
        (Check.Shrink.merge_classes t ~src:0 ~dst:0 = None)

let test_coarsen_idempotent () =
  let t = Workloads.Gen.unrelated (R.create 9) ~n:8 ~m:3 ~k:2 () in
  let c1 = Check.Shrink.coarsen t in
  let c2 = Check.Shrink.coarsen c1 in
  Alcotest.(check string) "idempotent"
    (Core.Instance_io.to_string c1)
    (Core.Instance_io.to_string c2)

let test_shrink_to_predicate () =
  let t = bigger_identical 13 16 in
  let still_fails t' = I.num_jobs t' >= 3 in
  let shrunk, steps = Check.Shrink.shrink ~still_fails t in
  Alcotest.(check int) "minimal wrt predicate" 3 (I.num_jobs shrunk);
  Alcotest.(check bool) "steps counted" true (steps > 0);
  Alcotest.(check int) "machines dropped too" 1 (I.num_machines shrunk)

let test_shrink_predicate_exception_is_false () =
  let t = bigger_identical 17 10 in
  let still_fails t' =
    if I.num_jobs t' < 10 then failwith "crash" else true
  in
  let shrunk, _ = Check.Shrink.shrink ~still_fails t in
  Alcotest.(check int) "unshrunk" 10 (I.num_jobs shrunk)

(* --- Corpus --------------------------------------------------------------- *)

let test_corpus_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "check-corpus-test" in
  List.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []);
  let t = unrelated_with_inf () in
  let v =
    Check.Violation.v ~algo:"greedy" ~prop:"lb-sandwich" "made-up detail %d" 7
  in
  let path = Check.Corpus.write ~dir ~seed:99 v t in
  match Check.Corpus.load path with
  | Error e -> Alcotest.fail e
  | Ok entry ->
      Alcotest.(check string) "algo" "greedy" entry.Check.Corpus.algo;
      Alcotest.(check string) "prop" "lb-sandwich" entry.Check.Corpus.prop;
      Alcotest.(check int) "seed" 99 entry.Check.Corpus.seed;
      Alcotest.(check string) "detail" "made-up detail 7"
        entry.Check.Corpus.detail;
      Alcotest.(check string) "instance preserved"
        (Core.Instance_io.to_string t)
        (Core.Instance_io.to_string entry.Check.Corpus.instance);
      (* greedy is correct, so replaying this entry reports it fixed *)
      Alcotest.(check (list string)) "replays clean" []
        (List.map Check.Violation.to_string (Check.Corpus.replay entry));
      Alcotest.(check int) "load_dir sees it" 1
        (List.length (Check.Corpus.load_dir dir))

let test_corpus_unknown_algo () =
  let entry =
    {
      Check.Corpus.algo = "retired-solver";
      prop = "ratio-bound";
      seed = 1;
      detail = "";
      instance = identical_small ();
    }
  in
  match Check.Corpus.replay entry with
  | [ v ] ->
      Alcotest.(check string) "synthetic violation" "corpus-unknown-algo"
        v.Check.Violation.prop
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

(* --- Driver --------------------------------------------------------------- *)

let test_driver_clean_run () =
  let cfg =
    { Check.Driver.default with budget = Check.Driver.Cases 40; seed = 19 }
  in
  let s = Check.Driver.run cfg in
  Alcotest.(check int) "cases" 40 s.Check.Driver.cases;
  Alcotest.(check int) "violations" 0 s.Check.Driver.violations

let test_driver_deterministic_across_jobs () =
  let cfg =
    { Check.Driver.default with budget = Check.Driver.Cases 24; seed = 23 }
  in
  let s1 = Check.Driver.run cfg in
  let s2 = Check.Driver.run { cfg with jobs = 3 } in
  Alcotest.(check int) "same cases" s1.Check.Driver.cases s2.Check.Driver.cases;
  Alcotest.(check int) "same violations" s1.Check.Driver.violations
    s2.Check.Driver.violations

let test_driver_catches_and_shrinks_mutant () =
  let registry = Check.Props.mutant :: Check.Props.registry () in
  let cfg =
    {
      Check.Driver.default with
      budget = Check.Driver.Cases 30;
      seed = 29;
      algo_filter = [ "mutant-stack" ];
    }
  in
  let s = Check.Driver.run ~registry cfg in
  Alcotest.(check bool) "mutant caught" true (s.Check.Driver.failures <> []);
  List.iter
    (fun (f : Check.Driver.failure) ->
      Alcotest.(check bool) "shrunk to <= 6 jobs" true
        (I.num_jobs f.Check.Driver.shrunk <= 6);
      Alcotest.(check bool) "shrunk still smaller or equal" true
        (I.num_jobs f.Check.Driver.shrunk
        <= I.num_jobs f.Check.Driver.instance))
    s.Check.Driver.failures

let test_driver_env_filter () =
  let cfg =
    {
      Check.Driver.default with
      budget = Check.Driver.Cases 12;
      seed = 31;
      envs = [ Check.Driver.Restricted ];
    }
  in
  let s = Check.Driver.run cfg in
  Alcotest.(check int) "violations" 0 s.Check.Driver.violations;
  List.iter
    (fun (f : Check.Driver.failure) ->
      Alcotest.(check string) "env respected" "restricted" f.Check.Driver.env)
    s.Check.Driver.failures

let () =
  Alcotest.run "check"
    [
      ( "violation",
        [ Alcotest.test_case "tolerances" `Quick test_violation_tolerances ] );
      ( "oracle",
        [
          Alcotest.test_case "exact path" `Quick test_oracle_exact_path;
          Alcotest.test_case "bounds path" `Quick test_oracle_bounds_path;
        ] );
      ( "props",
        [
          Alcotest.test_case "registry names" `Quick test_registry_names;
          Alcotest.test_case "all clean on small" `Quick
            test_all_algos_clean_on_small_instance;
          Alcotest.test_case "mutant schedule-valid" `Quick
            test_mutant_trips_schedule_valid;
          Alcotest.test_case "mutant ratio-bound" `Quick
            test_mutant_trips_ratio_bound;
          Alcotest.test_case "io roundtrip inf" `Quick
            test_io_roundtrip_with_inf;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "exact oracle" `Quick test_portfolio_exact_oracle;
          Alcotest.test_case "bounds oracle" `Quick
            test_portfolio_bounds_oracle;
        ] );
      ( "metamorph",
        [
          Alcotest.test_case "scale_times" `Quick test_scale_times;
          Alcotest.test_case "clean instances" `Quick test_metamorph_clean;
          Alcotest.test_case "add-job monotonicity" `Quick
            test_metamorph_add_job_monotone;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "drop machine" `Quick test_drop_machine;
          Alcotest.test_case "merge classes" `Quick test_merge_classes;
          Alcotest.test_case "coarsen idempotent" `Quick
            test_coarsen_idempotent;
          Alcotest.test_case "shrinks to predicate" `Quick
            test_shrink_to_predicate;
          Alcotest.test_case "predicate exception" `Quick
            test_shrink_predicate_exception_is_false;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "unknown algo" `Quick test_corpus_unknown_algo;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean run" `Quick test_driver_clean_run;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_driver_deterministic_across_jobs;
          Alcotest.test_case "catches mutant" `Quick
            test_driver_catches_and_shrinks_mutant;
          Alcotest.test_case "env filter" `Quick test_driver_env_filter;
        ] );
    ]
