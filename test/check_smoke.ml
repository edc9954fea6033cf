(* End-to-end smoke of lib/check, run as part of `dune runtest` via the
   @check-smoke alias:

   1. replay every committed reproducer in test/corpus (a regression
      there means a historical bug is back);
   2. a deterministic clean fuzz burst over all four environments must
      find zero violations, and every warm LP verdict in it must pass its
      checks (no cold fallback);
   3. the checker must still be able to catch bugs: a deliberately
      broken algorithm (Props.mutant) is fuzzed, must be caught, must
      shrink to a handful of jobs, and its written reproducer must
      replay from disk. *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let replay_committed_corpus () =
  let entries = Check.Corpus.load_dir "corpus" in
  check "committed corpus is not empty" (entries <> []);
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error msg ->
          check (Printf.sprintf "load %s (%s)" path msg) false
      | Ok entry ->
          let vs = Check.Corpus.replay entry in
          List.iter
            (fun v -> Printf.printf "     %s\n" (Check.Violation.to_string v))
            vs;
          check (Printf.sprintf "replay %s" (Filename.basename path)) (vs = []))
    entries

let clean_fuzz_burst () =
  let cfg =
    { Check.Driver.default with budget = Check.Driver.Cases 120; seed = 20260805 }
  in
  let fallbacks = Obs.Counter.make "lp.simplex.warm_fallbacks" in
  let fallbacks_before = Obs.Counter.value fallbacks in
  let s = Check.Driver.run cfg in
  (* every warm ILP-UM verdict of the burst passed its own checks *)
  check "no warm LP verdict fell back to a cold solve"
    (Obs.Counter.value fallbacks = fallbacks_before);
  List.iter
    (fun (f : Check.Driver.failure) ->
      List.iter
        (fun v -> Printf.printf "     %s\n" (Check.Violation.to_string v))
        f.Check.Driver.violations)
    s.Check.Driver.failures;
  check
    (Printf.sprintf "clean fuzz burst (%d cases, %d violations)"
       s.Check.Driver.cases s.Check.Driver.violations)
    (s.Check.Driver.cases = 120 && s.Check.Driver.violations = 0)

let mutant_is_caught () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "check-smoke-corpus" in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let registry = Check.Props.mutant :: Check.Props.registry () in
  let cfg =
    {
      Check.Driver.default with
      budget = Check.Driver.Cases 40;
      seed = 77;
      algo_filter = [ "mutant-stack" ];
      corpus_dir = Some dir;
    }
  in
  let s = Check.Driver.run ~registry cfg in
  check "mutant caught" (s.Check.Driver.failures <> []);
  check "every failure shrunk to <= 6 jobs"
    (List.for_all
       (fun (f : Check.Driver.failure) ->
         Core.Instance.num_jobs f.Check.Driver.shrunk <= 6)
       s.Check.Driver.failures);
  let entries = Check.Corpus.load_dir dir in
  check "reproducers written" (entries <> []);
  check "reproducers replay from the corpus"
    (List.for_all
       (fun (_, loaded) ->
         match loaded with
         | Error _ -> false
         | Ok entry -> Check.Corpus.replay ~registry entry <> [])
       entries);
  (* the corpus writes and shrink steps must have surfaced in check.* *)
  let counter name =
    match Obs.Counter.find name with
    | Some c -> Obs.Counter.value c
    | None -> 0
  in
  check "check.cases counted" (counter "check.cases" > 0);
  check "check.violations counted" (counter "check.violations" > 0);
  check "check.shrink_steps counted" (counter "check.shrink_steps" > 0);
  check "check.corpus_writes counted" (counter "check.corpus_writes" > 0)

let () =
  replay_committed_corpus ();
  clean_fuzz_burst ();
  mutant_is_caught ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "check smoke passed"
