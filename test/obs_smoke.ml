(* @obs-smoke: end-to-end check of the Chrome-trace format, wired into
   `dune runtest`. Runs a tiny instrumented workload with tracing
   enabled, writes a Chrome trace from the phase ring, and validates it
   with Obs.Trace's own format checker — a regression in the trace
   serializer fails tier-1. *)

let () =
  Obs.Sink.enable ();
  let rng = Workloads.Rng.create 42 in
  let t = Workloads.Gen.uniform rng ~n:8 ~m:3 ~k:3 () in
  (* exercises B&B (exact), the dual-approximation binary search and the
     simplex (lp_um), so all three layers contribute events/counters *)
  let outcome = Algos.Exact.solve t in
  if not outcome.Algos.Exact.optimal then begin
    prerr_endline "obs-smoke: tiny exact solve should prove optimality";
    exit 1
  end;
  ignore (Algos.Lp_um.lower_bound t);
  if Obs.Counter.value (Obs.Counter.make "lp.simplex.solves") = 0 then begin
    prerr_endline "obs-smoke: simplex counters did not move";
    exit 1
  end;
  if Obs.Counter.value (Obs.Counter.make "algos.exact.nodes") = 0 then begin
    prerr_endline "obs-smoke: exact counters did not move";
    exit 1
  end;
  let file = Filename.temp_file "obs_smoke" ".json" in
  Obs.Trace.to_file file;
  match Obs.Trace.validate_file file with
  | Ok n when n > 0 ->
      Sys.remove file;
      Printf.printf "obs-smoke ok: %d trace events, %d simplex solves, %d B&B nodes\n"
        n
        (Obs.Counter.value (Obs.Counter.make "lp.simplex.solves"))
        (Obs.Counter.value (Obs.Counter.make "algos.exact.nodes"))
  | Ok _ ->
      Printf.eprintf "obs-smoke: trace is empty (%s)\n" file;
      exit 1
  | Error msg ->
      Printf.eprintf "obs-smoke: invalid trace (%s): %s\n" file msg;
      exit 1
