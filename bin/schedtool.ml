(* schedtool — command-line interface to the library: generate instances,
   compute bounds, solve with any algorithm, run experiments. *)

open Cmdliner

let read_instance path =
  try Ok (Core.Instance_io.of_file path) with
  | Core.Instance_io.Parse_error msg -> Error msg
  | Sys_error msg -> Error msg

(* --- gen ---------------------------------------------------------------- *)

let gen_cmd =
  let env_arg =
    let doc =
      "Environment: identical, uniform, unrelated, restricted (class-uniform \
       restrictions) or cu-ptimes (class-uniform processing times)."
    in
    Arg.(value & opt string "uniform" & info [ "env" ] ~docv:"ENV" ~doc)
  in
  let n_arg = Arg.(value & opt int 12 & info [ "n"; "jobs" ] ~doc:"Number of jobs.") in
  let m_arg = Arg.(value & opt int 4 & info [ "m"; "machines" ] ~doc:"Number of machines.") in
  let k_arg = Arg.(value & opt int 3 & info [ "k"; "classes" ] ~doc:"Number of setup classes.") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let size_arg =
    Arg.(value & opt (pair float float) (1.0, 100.0)
           & info [ "sizes" ] ~docv:"LO,HI" ~doc:"Job size range.")
  in
  let setup_arg =
    Arg.(value & opt (pair float float) (5.0, 50.0)
           & info [ "setups" ] ~docv:"LO,HI" ~doc:"Setup size range.")
  in
  let scale_arg =
    Arg.(value & opt float 1.0
           & info [ "setup-scale" ] ~docv:"X"
               ~doc:"Multiply all setup sizes by $(docv) after generation.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the instance to $(docv) (default: stdout).")
  in
  let run env n m k seed size_range setup_range scale out =
    let rng = Workloads.Rng.create seed in
    let build () =
      match env with
      | "identical" ->
          Ok (Workloads.Gen.identical rng ~n ~m ~k ~size_range ~setup_range ())
      | "uniform" ->
          Ok (Workloads.Gen.uniform rng ~n ~m ~k ~size_range ~setup_range ())
      | "unrelated" ->
          Ok (Workloads.Gen.unrelated rng ~n ~m ~k ~size_range ~setup_range ())
      | "restricted" ->
          Ok
            (Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ~size_range
               ~setup_range ())
      | "cu-ptimes" ->
          Ok
            (Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k
               ~ptime_range:size_range ~setup_range ())
      | other -> Error (Printf.sprintf "unknown environment %S" other)
    in
    let build () = Result.map (fun t -> Core.Instance.scale_setups t scale) (build ()) in
    match build () with
    | Error msg -> `Error (false, msg)
    | Ok instance -> (
        let text = Core.Instance_io.to_string instance in
        match out with
        | None ->
            print_string text;
            `Ok ()
        | Some path ->
            Core.Instance_io.to_file path instance;
            Printf.printf "wrote %s\n" path;
            `Ok ())
  in
  let info = Cmd.info "gen" ~doc:"Generate a random instance." in
  Cmd.v info
    Term.(
      ret
        (const run $ env_arg $ n_arg $ m_arg $ k_arg $ seed_arg $ size_arg
       $ setup_arg $ scale_arg $ out_arg))

(* --- bounds -------------------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE"
         ~doc:"Instance file (see Instance_io format).")

let bounds_cmd =
  let run path =
    match read_instance path with
    | Error msg -> `Error (false, msg)
    | Ok t ->
        Printf.printf "job bound      %g\n" (Core.Bounds.job_bound t);
        Printf.printf "volume bound   %g\n" (Core.Bounds.volume_bound t);
        Printf.printf "lower bound    %g\n" (Core.Bounds.lower_bound t);
        Printf.printf "naive upper    %g\n" (Core.Bounds.naive_upper_bound t);
        (try
           let b = Algos.Lp_um.lower_bound t in
           Printf.printf "LP lower bound %g (%d LP solves)\n"
             b.Algos.Lp_um.lower b.Algos.Lp_um.probes
         with Invalid_argument msg -> Printf.printf "LP lower bound n/a (%s)\n" msg);
        `Ok ()
  in
  let info = Cmd.info "bounds" ~doc:"Print makespan bounds for an instance." in
  Cmd.v info Term.(ret (const run $ file_arg))

(* --- observability flags -------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record solver spans and write a Chrome trace-event file to \
           $(docv) (open in chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print solver counters (and wall time) after the run.")

(* Returns a [finish] callback for the success path: stats footer first,
   then the trace file. Its result is the command's result, so an
   unwritable trace path surfaces as a CLI error, not a crash. Footers go
   to stderr so piped machine-readable stdout (CSV, schedules, the serve
   protocol) stays clean. *)
let obs_setup trace =
  if Option.is_some trace then Obs.Sink.enable ();
  let before = Obs.Counter.snapshot () in
  fun ~stats ->
    if stats then begin
      let table = Obs.Report.delta_table ~before in
      if Stats.Table.num_rows table > 0 then begin
        prerr_newline ();
        prerr_string (Stats.Table.to_string table);
        prerr_newline ()
      end
    end;
    match trace with
    | None -> `Ok ()
    | Some file -> (
        try
          Obs.Trace.to_file file;
          Printf.eprintf "wrote trace %s\n" file;
          `Ok ()
        with Sys_error msg ->
          `Error (false, Printf.sprintf "cannot write trace: %s" msg))

(* --- solve --------------------------------------------------------------- *)

let solve_cmd =
  let algo_arg =
    let doc =
      "Algorithm: greedy, lpt, oblivious-lpt, ptas, rounding, ra2, cu3, portfolio, exact."
    in
    Arg.(value & opt string "greedy" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let eps_arg =
    Arg.(value & opt float 0.5 & info [ "eps" ] ~doc:"Accuracy for the PTAS.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed for randomized algorithms.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full schedule.")
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.")
  in
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Write the schedule to $(docv).")
  in
  let run algo eps seed verbose gantt save trace stats path =
    match read_instance path with
    | Error msg -> `Error (false, msg)
    | Ok t -> (
        let finish = obs_setup trace in
        let exact_outcome = ref None in
        let solve () =
          match algo with
          | "greedy" -> Ok (Algos.List_scheduling.schedule t)
          | "lpt" -> Ok (Algos.Lpt.schedule t)
          | "oblivious-lpt" -> Ok (Algos.Lpt.setup_oblivious t)
          | "ptas" -> Ok (Algos.Uniform_ptas.schedule ~eps t)
          | "rounding" ->
              Ok (fst (Algos.Randomized_rounding.schedule
                         (Workloads.Rng.create seed) t))
          | "ra2" -> Ok (Algos.Ra_class_uniform.schedule t)
          | "cu3" -> Ok (Algos.Um_class_uniform.schedule t)
          | "portfolio" ->
              let report = Algos.Portfolio.run ~seed t in
              Printf.printf "winner: %s\n" report.Algos.Portfolio.winner;
              List.iter
                (fun (name, ms) -> Printf.printf "  %-18s %g\n" name ms)
                report.Algos.Portfolio.all;
              Ok report.Algos.Portfolio.best
          | "exact" ->
              let outcome = Algos.Exact.solve t in
              exact_outcome := Some outcome;
              if not outcome.Algos.Exact.optimal then
                Printf.eprintf "warning: node limit hit, result may be suboptimal\n";
              Ok outcome.Algos.Exact.result
          | other -> Error (Printf.sprintf "unknown algorithm %S" other)
        in
        let outcome, secs =
          Obs.Span.timed "schedtool.solve" (fun () ->
              try solve () with Invalid_argument m -> Error m)
        in
        match outcome with
        | Error msg -> `Error (false, msg)
        | Ok r ->
            Printf.printf "makespan %g\n" r.Algos.Common.makespan;
            if stats then begin
              Printf.eprintf "wall time %.3f s\n" secs;
              Option.iter
                (fun (o : Algos.Exact.outcome) ->
                  Printf.eprintf "nodes explored %d\n" o.Algos.Exact.nodes;
                  Printf.eprintf "optimal %s\n"
                    (if o.Algos.Exact.optimal then "yes" else "no"))
                !exact_outcome
            end;
            if verbose then
              Format.printf "%a@." Core.Schedule.pp r.Algos.Common.schedule;
            if gantt then
              Format.printf "%a@." (Core.Timeline.pp_gantt t)
                r.Algos.Common.schedule;
            Option.iter
              (fun out ->
                Core.Schedule_io.to_file out r.Algos.Common.schedule;
                Printf.printf "wrote %s\n" out)
              save;
            finish ~stats)
  in
  let info = Cmd.info "solve" ~doc:"Schedule an instance with a chosen algorithm." in
  Cmd.v info
    Term.(
      ret
        (const run $ algo_arg $ eps_arg $ seed_arg $ verbose_arg $ gantt_arg
       $ save_arg $ trace_arg $ stats_arg $ file_arg))

(* --- verify ---------------------------------------------------------------- *)

let verify_cmd =
  let sched_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"SCHEDULE"
           ~doc:"Schedule file (see Schedule_io format).")
  in
  let run path sched_path =
    match read_instance path with
    | Error msg -> `Error (false, msg)
    | Ok t -> (
        match Core.Schedule_io.of_file t sched_path with
        | exception Core.Schedule_io.Parse_error msg ->
            Printf.printf "INVALID: %s\n" msg;
            `Error (false, msg)
        | sched ->
            Printf.printf "valid schedule\n";
            Printf.printf "makespan %g (lower bound %g)\n"
              (Core.Schedule.makespan sched)
              (Core.Bounds.lower_bound t);
            Printf.printf "setups paid: %d\n" (Core.Schedule.num_setups sched);
            Format.printf "%a@." (Core.Timeline.pp_gantt t) sched;
            `Ok ())
  in
  let info =
    Cmd.info "verify" ~doc:"Validate a schedule against an instance."
  in
  Cmd.v info Term.(ret (const run $ file_arg $ sched_arg))

(* --- compare ---------------------------------------------------------------- *)

let compare_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed for randomized algorithms.")
  in
  let exact_arg =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also run branch and bound.")
  in
  let run seed exact path =
    match read_instance path with
    | Error msg -> `Error (false, msg)
    | Ok t ->
        let table = Stats.Table.create [ "algorithm"; "makespan"; "setups" ] in
        let row name (r : Algos.Common.result) =
          Stats.Table.add_row table
            [
              name;
              Printf.sprintf "%g" r.Algos.Common.makespan;
              string_of_int (Core.Schedule.num_setups r.Algos.Common.schedule);
            ]
        in
        let attempt name f = try row name (f ()) with Invalid_argument _ -> () in
        attempt "greedy" (fun () -> Algos.List_scheduling.schedule t);
        attempt "lpt" (fun () -> Algos.Lpt.schedule t);
        attempt "oblivious-lpt" (fun () -> Algos.Lpt.setup_oblivious t);
        attempt "ptas eps=1/2" (fun () -> Algos.Uniform_ptas.schedule ~eps:0.5 t);
        attempt "rounding" (fun () ->
            fst (Algos.Randomized_rounding.schedule (Workloads.Rng.create seed) t));
        attempt "ra2" (fun () -> Algos.Ra_class_uniform.schedule t);
        attempt "cu3" (fun () -> Algos.Um_class_uniform.schedule t);
        if exact then
          attempt "exact" (fun () -> (Algos.Exact.solve t).Algos.Exact.result);
        Printf.printf "lower bound %g\n\n" (Core.Bounds.lower_bound t);
        Stats.Table.print table;
        `Ok ()
  in
  let info =
    Cmd.info "compare"
      ~doc:"Run every applicable algorithm on an instance and compare."
  in
  Cmd.v info Term.(ret (const run $ seed_arg $ exact_arg $ file_arg))

(* --- experiments ----------------------------------------------------------- *)

let experiments_cmd =
  let id_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
           ~doc:"Experiment id (E1..E8, A1..A4); omit to run all.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ]
           ~doc:"Worker domains for running all experiments in parallel.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ]
           ~doc:"Emit the table as CSV (single experiment only).")
  in
  let debug_arg =
    Arg.(value & flag & info [ "debug" ]
           ~doc:"Enable solver debug logging on stderr.")
  in
  let run jobs csv debug trace stats id =
    if debug then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    let finish = obs_setup trace in
    match id with
    | None ->
        if csv then `Error (false, "--csv needs a single experiment id")
        else begin
          Experiments.Registry.run_all ~jobs ();
          finish ~stats
        end
    | Some id -> (
        match Experiments.Registry.find id with
        | Some e ->
            if csv then
              print_string (Stats.Table.to_csv (e.Experiments.Exp_common.run ()))
            else Experiments.Registry.run_one e;
            finish ~stats
        | None -> `Error (false, Printf.sprintf "unknown experiment %S" id))
  in
  let info = Cmd.info "experiments" ~doc:"Run the paper-reproduction experiments." in
  Cmd.v info
    Term.(
      ret
        (const run $ jobs_arg $ csv_arg $ debug_arg $ trace_arg $ stats_arg
       $ id_arg))

(* --- serve ------------------------------------------------------------- *)

let serve_cmd =
  let stdio_arg =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve one session over stdin/stdout (scriptable).")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) through the \
                   multiplexed event loop, exactly like $(b,--tcp): each \
                   connection is a session, requests may be pipelined, \
                   and solver-bound frames pass the $(b,--max-pending) \
                   admission queue. Combined with $(b,--tcp), one loop \
                   serves both listeners.")
  in
  let tcp_arg =
    Arg.(value & opt (some string) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Listen on a TCP address through the multiplexed \
                   event loop: non-blocking socket I/O, request \
                   pipelining, bounded admission queue with \
                   deadline-aware shedding (see $(b,--max-pending)). \
                   Port 0 picks a free port (printed on stderr).")
  in
  let router_arg =
    Arg.(value & flag
         & info [ "router" ]
             ~doc:"Shard-router mode: forward each request to one of \
                   $(b,--backends) by consistent-hashing its canonical \
                   instance fingerprint, so repeated and permuted \
                   instances land on the shard that already cached \
                   them. Runs on the same event loop as a server, on \
                   $(b,--socket), $(b,--tcp) or both; every frame, \
                   admin frames included, is forwarded by one of the 3 \
                   workers of the router's own 4-domain pool over a \
                   pooled backend connection.")
  in
  let backends_arg =
    Arg.(value & opt (some string) None
         & info [ "backends" ] ~docv:"T1,T2,..."
             ~doc:"Router backends: comma-separated server targets \
                   (Unix socket paths or HOST:PORT).")
  in
  let max_pending_arg =
    Arg.(value & opt int 64
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Admission bound of $(b,--socket) and $(b,--tcp) \
                   servers and routers: at most $(docv) requests queued \
                   for the pool (halved when health is degraded, zero \
                   when unhealthy); excess requests are shed with an \
                   immediate reply — a server's from the degraded fast \
                   path, a router's an overload error that never \
                   reaches a backend.")
  in
  let cache_arg =
    Arg.(value & opt int 128
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Result cache capacity (canonicalized instances).")
  in
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Pool domains (default: auto). A socket server's event \
                   loop runs up to $(docv)-1 solver-bound requests at \
                   once (with 1, on the loop itself); with $(docv) > 2, \
                   pipelined requests of one connection may run \
                   concurrently. $(b,--stdio) answers one frame at a \
                   time. Does not size a $(b,--router)'s pool, which \
                   always has 4 domains.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request time budget for requests that \
                   name none.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Dump the flight recorder's slice for any request \
                   slower than $(docv) milliseconds (error/degraded \
                   responses always dump once a dump destination is \
                   active). Dumps go to --slow-log, or stderr.")
  in
  let slow_log_arg =
    Arg.(value & opt (some string) None
         & info [ "slow-log" ] ~docv:"FILE"
             ~doc:"Append slow-request recorder dumps (JSON lines) to \
                   $(docv) instead of stderr; also activates dumping \
                   for error/degraded responses even without \
                   --slow-ms.")
  in
  let event_log_arg =
    Arg.(value & opt (some string) None
         & info [ "event-log" ] ~docv:"FILE"
             ~doc:"Mirror every flight-recorder event to $(docv) as \
                   JSON lines for live tailing.")
  in
  let task_budget_arg =
    Arg.(value & opt float 30.0
         & info [ "task-budget" ] ~docv:"SECS"
             ~doc:"Watchdog budget: a pool task whose heartbeat is older \
                   than $(docv) seconds is flagged stuck (one \
                   health.stuck_task event + rate-bounded recorder \
                   dump).")
  in
  let watchdog_arg =
    Arg.(value & opt float 1.0
         & info [ "watchdog-interval" ] ~docv:"SECS"
             ~doc:"Period of the background watchdog/SLO-sampling \
                   ticker; 0 disables it (health frames still sample on \
                   demand). The ticker also sweeps idle sessions.")
  in
  let max_sessions_arg =
    Arg.(value & opt int 64
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Live scheduling-session cap; further creates are \
                   rejected.")
  in
  let session_idle_arg =
    Arg.(value & opt (some float) None
         & info [ "session-idle-timeout" ] ~docv:"SECS"
             ~doc:"Evict sessions idle for more than $(docv) seconds \
                   (default: never).")
  in
  let fallback_ratio_arg =
    Arg.(value & opt float 2.0
         & info [ "session-fallback-ratio" ] ~docv:"R"
             ~doc:"Re-solve a session from scratch when its repaired \
                   makespan exceeds $(docv) times the certified lower \
                   bound (must be >= 1).")
  in
  let phase_ring_arg =
    Arg.(value & opt int Obs.Phase.default_capacity
         & info [ "phase-ring" ] ~docv:"N"
             ~doc:"Per-domain phase-recorder ring capacity in records \
                   (bounds how far back explain/trace can look; see \
                   DESIGN.md for the memory cost per slot).")
  in
  let event_ring_arg =
    Arg.(value & opt int Obs.Event.default_capacity
         & info [ "event-ring" ] ~docv:"N"
             ~doc:"Per-domain flight-recorder ring capacity in events \
                   (bounds the dump/events-frame lookback; see DESIGN.md \
                   for the memory cost per slot).")
  in
  let run stdio socket tcp router backends max_pending cache_size jobs
      deadline slow_ms slow_log event_log task_budget watchdog_interval
      max_sessions session_idle fallback_ratio phase_ring event_ring trace
      stats =
    let finish = obs_setup trace in
    if cache_size < 1 then `Error (false, "--cache-size must be >= 1")
    else if max_pending < 1 then `Error (false, "--max-pending must be >= 1")
    else if task_budget <= 0.0 then
      `Error (false, "--task-budget must be > 0")
    else if watchdog_interval < 0.0 then
      `Error (false, "--watchdog-interval must be >= 0")
    else if max_sessions < 1 then
      `Error (false, "--max-sessions must be >= 1")
    else if fallback_ratio < 1.0 then
      `Error (false, "--session-fallback-ratio must be >= 1")
    else if
      match session_idle with Some s -> s < 0.0 | None -> false
    then `Error (false, "--session-idle-timeout must be >= 0")
    else if phase_ring < 1 then `Error (false, "--phase-ring must be >= 1")
    else if event_ring < 1 then `Error (false, "--event-ring must be >= 1")
    else begin
      (* resize before any serving traffic: set_capacity clears rings *)
      if phase_ring <> Obs.Phase.default_capacity then
        Obs.Phase.set_capacity phase_ring;
      if event_ring <> Obs.Event.default_capacity then
        Obs.Event.set_capacity event_ring;
      let to_close = ref [] in
      let open_log path =
        let oc =
          open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
        in
        to_close := oc :: !to_close;
        oc
      in
      (* dumping is active when a destination is: --slow-log names the
         file, a bare --slow-ms defaults to stderr *)
      let dump_destination () =
        match slow_log with
        | Some path -> Some (open_log path)
        | None -> if Option.is_some slow_ms then Some stderr else None
      in
      match dump_destination () with
      | exception Sys_error msg ->
          `Error (false, Printf.sprintf "cannot open --slow-log: %s" msg)
      | dump_channel -> (
          match Option.map open_log event_log with
          | exception Sys_error msg ->
              `Error (false, Printf.sprintf "cannot open --event-log: %s" msg)
          | event_sink ->
              Obs.Event.set_json_sink event_sink;
              (* post-mortem hook: SIGQUIT (ctrl-\) dumps every domain's
                 ring to stderr without stopping the server *)
              Sys.set_signal Sys.sigquit
                (Sys.Signal_handle (fun _ -> Obs.Event.dump_jsonl stderr));
              (* a client that vanishes before its reply is written costs
                 its own connection (EPIPE), never the server *)
              Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
              let config =
                {
                  Serve.Server.cache_capacity = cache_size;
                  default_deadline_ms = deadline;
                  jobs =
                    (match jobs with
                    | Some j -> max 1 j
                    | None -> Parallel.Pool.default_jobs ());
                  slow_ms;
                  dump_channel;
                  dump_min_interval_s =
                    Serve.Server.default_config.Serve.Server.dump_min_interval_s;
                  task_budget_s = task_budget;
                  watchdog_interval_s =
                    (if watchdog_interval > 0.0 then Some watchdog_interval
                     else None);
                  session =
                    {
                      Serve.Session.default_config with
                      Serve.Session.max_sessions;
                      idle_timeout_s = session_idle;
                      fallback_ratio;
                    };
                  prehash_cap =
                    Serve.Server.default_config.Serve.Server.prehash_cap;
                }
              in
              let cleanup () =
                Obs.Event.set_json_sink None;
                List.iter
                  (fun oc -> try close_out oc with Sys_error _ -> ())
                  !to_close
              in
              let banner addr =
                match (addr : Unix.sockaddr) with
                | Unix.ADDR_INET (ip, p) ->
                    Printf.eprintf "serving on %s:%d\n%!"
                      (Unix.string_of_inet_addr ip) p
                | Unix.ADDR_UNIX p -> Printf.eprintf "serving on %s\n%!" p
              in
              let backend_list =
                match backends with
                | None -> []
                | Some b ->
                    String.split_on_char ',' b |> List.map String.trim
                    |> List.filter (( <> ) "")
              in
              (* --tcp takes the HOST:PORT half of the client target
                 grammar (Serve.Scrape.hostport) *)
              let tcp_listener () =
                match tcp with
                | None -> Ok None
                | Some hp -> (
                    match Serve.Scrape.hostport hp with
                    | Some (host, port) -> Ok (Some (hp, host, port))
                    | None ->
                        Error
                          (Printf.sprintf "--tcp expects HOST:PORT, got %S" hp))
              in
              (* every listening socket, Unix or TCP, is served by one
                 multiplexed event loop, for a server or a router *)
              let serve_mux tcp =
                let mux_config = { Serve.Mux.default_config with max_pending } in
                let mux, shutdown =
                  if router then
                    let rt = Serve.Router.create backend_list in
                    ( Serve.Mux.of_service ~config:mux_config
                        (Serve.Router.service rt),
                      fun () -> Serve.Router.shutdown rt )
                  else
                    let server = Serve.Server.create config in
                    ( Serve.Mux.create ~config:mux_config server,
                      fun () -> Serve.Server.shutdown server )
                in
                let stop _ = Serve.Mux.stop mux in
                Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
                Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
                let bind name add =
                  try add ()
                  with Unix.Unix_error (err, _, _) ->
                    failwith
                      (Printf.sprintf "cannot listen on %s: %s" name
                         (Unix.error_message err))
                in
                match
                  (* TCP first, so the kernel-chosen port leads the banners *)
                  let tcp_addr =
                    Option.map
                      (fun (hp, host, port) ->
                        bind hp (fun () -> Serve.Mux.add_tcp mux ~host ~port))
                      tcp
                  in
                  Option.iter
                    (fun path -> bind path (fun () -> Serve.Mux.add_unix mux ~path))
                    socket;
                  Option.to_list tcp_addr
                  @ Option.to_list (Option.map (fun p -> Unix.ADDR_UNIX p) socket)
                with
                | exception Failure msg ->
                    shutdown ();
                    `Error (false, msg)
                | addrs ->
                    List.iter banner addrs;
                    Serve.Mux.run mux;
                    shutdown ();
                    finish ~stats
              in
              let result =
                if router && backend_list = [] then
                  `Error (false, "--router requires --backends T1,T2,...")
                else if router && stdio then
                  `Error (false, "--router cannot serve --stdio")
                else
                  match (stdio, socket, tcp) with
                  | true, None, None ->
                      let server = Serve.Server.create config in
                      Serve.Server.run_stdio server;
                      Serve.Server.shutdown server;
                      finish ~stats
                  | false, Some _, _ | false, _, Some _ -> (
                      match tcp_listener () with
                      | Error msg -> `Error (false, msg)
                      | Ok tcp -> serve_mux tcp)
                  | true, _, _ | false, None, None ->
                      `Error
                        ( false,
                          "choose exactly one of --stdio, --socket PATH or \
                           --tcp HOST:PORT (--socket may combine with --tcp)"
                        )
              in
              cleanup ();
              result)
    end
  in
  let info =
    Cmd.info "serve"
      ~doc:"Run the scheduling service (see the wire format in README)."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ stdio_arg $ socket_arg $ tcp_arg $ router_arg
       $ backends_arg $ max_pending_arg $ cache_arg $ jobs_arg
       $ deadline_arg $ slow_ms_arg $ slow_log_arg $ event_log_arg
       $ task_budget_arg $ watchdog_arg $ max_sessions_arg
       $ session_idle_arg $ fallback_ratio_arg $ phase_ring_arg
       $ event_ring_arg $ trace_arg $ stats_arg))

(* --- loadgen ------------------------------------------------------------ *)

(* The printed report and the --json record of one run; every count is
   of frames that got a reply. *)
let loadgen_report ~path ~json ~sessions ~connections ~wall_ns
    (t : Serve.Client.tally) =
  let mode m = Option.value ~default:0 (List.assoc_opt m t.modes) in
  let lat = Serve.Client.percentiles (Array.of_list t.latencies_us) in
  let rep = Serve.Client.percentiles (Array.of_list t.repairs_us) in
  let at key ps = Option.value ~default:nan (List.assoc_opt key ps) in
  let row w label v = Printf.printf "%-*s%d\n" w label v in
  let name, percentiles, counters, slowest_key =
    if sessions > 0 then begin
      let speedup = at "p50_us" lat /. at "p50_us" rep in
      row 11 "sessions" sessions;
      row 11 "frames" t.answered;
      Printf.printf "full       %d (p50 %.0f us)\n" (mode "full") (at "p50_us" lat);
      Printf.printf "repairs    %d (p50 %.0f us)\n" (mode "repair") (at "p50_us" rep);
      row 11 "fallbacks" (mode "fallback");
      row 11 "cache" (mode "cache");
      row 11 "errors" t.errors;
      if t.invalid > 0 then row 11 "invalid" t.invalid;
      if Float.is_finite speedup then
        Printf.printf "speedup    %.1fx (full p50 / repair p50)\n" speedup;
      ( "loadgen sessions ",
        (if lat = [] then [] else [ ("full_p50_us", at "p50_us" lat) ])
        @ (if rep = [] then []
           else
             [ ("repair_p50_us", at "p50_us" rep); ("repair_p90_us", at "p90_us" rep) ]),
        [
          ("loadgen.sessions", sessions);
          ("loadgen.full", mode "full");
          ("loadgen.repairs", mode "repair");
          ("loadgen.fallbacks", mode "fallback");
          ("loadgen.cache_hits", mode "cache");
          ("loadgen.errors", t.errors);
          ("loadgen.invalid", t.invalid);
        ]
        @ (if Float.is_finite speedup then
             [ ("loadgen.speedup_x100", int_of_float (speedup *. 100.0)) ]
           else []),
        "slowest_full" )
    end
    else begin
      let misses = t.schedules - t.hits in
      if connections > 1 then Printf.printf "connections %d\n" connections;
      row 10 "requests" t.answered;
      row 10 "hits" t.hits;
      row 10 "misses" misses;
      row 10 "errors" t.errors;
      if t.invalid > 0 then row 10 "invalid" t.invalid;
      row 10 "degraded" t.degraded;
      if t.echo_bad > 0 then Printf.printf "trace-echo mismatches %d\n" t.echo_bad;
      if lat <> [] then begin
        let n = float_of_int (List.length t.latencies_us) in
        Printf.printf "latency us  mean %.0f"
          (List.fold_left ( +. ) 0.0 t.latencies_us /. n);
        List.iter
          (fun (k, v) ->
            (* keys are "p50_us" etc.; print without the unit suffix *)
            Printf.printf "  %s %.0f" (String.sub k 0 (String.length k - 3)) v)
          lat;
        print_newline ();
        Printf.printf "last makespan %g\n" t.last_makespan
      end;
      ( "loadgen ",
        lat,
        [
          ("loadgen.connections", connections);
          ("loadgen.hits", t.hits);
          ("loadgen.misses", misses);
          ("loadgen.errors", t.errors);
          ("loadgen.invalid", t.invalid);
          ("loadgen.degraded", t.degraded);
        ]
        @ (if t.echo_bad > 0 then [ ("loadgen.trace_echo_bad", t.echo_bad) ]
           else []),
        "slowest" )
    end
  in
  Option.iter
    (fun file ->
      let record =
        {
          Obs.Expo.bname = name ^ Filename.basename path;
          iterations = t.answered;
          wall_ns;
          percentiles;
          counters;
          trace_ids =
            (match t.slowest with _, "" -> [] | _, id -> [ (slowest_key, id) ]);
        }
      in
      let out = open_out file in
      output_string out (Obs.Expo.bench_records_json [ record ]);
      close_out out;
      Printf.printf "wrote %s\n" file)
    json

(* A run fails when a stream is lost, when any reply fails the check,
   and when every reply is an error. *)
let loadgen_verdict ~target (t : Serve.Client.tally) =
  match t.failure with
  | Some msg ->
      Some
        (Printf.sprintf "lost %s after %d answered frame(s): %s" target
           t.answered msg)
  | None when t.invalid > 0 ->
      Some
        (Printf.sprintf "%d invalid repl%s from %s; the first: %s" t.invalid
           (if t.invalid = 1 then "y" else "ies")
           target
           (Option.value ~default:"" t.first_invalid))
  | None when t.errors > 0 && t.schedules = 0 ->
      Some (Printf.sprintf "all %d request(s) to %s failed" t.answered target)
  | None -> None

let loadgen_cmd =
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"TARGET"
             ~doc:"Connect to a running $(b,schedtool serve) at $(docv): \
                   a Unix socket path, or HOST:PORT for a $(b,--tcp) \
                   server.")
  in
  let connections_arg =
    Arg.(value & opt int 1
         & info [ "connections" ] ~docv:"N"
             ~doc:"Hold $(docv) concurrent connections and round-robin \
                   the requests across them (one-shot mode).")
  in
  let pipeline_arg =
    Arg.(value & flag
         & info [ "pipeline" ]
             ~doc:"Write every request before reading any response \
                   (per-connection order is preserved). Exercises \
                   request pipelining and, against a bounded admission \
                   queue, overload shedding.")
  in
  let hold_open_arg =
    Arg.(value & flag
         & info [ "hold-open" ]
             ~doc:"Slow-client mode: open $(b,--connections) sockets, \
                   send a partial frame on each, and hold them open for \
                   $(b,--hold-seconds) without reading — the server \
                   must keep serving other clients meanwhile.")
  in
  let hold_seconds_arg =
    Arg.(value & opt float 10.0
         & info [ "hold-seconds" ] ~docv:"SECS"
             ~doc:"How long $(b,--hold-open) keeps its connections \
                   parked.")
  in
  let count_arg =
    Arg.(value & opt int 20
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of requests.")
  in
  let solver_arg =
    Arg.(value & opt (some string) None
         & info [ "solver" ] ~docv:"S" ~doc:"Solver hint sent with each \
                                             request.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline sent with each request.")
  in
  let permute_arg =
    Arg.(value & flag
         & info [ "permute" ]
             ~doc:"Send a random relabeling of the instance each time \
                   (exercises the canonicalizing cache).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Relabeling RNG seed.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the run as a BENCH_serve.json-style record \
                   (latency percentiles + outcome counters) to $(docv).")
  in
  let sessions_arg =
    Arg.(value & opt int 0
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Drive $(docv) session lifecycles (create / mutate / \
                   resolve / close) instead of one-shot requests; reports \
                   repair-vs-from-scratch latency.")
  in
  let mutations_arg =
    Arg.(value & opt int 4
         & info [ "mutations" ] ~docv:"K"
             ~doc:"Mutations per session in $(b,--sessions) mode \
                   (alternating job add / drop, each followed by an \
                   incremental resolve).")
  in
  let run socket count solver deadline permute seed json sessions mutations
      connections pipeline hold_open hold_seconds trace path =
    if sessions < 0 then `Error (false, "--sessions must be >= 0")
    else if mutations < 0 then `Error (false, "--mutations must be >= 0")
    else if connections < 1 then `Error (false, "--connections must be >= 1")
    else
    let finish = obs_setup trace in
    match read_instance path with
    | Error msg -> `Error (false, msg)
    | Ok instance -> (
        (* a server vanishing mid-run must surface as a transport
           failure, not a SIGPIPE death *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        match Serve.Client.connect_all socket connections with
        | Error msg -> `Error (false, msg)
        | Ok conns ->
            let load =
              { Serve.Client.instance; permute; seed; solver; deadline_ms = deadline }
            in
            let t_start = Obs.Sink.now_us () in
            let t =
              if hold_open then
                (* slow-client mode: park connections mid-frame so the
                   server's event loop has to keep their buffers around
                   while still serving everyone else *)
                Serve.Client.hold_open conns ~seconds:hold_seconds
                  ~on_hold:(fun () ->
                    Printf.printf "holding %d connection(s) open for %gs\n%!"
                      connections hold_seconds)
              else if sessions > 0 then
                Serve.Client.sessions load conns.(0) ~sessions ~mutations
              else if pipeline then Serve.Client.pipelined load conns ~count
              else Serve.Client.closed_loop load conns ~count
            in
            let wall_ns = (Obs.Sink.now_us () -. t_start) *. 1e3 in
            Array.iter Serve.Scrape.close conns;
            if hold_open then
              Printf.printf "released %d connection(s)\n" connections
            else loadgen_report ~path ~json ~sessions ~connections ~wall_ns t;
            flush stdout;
            let finished = finish ~stats:false in
            match loadgen_verdict ~target:socket t with
            | Some msg -> `Error (false, msg)
            | None -> finished)
  in
  let info =
    Cmd.info "loadgen"
      ~doc:"Replay an instance against a running serve socket, check \
            every reply against the instance sent, and report hit rates \
            and latency."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ socket_arg $ count_arg $ solver_arg $ deadline_arg
       $ permute_arg $ seed_arg $ json_arg $ sessions_arg $ mutations_arg
       $ connections_arg $ pipeline_arg $ hold_open_arg $ hold_seconds_arg
       $ trace_arg $ file_arg))

(* --- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let seconds_arg =
    Arg.(value & opt (some float) None
         & info [ "seconds" ] ~docv:"S"
             ~doc:"Time budget in seconds (default 5 when --cases is not \
                   given).")
  in
  let cases_arg =
    Arg.(value & opt (some int) None
         & info [ "cases" ] ~docv:"N"
             ~doc:"Stop after exactly $(docv) cases instead of a time \
                   budget (deterministic, what CI smoke uses).")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Root RNG seed; a run is reproducible from (seed, case \
                   index) alone.")
  in
  let algo_arg =
    Arg.(value & opt_all string []
         & info [ "algo"; "a" ] ~docv:"NAME"
             ~doc:"Fuzz only this registered algorithm (repeatable; \
                   default: all). See the registry names in DESIGN.md.")
  in
  let env_arg =
    Arg.(value & opt_all string []
         & info [ "env" ] ~docv:"ENV"
             ~doc:"Restrict to an environment: identical, uniform, \
                   restricted or unrelated (repeatable; default: cycle \
                   through all four).")
  in
  let no_shrink_arg =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Report failures as generated, without delta-debugging \
                   them down first.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Write minimal reproducers for any failure to $(docv) \
                   (created if missing).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"DIR"
             ~doc:"Instead of fuzzing, replay every reproducer in \
                   $(docv) and fail if any still violates its property.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains; case RNGs are pre-split so results do \
                   not depend on $(docv).")
  in
  let max_jobs_arg =
    Arg.(value & opt int Check.Driver.default.Check.Driver.max_jobs
         & info [ "max-jobs" ] ~docv:"N"
             ~doc:"Largest generated instance, in jobs.")
  in
  let no_meta_arg =
    Arg.(value & flag
         & info [ "no-metamorphic" ]
             ~doc:"Skip the metamorphic relations (permute/scale/speed-up/\
                   drop-job); differential checks only.")
  in
  (* the check.* footer is the point of the exercise: always print it,
     --stats only adds the full delta table on top *)
  let print_check_footer () =
    let table = Obs.Report.prefix_table ~prefix:"check." in
    if Stats.Table.num_rows table > 0 then begin
      prerr_newline ();
      prerr_string (Stats.Table.to_string table)
    end
  in
  let print_failure (f : Check.Driver.failure) =
    Printf.printf "case %d (%s, %d jobs -> %d after %d shrink steps):\n"
      f.Check.Driver.case f.Check.Driver.env
      (Core.Instance.num_jobs f.Check.Driver.instance)
      (Core.Instance.num_jobs f.Check.Driver.shrunk)
      f.Check.Driver.shrink_steps;
    List.iter
      (fun v -> Printf.printf "  %s\n" (Check.Violation.to_string v))
      f.Check.Driver.violations;
    List.iter
      (fun p -> Printf.printf "  wrote %s\n" p)
      f.Check.Driver.corpus_paths
  in
  let replay_dir dir =
    let entries = Check.Corpus.load_dir dir in
    if entries = [] then begin
      Printf.printf "replay %s: empty corpus\n" dir;
      `Ok ()
    end
    else begin
      let bad = ref 0 in
      List.iter
        (fun (path, loaded) ->
          match loaded with
          | Error msg ->
              incr bad;
              Printf.printf "LOAD FAIL %s: %s\n" path msg
          | Ok entry -> (
              match Check.Corpus.replay entry with
              | [] -> Printf.printf "ok   %s\n" (Filename.basename path)
              | vs ->
                  incr bad;
                  Printf.printf "FAIL %s\n" (Filename.basename path);
                  List.iter
                    (fun v ->
                      Printf.printf "  %s\n" (Check.Violation.to_string v))
                    vs))
        entries;
      print_check_footer ();
      if !bad = 0 then begin
        Printf.printf "replayed %d reproducer(s), all fixed\n"
          (List.length entries);
        `Ok ()
      end
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d reproducer(s) regressed" !bad
              (List.length entries) )
    end
  in
  let run seconds cases seed algos envs no_shrink corpus replay jobs max_jobs
      no_meta trace stats =
    let finish = obs_setup trace in
    match replay with
    | Some dir ->
        let r = replay_dir dir in
        (match finish ~stats with `Ok () -> r | err -> err)
    | None -> (
        let budget =
          match (cases, seconds) with
          | Some n, _ -> Ok (Check.Driver.Cases n)
          | None, Some s -> Ok (Check.Driver.Seconds s)
          | None, None -> Ok (Check.Driver.Seconds 5.0)
        in
        let env_kinds =
          List.fold_left
            (fun acc name ->
              match (acc, Check.Driver.env_of_string name) with
              | Error _, _ -> acc
              | Ok _, None -> Error (Printf.sprintf "unknown environment %S" name)
              | Ok ks, Some k -> Ok (ks @ [ k ]))
            (Ok []) envs
        in
        match (budget, env_kinds) with
        | Error msg, _ | _, Error msg -> `Error (false, msg)
        | Ok budget, Ok env_kinds -> (
            let config =
              {
                Check.Driver.default with
                Check.Driver.seed;
                budget;
                envs =
                  (if env_kinds = [] then Check.Driver.all_envs else env_kinds);
                algo_filter = algos;
                shrink = not no_shrink;
                corpus_dir = corpus;
                jobs = max 1 jobs;
                max_jobs;
                metamorphic = not no_meta;
              }
            in
            match Check.Driver.run config with
            | exception Invalid_argument msg -> `Error (false, msg)
            | summary ->
                List.iter print_failure summary.Check.Driver.failures;
                Printf.printf
                  "fuzzed %d case(s) in %.1f s (seed %d): %d violation(s)\n"
                  summary.Check.Driver.cases summary.Check.Driver.wall_s seed
                  summary.Check.Driver.violations;
                print_check_footer ();
                let r = finish ~stats in
                if summary.Check.Driver.violations = 0 then r
                else
                  `Error
                    ( false,
                      Printf.sprintf "%d invariant violation(s) found"
                        summary.Check.Driver.violations )))
  in
  let info =
    Cmd.info "fuzz"
      ~doc:"Differentially fuzz every registered algorithm against exact \
            and bound oracles, with metamorphic checks and failing-case \
            shrinking."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ seconds_arg $ cases_arg $ seed_arg $ algo_arg $ env_arg
       $ no_shrink_arg $ corpus_arg $ replay_arg $ jobs_arg $ max_jobs_arg
       $ no_meta_arg $ trace_arg $ stats_arg))

(* --- metrics ------------------------------------------------------------ *)

let metrics_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Scrape a running $(b,schedtool serve --socket) at \
                   $(docv) via a stats admin frame (default: render \
                   this process's own registries).")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("prometheus", Serve.Proto.Prometheus);
                             ("json", Serve.Proto.Json) ])
           Serve.Proto.Prometheus
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Exposition format: prometheus (text 0.0.4) or json.")
  in
  let watch_arg =
    Arg.(value & opt (some float) None
         & info [ "watch" ] ~docv:"SECS"
             ~doc:"Re-scrape every $(docv) seconds and print only the \
                   series that changed since the previous scrape \
                   (requires --socket; format is forced to \
                   prometheus).")
  in
  let scrapes_arg =
    Arg.(value & opt int 0
         & info [ "scrapes" ] ~docv:"N"
             ~doc:"With --watch: stop after $(docv) scrapes (default 0 \
                   = until interrupted). The first scrape is the \
                   baseline and prints no deltas.")
  in
  let render format =
    match (format : Serve.Proto.stats_format) with
    | Serve.Proto.Prometheus -> Obs.Expo.prometheus ()
    | Serve.Proto.Json -> Obs.Expo.json ()
  in
  (* --watch: snapshot-diff loop on the Scrape client (shared with
     `schedtool top`) — one line per scrape, then the changed series. *)
  let watch_loop path interval scrapes =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match Serve.Scrape.connect path with
    | Error msg -> `Error (false, msg)
    | Ok conn ->
        let t0 = Unix.gettimeofday () in
        let rec go i prev =
          match
            Serve.Scrape.fetch conn (Serve.Proto.Stats Serve.Proto.Prometheus)
          with
          | Error msg ->
              Serve.Scrape.close conn;
              `Error (false, msg)
          | Ok body ->
              let series = Serve.Scrape.parse_prometheus body in
              let elapsed = Unix.gettimeofday () -. t0 in
              if i = 1 then
                Printf.printf "scrape %d t=%.1fs series=%d (baseline)\n" i
                  elapsed (List.length series)
              else begin
                let ds =
                  Serve.Scrape.changed
                    (Serve.Scrape.diff ~before:prev ~after:series)
                in
                Printf.printf "scrape %d t=%.1fs series=%d changed=%d\n" i
                  elapsed (List.length series) (List.length ds);
                List.iter
                  (fun { Serve.Scrape.dname; current; d } ->
                    Printf.printf "  %-52s %14g %+g\n" dname current d)
                  ds
              end;
              flush stdout;
              if scrapes > 0 && i >= scrapes then begin
                Serve.Scrape.close conn;
                `Ok ()
              end
              else begin
                Unix.sleepf interval;
                go (i + 1) series
              end
        in
        go 1 []
  in
  let run socket format watch scrapes =
    match (watch, socket) with
    | Some _, None -> `Error (false, "--watch requires --socket")
    | Some interval, Some _ when interval <= 0.0 ->
        `Error (false, "--watch interval must be > 0")
    | Some interval, Some path -> watch_loop path interval scrapes
    | None, None ->
        (* local snapshot: the same renderer the serve stats frame uses,
           on this process's (mostly empty) registries — documents the
           format and lets scripts smoke-test the exposition offline *)
        Obs.Memprof.sample ();
        print_string (render format);
        `Ok ()
    | None, Some path -> (
        match Serve.Scrape.fetch_once path (Serve.Proto.Stats format) with
        | Error msg -> `Error (false, msg)
        | Ok body ->
            print_string body;
            if body <> "" && body.[String.length body - 1] <> '\n' then
              print_newline ();
            `Ok ())
  in
  let info =
    Cmd.info "metrics"
      ~doc:"Print live metrics (Prometheus text or JSON) from a running \
            serve socket, or this process's own snapshot; --watch \
            re-scrapes and shows only what changed."
  in
  Cmd.v info
    Term.(ret (const run $ socket_arg $ format_arg $ watch_arg $ scrapes_arg))

(* --- events ------------------------------------------------------------- *)

let events_cmd =
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Tail the flight recorder of a running $(b,schedtool \
                   serve --socket) at $(docv) via an events admin \
                   frame.")
  in
  let count_arg =
    Arg.(value & opt int 50
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Keep only the last $(docv) events (newest last).")
  in
  let level_arg =
    let parse s =
      match Obs.Event.level_of_string s with
      | Some l -> Ok l
      | None ->
          Error
            (`Msg (Printf.sprintf "expected debug|info|warn|error, got %S" s))
    in
    let print fmt l = Format.pp_print_string fmt (Obs.Event.level_to_string l) in
    Arg.(value & opt (conv (parse, print)) Obs.Event.Debug
         & info [ "level" ] ~docv:"LEVEL"
             ~doc:"Severity floor: debug, info, warn or error.")
  in
  let run socket count level =
    if count < 1 then `Error (false, "--count must be >= 1")
    else
      match
        Serve.Scrape.fetch_once socket
          (Serve.Proto.Events { count = Some count; min_level = level })
      with
      | Error msg -> `Error (false, msg)
      | Ok body ->
          print_string body;
          `Ok ()
  in
  let info =
    Cmd.info "events"
      ~doc:"Tail recent flight-recorder events (JSON lines) from a \
            running serve socket."
  in
  Cmd.v info Term.(ret (const run $ socket_arg $ count_arg $ level_arg))

(* --- explain ------------------------------------------------------------ *)

(* Render one [phase] payload line of an explain reply. The wire format
   is [k=v] tokens with [detail] last (it may contain spaces). *)
let render_phase_line line =
  let fields = String.split_on_char ' ' line in
  let find key =
    let prefix = key ^ "=" in
    List.find_map
      (fun tok ->
        if String.starts_with ~prefix tok then
          Some
            (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
        else None)
      fields
  in
  (* detail is the last token and may contain spaces: cut at the literal
     [ detail=] marker instead of tokenizing *)
  let detail =
    let marker = " detail=" in
    let ml = String.length marker and ll = String.length line in
    let rec find i =
      if i + ml > ll then None
      else if String.sub line i ml = marker then Some (i + ml)
      else find (i + 1)
    in
    match find 0 with
    | Some start -> String.sub line start (ll - start)
    | None -> ""
  in
  let num key = Option.bind (find key) float_of_string_opt in
  let depth =
    match Option.bind (find "depth") int_of_string_opt with
    | Some d -> d
    | None -> 0
  in
  let name = Option.value ~default:"?" (find "name") in
  let dur = Option.value ~default:nan (num "dur_us") in
  let alloc = Option.value ~default:0.0 (num "alloc_b") in
  Printf.printf "%-*s%-*s %10.1f us %10.0f B%s\n" (2 * depth) "" (40 - (2 * depth))
    name dur alloc
    (if detail = "" then "" else "  " ^ detail)

let explain_cmd =
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Ask a running $(b,schedtool serve --socket) at $(docv) \
                   for the phase tree of one request.")
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID"
             ~doc:"Trace/request id to explain: a client-propagated trace \
                   id (e.g. $(b,lg1.7)) or a server-minted $(b,r<N>), as \
                   echoed on a reply's $(b,trace) line.")
  in
  let run socket id =
    match Serve.Scrape.fetch_once socket (Serve.Proto.Explain id) with
    | Error msg -> `Error (false, msg)
    | Ok body ->
        String.split_on_char '\n' body
        |> List.iter (fun line ->
               if String.starts_with ~prefix:"phase " line then
                 render_phase_line line
               else if line <> "" then print_endline line);
        `Ok ()
  in
  let info =
    Cmd.info "explain"
      ~doc:"Render the solver phase tree (wall time, allocation, \
            per-phase detail) of one recent request on a running serve \
            socket."
  in
  Cmd.v info Term.(ret (const run $ socket_arg $ id_arg))

(* --- trace (merge / validate) ------------------------------------------- *)

let trace_cmd =
  let merge_cmd =
    let files_arg =
      Arg.(non_empty & pos_all string []
           & info [] ~docv:"FILE" ~doc:"Chrome trace-event files to merge.")
    in
    let out_arg =
      Arg.(required & opt (some string) None
           & info [ "o"; "output" ] ~docv:"OUT"
               ~doc:"Write the merged trace to $(docv).")
    in
    let run files out =
      match Obs.Trace.merge_files files with
      | Error msg -> `Error (false, "merge failed: " ^ msg)
      | Ok text -> (
          match
            let oc = open_out out in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc text)
          with
          | () ->
              Printf.printf "merged %d file(s) into %s\n" (List.length files)
                out;
              `Ok ()
          | exception Sys_error msg ->
              `Error (false, "cannot write merged trace: " ^ msg))
    in
    let info =
      Cmd.info "merge"
        ~doc:"Merge Chrome trace files from several processes (e.g. a \
              loadgen client and the server that answered it) onto one \
              wall-clock timeline, one pid per input."
    in
    Cmd.v info Term.(ret (const run $ files_arg $ out_arg))
  in
  let validate_cmd =
    let file_arg =
      Arg.(required & pos 0 (some string) None
           & info [] ~docv:"FILE" ~doc:"Chrome trace-event file to check.")
    in
    let run file =
      match Obs.Trace.validate_file file with
      | Ok n ->
          Printf.printf "ok: %d event(s)\n" n;
          `Ok ()
      | Error msg -> `Error (false, "invalid trace: " ^ msg)
      | exception Sys_error msg -> `Error (false, msg)
    in
    let info =
      Cmd.info "validate"
        ~doc:"Self-check a Chrome trace-event file (required keys, \
              balanced span nesting per track)."
    in
    Cmd.v info Term.(ret (const run $ file_arg))
  in
  let info =
    Cmd.info "trace" ~doc:"Work with Chrome trace-event files."
  in
  Cmd.group info [ merge_cmd; validate_cmd ]

(* --- top ---------------------------------------------------------------- *)

let top_cmd =
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Watch a running $(b,schedtool serve --socket) at \
                   $(docv): health + stats + events admin frames, \
                   rendered as a self-refreshing dashboard.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Refresh period (default 2).")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render a single frame as plain text (no screen \
                   clearing) and exit; for scripts and tests.")
  in
  let frames_arg =
    Arg.(value & opt int 0
         & info [ "frames" ] ~docv:"N"
             ~doc:"Stop after $(docv) frames (default 0 = until \
                   interrupted).")
  in
  let hotspots_arg =
    Arg.(value & opt float 0.0
         & info [ "hotspots" ] ~docv:"SECS"
             ~doc:"Add a hotspots panel: run a $(docv)-second CPU \
                   profile capture each frame and show the top frames \
                   by self time (0 = off). Lengthens each refresh by \
                   the capture window.")
  in
  let fmt_us us =
    if us = infinity then "inf"
    else if us >= 1_000_000.0 then Printf.sprintf "%.2fs" (us /. 1e6)
    else if us >= 1000.0 then Printf.sprintf "%.1fms" (us /. 1000.0)
    else Printf.sprintf "%.0fus" us
  in
  let run socket interval once frames hotspots =
    if interval <= 0.0 then `Error (false, "--interval must be > 0")
    else if hotspots < 0.0 then `Error (false, "--hotspots must be >= 0")
    else begin
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      match Serve.Scrape.connect socket with
      | Error msg -> `Error (false, msg)
      | Ok conn ->
          let buf = Buffer.create 4096 in
          let line fmt =
            Printf.ksprintf
              (fun s ->
                Buffer.add_string buf s;
                Buffer.add_char buf '\n')
              fmt
          in
          let ( let* ) r f =
            match r with Error e -> Error e | Ok v -> f v
          in
          (* One dashboard frame: scrape the three admin frames, render
             into [buf], and return the stats series so the next frame
             can show interval deltas (rate, last-interval latency). *)
          let frame ~first prev =
            let fetch = Serve.Scrape.fetch conn in
            let* health = fetch Serve.Proto.Health in
            let* stats = fetch (Serve.Proto.Stats Serve.Proto.Prometheus) in
            let* events =
              fetch
                (Serve.Proto.Events
                   { count = Some 400; min_level = Obs.Event.Debug })
            in
            let series = Serve.Scrape.parse_prometheus stats in
            let hl = Serve.Scrape.health_lines health in
            Buffer.clear buf;
            let uptime =
              Option.value ~default:"-" (List.assoc_opt "uptime_s" hl)
            in
            line "schedtool top · %s · uptime %ss" socket uptime;
            List.iter
              (fun (k, rest) ->
                match k with
                | "status" -> line "health %s" rest
                | "reason" -> line "reason %s" rest
                | "liveness" -> line "liveness %s" rest
                | "liveness_reason" -> line "liveness_reason %s" rest
                | _ -> ())
              hl;
            (* burn rates, one line per objective × window *)
            List.iter
              (fun (k, rest) ->
                if k = "slo" then begin
                  let f = Serve.Scrape.kv_fields rest in
                  let get key =
                    Option.value ~default:"-" (List.assoc_opt key f)
                  in
                  line "slo %s %s burn=%s ratio=%s target=%s" (get "name")
                    (get "window") (get "burn") (get "ratio") (get "target")
                end)
              hl;
            let req status =
              Option.value ~default:0.0
                (Serve.Scrape.value series
                   (Printf.sprintf "serve_requests{status=%S}" status))
            in
            let ok = req "ok" and degraded = req "degraded" in
            let err = req "error" in
            let total = ok +. degraded +. err in
            let rate =
              if first then ""
              else
                let prev_total =
                  List.fold_left
                    (fun acc s ->
                      acc
                      +. Option.value ~default:0.0
                           (Serve.Scrape.value prev
                              (Printf.sprintf "serve_requests{status=%S}" s)))
                    0.0
                    [ "ok"; "degraded"; "error" ]
                in
                Printf.sprintf " rate=%.1f/s" ((total -. prev_total) /. interval)
            in
            line "requests ok=%.0f degraded=%.0f error=%.0f total=%.0f%s" ok
              degraded err total rate;
            let metric = "serve_request_latency_us" in
            let cum = Serve.Scrape.buckets series metric in
            let q pts p =
              match Serve.Scrape.quantile_of_buckets pts p with
              | Some v -> fmt_us v
              | None -> "-"
            in
            line "latency p50=%s p90=%s p99=%s (cumulative)" (q cum 0.5)
              (q cum 0.9) (q cum 0.99);
            if not first then begin
              let d = Serve.Scrape.delta_buckets ~before:prev ~after:series metric in
              line "latency p50=%s p90=%s p99=%s (last %.1fs)" (q d 0.5)
                (q d 0.9) (q d 0.99) interval
            end;
            let meters =
              List.filter_map
                (fun (k, rest) ->
                  if k <> "meter" then None
                  else
                    let f = Serve.Scrape.kv_fields rest in
                    match (List.assoc_opt "name" f, List.assoc_opt "fill" f) with
                    | Some n, Some fill -> Some (Printf.sprintf "%s=%s" n fill)
                    | _ -> None)
                hl
            in
            if meters <> [] then line "meters %s" (String.concat " " meters);
            List.iter
              (fun (k, rest) ->
                if k = "heartbeat" then begin
                  let f = Serve.Scrape.kv_fields rest in
                  let get key =
                    Option.value ~default:"-" (List.assoc_opt key f)
                  in
                  line "domain %s %s beat_age=%ss task=%s" (get "domain")
                    (get "state") (get "beat_age_s") (get "task")
                end)
              hl;
            (match Serve.Scrape.top_event_names ~limit:5 events with
            | [] -> line "events -"
            | tops ->
                line "events %s"
                  (String.concat " "
                     (List.map
                        (fun (n, c) -> Printf.sprintf "%s=%d" n c)
                        tops)));
            (* hotspots are a live capture, not a scrape of past state;
               a failed capture (e.g. an engine already armed by another
               client) degrades the panel, not the dashboard *)
            if hotspots > 0.0 then begin
              match
                fetch
                  (Serve.Proto.Profile
                     {
                       paction = Serve.Proto.P_capture hotspots;
                       pmode = Obs.Profile.Cpu;
                       prate = None;
                       pformat = Obs.Profile.Collapsed;
                       pfilter = None;
                     })
              with
              | Error msg -> line "hotspots - (%s)" msg
              | Ok body -> (
                  match Serve.Scrape.top_self_frames ~limit:5 body with
                  | [] -> line "hotspots -"
                  | tops ->
                      line "hotspots %s"
                        (String.concat " "
                           (List.map
                              (fun (n, f) ->
                                Printf.sprintf "%s=%.1f%%" n (100.0 *. f))
                              tops)))
            end;
            Ok series
          in
          let rec go i prev =
            match frame ~first:(i = 1) prev with
            | Error msg ->
                Serve.Scrape.close conn;
                `Error (false, msg)
            | Ok series ->
                if not once then print_string "\027[2J\027[H";
                print_string (Buffer.contents buf);
                flush stdout;
                if once || (frames > 0 && i >= frames) then begin
                  Serve.Scrape.close conn;
                  `Ok ()
                end
                else begin
                  Unix.sleepf interval;
                  go (i + 1) series
                end
          in
          go 1 []
    end
  in
  let info =
    Cmd.info "top"
      ~doc:"Live dashboard over a running serve socket: composite \
            health, SLO burn rates, request rates and latency \
            percentiles, saturation meters, per-domain heartbeats, the \
            busiest event sources, and (with --hotspots) the hottest \
            frames from a live CPU profile capture."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ socket_arg $ interval_arg $ once_arg $ frames_arg
       $ hotspots_arg))

(* --- profile ------------------------------------------------------------ *)

(* The local mode re-enters the top-level command group to run the
   wrapped subcommand under an armed engine; the group is only defined
   below, so it arrives through this forward reference. *)
let main_ref : unit Cmd.t option ref = ref None

let profile_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Capture from a running $(b,schedtool serve --socket) \
                   at $(docv) (a profile v1 admin frame) instead of \
                   wrapping a local command.")
  in
  let seconds_arg =
    Arg.(value & opt float 5.0
         & info [ "seconds" ] ~docv:"SECS"
             ~doc:"Capture window for --socket mode (default 5).")
  in
  let action_arg =
    Arg.(value & opt string "capture"
         & info [ "action" ] ~docv:"ACTION"
             ~doc:"Socket mode: capture (default, windowed), or \
                   status/start/stop to inspect or toggle the server's \
                   engine across round trips.")
  in
  let mode_arg =
    Arg.(value & opt string "cpu"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Engine: cpu (SIGPROF sampling at --rate hz) or alloc \
                   (Gc.Memprof, bytes-weighted stacks).")
  in
  let rate_arg =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"R"
             ~doc:"Sampling rate: hz for cpu (default 99), per-word \
                   probability for alloc (default 1e-4).")
  in
  let format_arg =
    Arg.(value & opt string "collapsed"
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output: collapsed (flamegraph-ready $(i,stack \
                   weight) lines) or json (one object per line).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the profile payload to $(docv) (default: \
                   stdout).")
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE"
             ~doc:"Also render a self-contained flamegraph SVG to \
                   $(docv) (requires --format collapsed).")
  in
  let id_arg =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"TRACE-ID"
             ~doc:"Keep only samples recorded while serving this \
                   trace/request id.")
  in
  let wrapped_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"SUBCOMMAND"
             ~doc:"Local mode: a schedtool subcommand (with its \
                   arguments, after --) to run under the profiler, \
                   e.g. $(b,schedtool profile -- solve -a exact \
                   inst.txt).")
  in
  let write_file path content =
    try
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      Printf.printf "wrote %s\n" path;
      Ok ()
    with Sys_error msg -> Error msg
  in
  let emit ~out ~svg ~title body =
    let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
    let* () = match out with None -> Ok () | Some path -> write_file path body in
    let* () =
      match svg with
      | None -> Ok ()
      | Some path ->
          write_file path (Obs.Flame.render_collapsed ~title body)
    in
    if out = None then print_string body;
    `Ok ()
  in
  let run socket seconds action mode rate format out svg id wrapped =
    let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
    let* pmode = Obs.Profile.mode_of_string mode in
    let* pformat = Obs.Profile.format_of_string format in
    if svg <> None && pformat <> Obs.Profile.Collapsed then
      `Error (false, "--svg requires --format collapsed")
    else if seconds <= 0.0 then `Error (false, "--seconds must be > 0")
    else
      match (socket, wrapped) with
      | Some _, _ :: _ ->
          `Error (false, "choose --socket PATH or a subcommand to wrap, not both")
      | None, [] ->
          `Error
            ( false,
              "nothing to profile: pass --socket PATH for a live capture, or \
               a subcommand to wrap (schedtool profile -- solve ...)" )
      | Some path, [] -> (
          let* paction =
            match action with
            | "capture" -> Ok (Serve.Proto.P_capture seconds)
            | "status" -> Ok Serve.Proto.P_status
            | "start" -> Ok Serve.Proto.P_start
            | "stop" -> Ok Serve.Proto.P_stop
            | a ->
                Error
                  (Printf.sprintf
                     "unknown action %S (want capture|status|start|stop)" a)
          in
          let* body =
            Serve.Scrape.fetch_once path
              (Serve.Proto.Profile
                 { paction; pmode; prate = rate; pformat; pfilter = id })
          in
          match paction with
          | Serve.Proto.P_status | Serve.Proto.P_start ->
              (* status lines, not a profile: never SVG material *)
              print_string body;
              `Ok ()
          | Serve.Proto.P_stop | Serve.Proto.P_capture _ ->
              emit ~out ~svg
                ~title:(Printf.sprintf "schedtool profile · %s · %s" path mode)
                body)
      | None, args -> (
          if action <> "capture" then
            `Error (false, "--action only applies to --socket mode")
          else
            match !main_ref with
            | None -> assert false
            | Some main -> (
                match Obs.Profile.start ?rate pmode with
                | Error msg -> `Error (false, msg)
                | Ok () ->
                    let code =
                      Cmd.eval ~argv:(Array.of_list ("schedtool" :: args)) main
                    in
                    let body = Obs.Profile.render ?ctx:id pformat in
                    Obs.Profile.stop ();
                    let emitted =
                      emit ~out ~svg
                        ~title:
                          (Printf.sprintf "schedtool profile · %s · %s"
                             (String.concat " " args) mode)
                        body
                    in
                    if code <> 0 then
                      `Error
                        ( false,
                          Printf.sprintf "wrapped command exited with code %d"
                            code )
                    else emitted))
  in
  let info =
    Cmd.info "profile"
      ~doc:"Sampling profiler: capture collapsed stacks and flamegraphs \
            from a live serve socket, or run a local subcommand under \
            the profiler."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ socket_arg $ seconds_arg $ action_arg $ mode_arg
       $ rate_arg $ format_arg $ out_arg $ svg_arg $ id_arg $ wrapped_arg))

let main =
  let doc = "scheduling with setup times on (un-)related machines" in
  let info = Cmd.info "schedtool" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      gen_cmd; bounds_cmd; solve_cmd; verify_cmd; compare_cmd;
      experiments_cmd; fuzz_cmd; serve_cmd; loadgen_cmd; metrics_cmd;
      events_cmd; explain_cmd; trace_cmd; top_cmd; profile_cmd;
    ]

let () = main_ref := Some main
let () = exit (Cmd.eval main)
