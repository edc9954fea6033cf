let c_degraded = Obs.Counter.make "serve.dispatch.degraded"
let c_heavy = Obs.Counter.make "serve.dispatch.heavy_runs"
let c_fast_only = Obs.Counter.make "serve.dispatch.fast_only"
let c_shed = Obs.Counter.make "serve.dispatch.shed"

type outcome = {
  result : Algos.Common.result;
  solver : string;
  degraded : bool;
}

let solvers = [ "auto"; "greedy"; "lpt"; "portfolio"; "exact" ]

(* The catalogue's near-linear tier, skipping entries whose
   precondition fails; of equal makespans the earlier entry wins. *)
let fast_path ~seed t =
  List.fold_left
    (fun best (e : Algos.Catalog.entry) ->
      if not (e.fast && e.applies t) then best
      else
        let r = e.run ~seed t in
        match best with
        | Some (_, (b : Algos.Common.result))
          when not (r.Algos.Common.makespan < b.Algos.Common.makespan) ->
            best
        | _ -> Some (e.name, r))
    None Algos.Catalog.all

(* Node budget for branch and bound under a wall-clock budget: a
   conservative nodes-per-millisecond estimate so a nearly-expired
   deadline still yields a (possibly suboptimal) incumbent quickly. *)
let exact_node_limit remaining_ms =
  match remaining_ms with
  | None -> 2_000_000
  | Some ms -> max 10_000 (min 2_000_000 (int_of_float (ms *. 20_000.)))

let run_heavy ~hint ~remaining_ms ~seed t =
  match hint with
  | "exact" ->
      let outcome =
        Algos.Exact.solve ~node_limit:(exact_node_limit remaining_ms) t
      in
      let name = if outcome.Algos.Exact.optimal then "exact" else "exact-budgeted" in
      Some (name, outcome.Algos.Exact.result)
  | "portfolio" ->
      let report = Algos.Portfolio.run ~seed t in
      Some
        ( "portfolio:" ^ report.Algos.Portfolio.winner,
          report.Algos.Portfolio.best )
  | _ -> None

(* The [auto] policy by instance size: exact ground truth is realistic up
   to ~12 jobs, the full portfolio up to a couple hundred, beyond that
   the fast path is the only thing that holds up under load. *)
let auto_hint t =
  let n = Core.Instance.num_jobs t in
  if n <= 12 then Some "exact" else if n <= 200 then Some "portfolio" else None

(* One flight-recorder event per dispatch, recording which policy path
   fired — the causal evidence a slow-request dump needs. *)
let decision ?(shed = false) ~hint ~solver ~heavy ~degraded ~remaining_ms () =
  Obs.Event.emit "serve.dispatch.decision"
    ([
       ("hint", Obs.Event.Str hint);
       ("solver", Obs.Event.Str solver);
       ("heavy", Obs.Event.Bool heavy);
       ("degraded", Obs.Event.Bool degraded);
     ]
    @ (if shed then [ ("shed", Obs.Event.Bool true) ] else [])
    @
    match remaining_ms with
    | None -> []
    | Some ms -> [ ("remaining_ms", Obs.Event.Float ms) ])

let solve ?deadline_ms ?(hint = "auto") ?(seed = 1)
    ?(pressure = fun () -> false) t =
  Obs.Span.phase ~detail:("hint=" ^ hint)
    ~result_detail:(function
      | Ok o -> Printf.sprintf "hint=%s solver=%s" hint o.solver
      | Error _ -> Printf.sprintf "hint=%s error" hint)
    "serve.dispatch"
  @@ fun () ->
  if not (List.mem hint solvers) then
    Error
      (Printf.sprintf "unknown solver %S (expected one of: %s)" hint
         (String.concat ", " solvers))
  else
    let start_us = Obs.Sink.now_us () in
    let remaining_ms () =
      Option.map
        (fun d -> d -. ((Obs.Sink.now_us () -. start_us) /. 1000.))
        deadline_ms
    in
    match hint with
    | "greedy" | "lpt" -> (
        match Algos.Catalog.find hint with
        | Some e when e.applies t ->
            let result = e.run ~seed t in
            decision ~hint ~solver:e.name ~heavy:false ~degraded:false
              ~remaining_ms:(remaining_ms ()) ();
            Ok { result; solver = e.name; degraded = false }
        | _ ->
            Error
              (Printf.sprintf "solver %S does not apply to this instance" hint))
    | _ -> (
        match fast_path ~seed t with
        | None -> Error "no solver applies: some job is eligible nowhere"
        | Some (fast_name, fast_result) -> (
            let heavy_hint =
              match hint with "auto" -> auto_hint t | h -> Some h
            in
            match heavy_hint with
            | None ->
                Obs.Counter.incr c_fast_only;
                decision ~hint ~solver:fast_name ~heavy:false ~degraded:false
                  ~remaining_ms:(remaining_ms ()) ();
                Ok { result = fast_result; solver = fast_name; degraded = false }
            | Some heavy -> (
                let remaining = remaining_ms () in
                (* Admission control: when the process reports pressure
                   (saturated pool/cache or a stuck task), shed the heavy
                   tier pre-emptively — before deadline pressure — and
                   answer degraded from the fast path. *)
                let shed = pressure () in
                (* A heavy solver that cannot possibly finish inside the
                   budget would blow the deadline, not merely use it up:
                   exact adapts via its node limit down to ~2ms, the
                   portfolio runs unthrottled and needs real headroom. *)
                let floor_ms =
                  match heavy with "portfolio" -> 10.0 | _ -> 2.0
                in
                let expired =
                  match remaining with
                  | Some ms -> ms < floor_ms
                  | None -> false
                in
                if expired || shed then begin
                  if shed then Obs.Counter.incr c_shed
                  else Obs.Counter.incr c_degraded;
                  decision ~shed ~hint ~solver:fast_name ~heavy:false
                    ~degraded:true ~remaining_ms:remaining ();
                  Ok { result = fast_result; solver = fast_name; degraded = true }
                end
                else begin
                  Obs.Counter.incr c_heavy;
                  match run_heavy ~hint:heavy ~remaining_ms:remaining ~seed t with
                  | None -> assert false (* heavy is "exact" or "portfolio" *)
                  | exception Invalid_argument msg -> Error msg
                  | Some (heavy_name, heavy_result) ->
                      let name, result =
                        if
                          heavy_result.Algos.Common.makespan
                          <= fast_result.Algos.Common.makespan
                        then (heavy_name, heavy_result)
                        else (fast_name, fast_result)
                      in
                      decision ~hint ~solver:name ~heavy:true ~degraded:false
                        ~remaining_ms:(remaining_ms ()) ();
                      Ok { result; solver = name; degraded = false }
                end)))
