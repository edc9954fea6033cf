(* The client side of the wire as a load driver: the check every reply
   passes against the client's own copy of the instance, one tally of
   what came back, and the drivers of `schedtool loadgen` (closed loop,
   pipelined burst, hold-open, session lifecycles), which bench/main.ml
   reuses for its mux records. Connections are Scrape's. *)

module I = Core.Instance
module P = Proto

(* --- the reply check ------------------------------------------------------ *)

type expect = Schedule of I.t | Ack of { op : string; jobs : int }

(* The wire prints makespans with %g (six significant digits), so both
   makespans are rounded the same way before the relative 1e-6
   comparison: a reply read off the wire is already rounded (the
   rounding is idempotent), and an in-process reply states the exact
   value. *)
let wire_rounded x = float_of_string (Printf.sprintf "%g" x)

let close_enough a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b))

let check_schedule inst (r : P.reply) =
  if Array.length r.P.assignment <> I.num_jobs inst then
    Error "assignment has the wrong length"
  else
    match Core.Schedule.make inst r.P.assignment with
    | exception Invalid_argument msg -> Error msg
    | s ->
        let recomputed = Core.Schedule.makespan s in
        if not (Core.Schedule.is_valid inst s) then
          Error "schedule is not valid for the instance"
        else if
          not (close_enough (wire_rounded recomputed) (wire_rounded r.P.makespan))
        then
          Error
            (Printf.sprintf "reply makespan %g, recomputed %.17g" r.P.makespan
               recomputed)
        else Ok (Some r)

let check expect (resp : P.response) =
  match (expect, resp) with
  | _, P.Error msg -> Error ("error reply: " ^ msg)
  | Schedule inst, P.Reply r -> check_schedule inst r
  | Schedule inst, P.Session_reply { P.op = "resolve"; jobs; solve = Some r; _ }
    when jobs = I.num_jobs inst ->
      check_schedule inst r
  | Ack { op; jobs }, P.Session_reply s when s.P.op = op && s.P.jobs = jobs ->
      Ok None
  | _ -> Error "reply does not match the frame"

(* --- the tally ------------------------------------------------------------ *)

type tally = {
  mutable answered : int;
  mutable schedules : int;
  mutable hits : int;
  mutable degraded : int;
  mutable errors : int;
  mutable invalid : int;
  mutable first_invalid : string option;
  mutable echo_bad : int;
  mutable failure : string option;
  mutable latencies_us : float list;
  mutable repairs_us : float list;
  mutable slowest : float * string;
  mutable last_makespan : float;
  mutable modes : (string * int) list;
}

let tally () =
  {
    answered = 0;
    schedules = 0;
    hits = 0;
    degraded = 0;
    errors = 0;
    invalid = 0;
    first_invalid = None;
    echo_bad = 0;
    failure = None;
    latencies_us = [];
    repairs_us = [];
    slowest = (neg_infinity, "");
    last_makespan = nan;
    modes = [];
  }

let observe t ~id us =
  t.latencies_us <- us :: t.latencies_us;
  if us > fst t.slowest then t.slowest <- (us, id)

let lost t msg = if t.failure = None then t.failure <- Some msg

(* The trace id a solve frame carries; its reply must echo it. *)
let sent_tid = function
  | P.Solve { P.trace = Some { P.tid; _ }; _ } -> Some tid
  | _ -> None

let record t frame expect resp ~us =
  t.answered <- t.answered + 1;
  (match (sent_tid frame, resp) with
  | Some tid, P.Reply r when r.P.trace <> Some tid -> t.echo_bad <- t.echo_bad + 1
  | _ -> ());
  match check expect resp with
  | Error msg ->
      (match resp with
      | P.Error _ -> t.errors <- t.errors + 1
      | _ ->
          t.invalid <- t.invalid + 1;
          if t.first_invalid = None then t.first_invalid <- Some msg);
      None
  | Ok None -> Some (resp, us)
  | Ok (Some r) ->
      t.schedules <- t.schedules + 1;
      if r.P.cache_hit then t.hits <- t.hits + 1;
      if r.P.degraded then t.degraded <- t.degraded + 1;
      t.last_makespan <- r.P.makespan;
      (match resp with
      | P.Reply _ -> observe t ~id:(Option.value ~default:"" (sent_tid frame)) us
      | P.Session_reply { P.mode = Some m; _ } ->
          let n = Option.value ~default:0 (List.assoc_opt m t.modes) in
          t.modes <- (m, n + 1) :: List.remove_assoc m t.modes
      | _ -> ());
      Some (resp, us)

let round_trip t conn expect frame =
  if t.failure <> None then None
  else
    let t0 = Obs.Sink.now_us () in
    match Scrape.exchange conn frame with
    | Error msg ->
        lost t msg;
        None
    | Ok resp -> record t frame expect resp ~us:(Obs.Sink.now_us () -. t0)

(* Exact nearest-rank percentiles, sorted in place. Exact values, not
   histogram buckets: a bucket spans up to ~25%, and the profiler
   overhead gate checks a 3% p50 bound. *)
let percentiles lat =
  let n = Array.length lat in
  if n = 0 then []
  else begin
    Array.sort Float.compare lat;
    let q p =
      let idx = int_of_float (Float.round (p *. float_of_int n)) - 1 in
      lat.(max 0 (min (n - 1) idx))
    in
    List.map (fun (label, p) -> (label ^ "_us", q p)) Obs.Expo.quantile_points
    @ [ ("max_us", lat.(n - 1)) ]
  end

(* --- connections ---------------------------------------------------------- *)

let connect_all target n =
  let rec go acc k =
    if k = n then Ok (Array.of_list (List.rev acc))
    else
      match Scrape.connect target with
      | Ok c -> go (c :: acc) (k + 1)
      | Error msg ->
          List.iter Scrape.close acc;
          Error
            (if k = 0 then msg
             else Printf.sprintf "opened %d of %d connections, then: %s" k n msg)
  in
  go [] 0

(* --- the drivers ---------------------------------------------------------- *)

type load = {
  instance : I.t;
  permute : bool;
  seed : int;
  solver : string option;
  deadline_ms : float option;
}

let relabel load rng =
  if load.permute then Canon.shuffle rng load.instance else load.instance

let solve_frame load instance trace =
  P.Solve { P.solver = load.solver; deadline_ms = load.deadline_ms; instance; trace }

let closed_loop load conns ~count =
  let t = tally () in
  let rng = Workloads.Rng.create load.seed in
  let i = ref 1 in
  while !i <= count && t.failure = None do
    let instance = relabel load rng in
    (* client-minted trace id, propagated on the wire; the open client
       span becomes the server root's parent so merged traces chain
       across the process boundary *)
    let tid = Printf.sprintf "lg%d.%d" load.seed !i in
    (Obs.Sink.with_ctx tid @@ fun () ->
     Obs.Span.phase ~detail:("trace=" ^ tid) "loadgen.request" @@ fun () ->
     let trace = Some { P.tid; parent = Obs.Sink.current_span () } in
     ignore
       (round_trip t
          conns.((!i - 1) mod Array.length conns)
          (Schedule instance) (solve_frame load instance trace)));
    incr i
  done;
  t

let burst t conns frames =
  let conn k = conns.(k mod Array.length conns) in
  let sent = Array.make (Array.length frames) 0.0 in
  let written = ref 0 in
  (try
     Array.iteri
       (fun k (frame, _) ->
         sent.(k) <- Obs.Sink.now_us ();
         P.write_incoming (conn k).Scrape.oc frame;
         incr written)
       frames
   with Sys_error msg -> lost t msg);
  (* replies come back in send order on each connection, so reading in
     send order is safe; stop at the first stream that fails *)
  let rec read k =
    if k < !written then
      match P.read_response (conn k).Scrape.ic with
      | Ok (Some resp) ->
          let frame, expect = frames.(k) in
          ignore (record t frame expect resp ~us:(Obs.Sink.now_us () -. sent.(k)));
          read (k + 1)
      | Ok None -> lost t "server closed the session"
      | Error msg | (exception Sys_error msg) -> lost t msg
  in
  read 0

let pipelined load conns ~count =
  let t = tally () in
  let rng = Workloads.Rng.create load.seed in
  let frames =
    Array.init count (fun k ->
        let instance = relabel load rng in
        let tid = Printf.sprintf "lg%d.%d" load.seed (k + 1) in
        ( solve_frame load instance (Some { P.tid; parent = None }),
          Schedule instance ))
  in
  burst t conns frames;
  t

let hold_open conns ~seconds ~on_hold =
  let t = tally () in
  (try
     Array.iter
       (fun c ->
         output_string c.Scrape.oc "request v1\n";
         flush c.Scrape.oc)
       conns;
     on_hold ();
     Unix.sleepf seconds
   with Sys_error msg -> lost t msg);
  t

let sessions load conns ~sessions ~mutations =
  let t = tally () in
  let rng = Workloads.Rng.create load.seed in
  let s = ref 1 in
  while !s <= sessions && t.failure = None do
    let base = relabel load rng in
    let sid = Printf.sprintf "lg%d-%d" load.seed !s in
    let conn = conns.((!s - 1) mod Array.length conns) in
    (Obs.Sink.with_ctx sid @@ fun () ->
     Obs.Span.phase ~detail:("sid=" ^ sid) "loadgen.session" @@ fun () ->
     (* every frame of the lifecycle carries the session id as its trace
        id, with the client's open span as the parent link *)
     let send expect op =
       let trace = Some { P.tid = sid; parent = Obs.Sink.current_span () } in
       round_trip t conn expect (P.Session { P.sid; op; trace })
     in
     let ack op inst =
       send (Ack { op = P.session_op_name op; jobs = I.num_jobs inst }) op <> None
     in
     (* cache hits say nothing about solver latency: the first resolve
        is the from-scratch sample, later ones the repair samples *)
     let resolve ~first inst =
       match send (Schedule inst) (P.S_resolve { deadline_ms = load.deadline_ms }) with
       | None | Some (P.Session_reply { P.mode = Some "cache"; _ }, _) -> ()
       | Some (_, us) ->
           if first then observe t ~id:sid us
           else t.repairs_us <- us :: t.repairs_us
     in
     if ack (P.S_create base) base then begin
       resolve ~first:true base;
       let local = ref base in
       for k = 1 to mutations do
         let n = I.num_jobs !local in
         let op, next =
           if k land 1 = 0 && n > 1 then
             (P.S_drop_jobs [ n - 1 ], I.induced !local (List.init (n - 1) Fun.id))
           else
             (* a clone of a random job is valid in every environment *)
             let job = I.clone_job !local (Workloads.Rng.int rng n) in
             (P.S_add_jobs [ job ], I.append_jobs !local [ job ])
         in
         if ack op next then local := next;
         resolve ~first:false !local
       done;
       ignore (ack P.S_close !local)
     end);
    incr s
  done;
  t
