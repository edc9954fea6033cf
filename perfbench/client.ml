(* Client side of the benchmark: TCP connections to the mux, the closed
   loop that drives them, and the check of every reply against the
   client's own copy of the instance. *)

module I = Core.Instance
module P = Serve.Proto
module W = Workload
open Util

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write oc (frame : P.incoming) =
  match frame with
  | P.Solve req -> P.write_request oc req
  | P.Session sreq -> P.write_session_request oc sreq
  | P.Stats _ | P.Events _ | P.Health | P.Explain _ | P.Profile _ ->
      invalid_arg "Client.write: workloads send solve and session frames only"

(* --- the output check ------------------------------------------------------ *)

(* The wire prints makespans with %g (six significant digits), so the
   recomputed makespan is rounded the same way before the relative 1e-6
   comparison. *)
let wire_rounded x = float_of_string (Printf.sprintf "%g" x)

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
        else if not (close_enough (wire_rounded recomputed) r.P.makespan) then
          Error
            (Printf.sprintf "reply makespan %g, recomputed %.17g" r.P.makespan
               recomputed)
        else Ok (Some r)

(* [Ok (Some r)]: a schedule-bearing reply that passed; [Ok None]: an
   acknowledgement that passed. *)
let check (it : W.item) (resp : P.response) =
  match (it.W.expect, resp) with
  | _, P.Error msg -> Error ("error reply: " ^ msg)
  | W.Schedule inst, P.Reply r -> check_schedule inst r
  | W.Schedule inst, P.Session_reply { P.op = "resolve"; jobs; solve = Some r; _ }
    when jobs = I.num_jobs inst ->
      check_schedule inst r
  | W.Ack { op; jobs }, P.Session_reply s when s.P.op = op && s.P.jobs = jobs ->
      Ok None
  | _ -> Error "reply does not match the frame"

(* --- per-window tally --------------------------------------------------- *)

type tally = {
  mutable attempted : int;  (* frames answered (or failed) in the window *)
  mutable errors : int;  (* error replies *)
  mutable transport : int;  (* connection failures *)
  mutable bad : int;  (* replies that failed the check *)
  mutable schedules : int;  (* schedule-bearing replies that passed *)
  mutable degraded : int;
  mutable heavy_kept : int;  (* solved (not cached) by the heavy tier *)
  mutable first_failure : string option;
  latency_us : Fvec.t;  (* schedule-bearing frames: write -> reply parsed *)
  done_us : Fvec.t;  (* when each of those replies was parsed *)
  overhead_us : Fvec.t;  (* latency minus the reply's elapsed_us *)
  quality : (int, float ref * int ref) Hashtbl.t;
      (* item id -> makespan sum and reply count *)
  keep_log : bool;
  mutable log : (int * W.item * P.response) list;  (* newest first *)
}

let tally ?(keep_log = false) () =
  {
    attempted = 0;
    errors = 0;
    transport = 0;
    bad = 0;
    schedules = 0;
    degraded = 0;
    heavy_kept = 0;
    first_failure = None;
    latency_us = Fvec.create ();
    done_us = Fvec.create ();
    overhead_us = Fvec.create ();
    quality = Hashtbl.create 1024;
    keep_log;
    log = [];
  }

let failed t = t.errors + t.transport + t.bad

let heavy solver =
  String.starts_with ~prefix:"exact" solver
  || String.starts_with ~prefix:"portfolio:" solver

let note_failure t msg =
  if t.first_failure = None then t.first_failure <- Some msg

let record t ~req (it : W.item) ~rtt_us ~at_us resp =
  t.attempted <- t.attempted + 1;
  match resp with
  | Error msg ->
      t.transport <- t.transport + 1;
      note_failure t ("transport: " ^ msg)
  | Ok resp -> (
      if t.keep_log then t.log <- (req, it, resp) :: t.log;
      match check it resp with
      | Error msg ->
          (match resp with
          | P.Error _ -> t.errors <- t.errors + 1
          | _ -> t.bad <- t.bad + 1);
          note_failure t msg
      | Ok None -> ()
      | Ok (Some r) -> (
          t.schedules <- t.schedules + 1;
          Fvec.push t.latency_us rtt_us;
          Fvec.push t.done_us at_us;
          Fvec.push t.overhead_us (rtt_us -. float_of_int r.P.elapsed_us);
          if r.P.degraded then t.degraded <- t.degraded + 1;
          if (not r.P.cache_hit) && heavy r.P.solver then
            t.heavy_kept <- t.heavy_kept + 1;
          match Hashtbl.find_opt t.quality it.W.id with
          | Some (sum, count) ->
              sum := !sum +. r.P.makespan;
              incr count
          | None -> Hashtbl.add t.quality it.W.id (ref r.P.makespan, ref 1)))

(* Mean of makespan / certified lower bound over the schedule-bearing
   replies; [lower_bound] maps an item id to its instance's bound and is
   called here, outside the timed window. *)
let quality_ratio_mean t ~lower_bound =
  let sum = ref 0.0 and count = ref 0 in
  Hashtbl.iter
    (fun id (makespans, n) ->
      sum := !sum +. (!makespans /. lower_bound id);
      count := !count + !n)
    t.quality;
  ratio !sum (float_of_int !count)

(* --- the closed loop ---------------------------------------------------- *)

(* A wedged server fails the run at this wall-clock time instead of
   hanging it. *)
let hard_stop_us = ref infinity

(* Frame ids shared by the client spans and the replay spans of a frame. *)
let next_req = ref 0

(* Drive the connections in a closed loop: each sends its next frame only
   after it has read the reply to the previous one. A connection stops
   sending after [limit] frames or at [deadline_us]; replies still in
   flight then are read but not recorded. With [spans], the client-side
   calls are traced. *)
let run ?spans conns (streams : W.stream array) ~limit ~deadline_us t =
  let n = Array.length conns in
  let sent = Array.make n 0 in
  let inflight = Array.make n None in
  let dead = Array.make n false in
  let may_send i = (not dead.(i)) && sent.(i) < limit && now_us () < deadline_us in
  let send i =
    let it = streams.(i) () in
    let req = !next_req in
    incr next_req;
    Option.iter (fun sp -> Spans.set_req sp req) spans;
    let t0 = now_us () in
    match Spans.maybe spans "proto.write_request" (fun () -> write conns.(i).oc it.W.frame) with
    | () ->
        sent.(i) <- sent.(i) + 1;
        inflight.(i) <- Some (req, it, t0)
    | exception Sys_error msg ->
        dead.(i) <- true;
        record t ~req it ~rtt_us:0.0 ~at_us:t0 (Error msg)
  in
  let receive i =
    match inflight.(i) with
    | None -> ()
    | Some (req, it, t0) ->
        inflight.(i) <- None;
        Option.iter (fun sp -> Spans.set_req sp req) spans;
        let resp =
          Spans.maybe spans "proto.read_response" (fun () ->
              match P.read_response conns.(i).ic with
              | Ok (Some r) -> Ok r
              | Ok None -> Error "server closed the connection"
              | Error msg -> Error msg
              | exception Sys_error msg -> Error msg)
        in
        let t1 = now_us () in
        if Result.is_error resp then dead.(i) <- true;
        if t1 <= deadline_us then
          Spans.maybe spans "client.check" (fun () ->
              record t ~req it ~rtt_us:(t1 -. t0) ~at_us:t1 resp);
        if may_send i then send i
  in
  for i = 0 to n - 1 do
    if may_send i then send i
  done;
  let rec loop () =
    let waiting = List.filter (fun i -> Option.is_some inflight.(i)) (List.init n Fun.id) in
    if waiting <> [] then begin
      if now_us () > !hard_stop_us then failwith "no reply before the run's hard stop";
      let ready =
        match Unix.select (List.map (fun i -> conns.(i).fd) waiting) [] [] 1.0 with
        | ready, _, _ -> ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter (fun i -> if List.mem conns.(i).fd ready then receive i) waiting;
      loop ()
    end
  in
  loop ()
