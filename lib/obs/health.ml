(* Liveness, readiness and saturation for a long-lived serving process.

   Per-domain heartbeat slots live in a Ring.slot, like Histogram's
   shards: each domain owns one mutable slot, so stamping a beat is a
   few plain writes and never takes a lock on the hot path. The watchdog
   and the status computation read every slot; reads race benignly with
   writers (word-sized stores cannot tear).

   A slot tracks the innermost current unit of work: Parallel.Pool
   workers mark task begin/end, the serving layer marks itself Waiting
   while blocked on client input (a session parked in read is not a
   wedged task) and beats at request boundaries. The watchdog flags a
   Working slot whose last beat is older than the task budget — exactly
   once per incident — and recovery is announced when the task ends. *)

let c_checks = Counter.make "health.checks"
let c_stuck = Counter.make "health.stuck_tasks"
let g_status = Gauge.make "health.status"

type status = Ok | Degraded of string | Unhealthy of string

let status_to_string = function
  | Ok -> "ok"
  | Degraded _ -> "degraded"
  | Unhealthy _ -> "unhealthy"

let status_reason = function
  | Ok -> None
  | Degraded r | Unhealthy r -> Some r

let severity = function Ok -> 0 | Degraded _ -> 1 | Unhealthy _ -> 2
let worst a b = if severity b > severity a then b else a

(* --- heartbeat slots ----------------------------------------------------- *)

type state = Idle | Working | Waiting

let state_to_string = function
  | Idle -> "idle"
  | Working -> "working"
  | Waiting -> "waiting"

type slot = {
  domain : int;
  mutable state : state;
  mutable task : string;  (* "" when idle *)
  mutable ctx : string option;
  mutable task_started_us : float;
  mutable last_beat_us : float;
  mutable stuck_reported : bool;
}

let slots =
  Ring.slot (fun () ->
      {
        domain = (Domain.self () :> int);
        state = Idle;
        task = "";
        ctx = None;
        task_started_us = 0.0;
        last_beat_us = Sink.now_us ();
        stuck_reported = false;
      })

let my_slot () = Ring.get slots

let emit_recovered s =
  Event.emit "health.task_recovered"
    [
      ("task", Event.Str s.task);
      ("domain", Event.Int s.domain);
      ( "age_ms",
        Event.Float ((Sink.now_us () -. s.task_started_us) /. 1000.) );
    ]

let task_begin name =
  let s = my_slot () in
  let now = Sink.now_us () in
  s.state <- Working;
  s.task <- name;
  s.ctx <- Sink.current_ctx ();
  s.task_started_us <- now;
  s.last_beat_us <- now;
  s.stuck_reported <- false

let beat () =
  let s = my_slot () in
  s.last_beat_us <- Sink.now_us ();
  s.state <- Working;
  match Sink.current_ctx () with None -> () | Some _ as ctx -> s.ctx <- ctx

let waiting () =
  let s = my_slot () in
  if s.stuck_reported then emit_recovered s;
  s.state <- Waiting;
  s.last_beat_us <- Sink.now_us ();
  s.stuck_reported <- false

let task_end () =
  let s = my_slot () in
  if s.stuck_reported then emit_recovered s;
  s.state <- Idle;
  s.task <- "";
  s.ctx <- None;
  s.last_beat_us <- Sink.now_us ();
  s.stuck_reported <- false

type heartbeat = {
  hdomain : int;
  hstate : string;  (* idle | working | waiting *)
  htask : string option;
  hctx : string option;
  beat_age_s : float;
  task_age_s : float;
}

let heartbeats () =
  let now = Sink.now_us () in
  Ring.all slots
  |> List.map (fun s ->
         {
           hdomain = s.domain;
           hstate = state_to_string s.state;
           htask = (if s.task = "" then None else Some s.task);
           hctx = s.ctx;
           beat_age_s = Float.max 0.0 ((now -. s.last_beat_us) /. 1e6);
           task_age_s =
             (* a slot beating outside a named task (a serve session
                between requests) has no task start to age against *)
             (if s.state = Idle || s.task_started_us = 0.0 then 0.0
              else Float.max 0.0 ((now -. s.task_started_us) /. 1e6));
         })
  |> List.sort (fun a b -> compare a.hdomain b.hdomain)

(* --- watchdog ------------------------------------------------------------ *)

let default_task_budget_s = 30.0
let budget_us = Atomic.make (int_of_float (default_task_budget_s *. 1e6))

(* a stuck task this many budgets old stops being "degraded" and makes
   the whole process unhealthy *)
let unhealthy_factor = 10.0

let set_task_budget_s s =
  if s <= 0.0 then invalid_arg "Health.set_task_budget_s: budget must be > 0";
  Atomic.set budget_us (int_of_float (s *. 1e6))

let task_budget_s () = float_of_int (Atomic.get budget_us) /. 1e6

type stuck = {
  sdomain : int;
  stask : string;
  sctx : string option;
  sage_s : float;
}

let stuck_hook : (stuck -> unit) option ref = ref None
let set_stuck_hook h = stuck_hook := h

(* Working slots whose last beat is older than the budget. [report]
   additionally emits the one-per-incident event and fires the hook. *)
let scan_stuck ~report =
  let now = Sink.now_us () in
  let budget = float_of_int (Atomic.get budget_us) in
  List.filter_map
    (fun s ->
      if s.state <> Working || now -. s.last_beat_us <= budget then None
      else begin
        let st =
          {
            sdomain = s.domain;
            stask = s.task;
            sctx = s.ctx;
            sage_s = (now -. s.last_beat_us) /. 1e6;
          }
        in
        if report && not s.stuck_reported then begin
          s.stuck_reported <- true;
          Counter.incr c_stuck;
          Event.emit ~level:Event.Warn "health.stuck_task"
            ([
               ("task", Event.Str st.stask);
               ("domain", Event.Int st.sdomain);
               ("age_ms", Event.Float (st.sage_s *. 1000.));
             ]
            @
            match st.sctx with
            | Some req -> [ ("req", Event.Str req) ]
            | None -> []);
          match !stuck_hook with None -> () | Some h -> h st
        end;
        Some st
      end)
    (Ring.all slots)

let check () =
  Counter.incr c_checks;
  scan_stuck ~report:true

(* --- saturation meters ---------------------------------------------------- *)

type meter = {
  fill : unit -> float;
  degraded_at : float;
  unhealthy_at : float;
}

let meter_registry : meter Registry.t = Registry.create ()

let register_meter ?(degraded_at = 0.8) ?(unhealthy_at = 1.5) name fill =
  Registry.replace meter_registry name { fill; degraded_at; unhealthy_at }

let read_fill m = try m.fill () with _ -> nan

let meters () =
  List.map
    (fun (name, m) -> (name, read_fill m))
    (Registry.to_list meter_registry)

(* --- composite status ---------------------------------------------------- *)

(* Liveness: are the domains making progress? Only the heartbeat/stuck
   evidence counts; saturation cannot make a process un-live. *)
let liveness () =
  let budget = task_budget_s () in
  List.fold_left
    (fun acc st ->
      let s =
        if st.sage_s > unhealthy_factor *. budget then
          Unhealthy
            (Printf.sprintf "task %s on domain %d wedged for %.1fs" st.stask
               st.sdomain st.sage_s)
        else
          Degraded
            (Printf.sprintf "stuck task %s on domain %d (%.1fs over budget)"
               st.stask st.sdomain (st.sage_s -. budget))
      in
      worst acc s)
    Ok
    (scan_stuck ~report:false)

(* Readiness: liveness plus every saturation meter. This is the
   admission-control signal Serve.Dispatch consults. Meters fold in name
   order, so among equally severe meters the first by name gives the
   reason. *)
let status () =
  let meter_status =
    List.fold_left
      (fun acc (name, m) ->
        let fill = read_fill m in
        let s =
          if Float.is_nan fill then Ok
          else if fill >= m.unhealthy_at then
            Unhealthy
              (Printf.sprintf "%s saturated (%.0f%%)" name (100. *. fill))
          else if fill >= m.degraded_at then
            Degraded
              (Printf.sprintf "%s near capacity (%.0f%%)" name (100. *. fill))
          else Ok
        in
        worst acc s)
      Ok
      (Registry.to_list meter_registry)
  in
  let s = worst (liveness ()) meter_status in
  Gauge.set g_status (float_of_int (severity s));
  s

(* --- health-frame rendering ---------------------------------------------- *)

(* Line-based, one k=v token stream per repeated line kind, so a scraper
   (schedtool top) needs no JSON parser. *)
let render_lines () =
  let s = status () in
  let live = liveness () in
  let status_lines =
    [ "status " ^ status_to_string s ]
    @ (match status_reason s with
      | Some r -> [ "reason " ^ r ]
      | None -> [])
    @ [ "liveness " ^ status_to_string live ]
    @ (match status_reason live with
      | Some r when status_reason s <> Some r -> [ "liveness_reason " ^ r ]
      | _ -> [])
    @ [ Printf.sprintf "task_budget_s %g" (task_budget_s ()) ]
  in
  let meter_lines =
    List.map
      (fun (name, fill) -> Printf.sprintf "meter name=%s fill=%.3f" name fill)
      (meters ())
  in
  let heartbeat_lines =
    List.map
      (fun h ->
        Printf.sprintf
          "heartbeat domain=%d state=%s task=%s req=%s beat_age_s=%.3f \
           task_age_s=%.3f"
          h.hdomain h.hstate
          (Option.value ~default:"-" h.htask)
          (Option.value ~default:"-" h.hctx)
          h.beat_age_s h.task_age_s)
      (heartbeats ())
  in
  status_lines @ meter_lines @ heartbeat_lines

(* --- test support -------------------------------------------------------- *)

let reset () =
  Registry.clear meter_registry;
  stuck_hook := None;
  Atomic.set budget_us (int_of_float (default_task_budget_s *. 1e6));
  let now = Sink.now_us () in
  List.iter
    (fun s ->
      s.state <- Idle;
      s.task <- "";
      s.ctx <- None;
      s.stuck_reported <- false;
      s.last_beat_us <- now)
    (Ring.all slots)
