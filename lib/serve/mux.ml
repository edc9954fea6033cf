(* Readiness-driven multiplexed transport: one event loop owns every
   socket (listeners and connections, all non-blocking), feeds received
   bytes to Proto.Incremental, and submits each admitted request to the
   service's pool — a server's or a shard router's (Server.service) —
   whose queue is the bounded admission queue. Replies come back through
   a completion queue + wake pipe and are written in arrival order per
   connection (pipelining-safe). The loop itself never blocks on a peer:
   a slow client only fills its own output buffer. *)

type admission = Admitted | Shed_queue_full | Shed_pressure | Shed_deadline

type config = {
  max_pending : int;
  max_connections : int;
}

let default_config =
  {
    max_pending = 64;
    (* [Unix.select] caps descriptor values at FD_SETSIZE (1024 on
       Linux); 1008 client sockets leave room for stdio, listeners, the
       wake pipe and a few log files *)
    max_connections = 1008;
  }

(* Per-connection state. [slots] keeps one cell per frame received, in
   arrival order; a response may be computed out of order (inline sheds
   finish before pooled solves) but is only serialized once every
   earlier slot has been written, so pipelined clients read replies in
   request order. Session frames also *run* in arrival order: while one
   is queued or on a worker ([session_busy]), later ones wait in [held]
   with their slots already in line. *)
type conn = {
  fd : Unix.file_descr;
  parser : Proto.Incremental.t;
  slots : Proto.response option ref Queue.t;
  held : (Proto.response option ref * Proto.incoming) Queue.t;
  mutable session_busy : bool;
  out : Buffer.t;
  mutable out_off : int;
  mutable eof : bool;  (* peer closed its write side; drain then close *)
  mutable closed : bool;
}

(* One admitted request on its way through the pool; [wenq_us] dates
   the admission so the worker that starts it can charge the wait
   against the request's own deadline, and [wpressure] is the health
   verdict taken at admission, which the worker's dispatch uses instead
   of reading health again: otherwise the frames queued behind this one,
   filling the mux.queue meter, would shed the frame the mux admitted. *)
type work = {
  wconn : conn;
  wslot : Proto.response option ref;
  wincoming : Proto.incoming;
  wenq_us : float;
  wpressure : bool;
}

type metrics = {
  c_accepted : Obs.Counter.t;
  c_closed : Obs.Counter.t;
  c_conn_rejected : Obs.Counter.t;
  c_wakeups : Obs.Counter.t;
  adm_admitted : Obs.Labeled.cell;
  adm_shed_queue_full : Obs.Labeled.cell;
  adm_shed_pressure : Obs.Labeled.cell;
  adm_shed_deadline : Obs.Labeled.cell;
  g_connections : Obs.Gauge.t;
  g_queue_depth : Obs.Gauge.t;
  g_queue_peak : Obs.Gauge.t;
  h_queue_wait_us : Obs.Histogram.t;
}

type t = {
  svc : Server.service;
  config : config;
  mutable listeners : (Unix.file_descr * string option) list;
      (* fd, unix path to unlink on exit *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable inflight : int;  (* submitted to the pool, not yet drained back *)
  workers : int;  (* pool workers beyond the loop's domain *)
  completed : (work * Proto.response option) Queue.t;
  completed_mutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* the loop's read buffer: one per mux, since muxes in one process
     (a router and its backends in a test) run on different domains *)
  chunk : Bytes.t;
  stopping : bool Atomic.t;
  m : metrics;
}

(* Metrics are created per-mux (not at module load) so processes that
   never start the mux — plain [schedtool metrics], [--stdio] sessions —
   do not grow serve.mux.* series in their expositions. *)
let make_metrics () =
  let admission = Obs.Labeled.family "serve.mux.admission" ~label:"outcome" in
  {
    c_accepted = Obs.Counter.make "serve.mux.accepted";
    c_closed = Obs.Counter.make "serve.mux.closed";
    c_conn_rejected = Obs.Counter.make "serve.mux.conn_rejected";
    c_wakeups = Obs.Counter.make "serve.mux.wakeups";
    adm_admitted = Obs.Labeled.cell admission "admitted";
    adm_shed_queue_full = Obs.Labeled.cell admission "shed_queue_full";
    adm_shed_pressure = Obs.Labeled.cell admission "shed_pressure";
    adm_shed_deadline = Obs.Labeled.cell admission "shed_deadline";
    g_connections = Obs.Gauge.make "serve.mux.connections";
    g_queue_depth = Obs.Gauge.make "serve.mux.queue_depth";
    g_queue_peak = Obs.Gauge.make "serve.mux.queue_peak";
    h_queue_wait_us = Obs.Histogram.make "serve.mux.queue_wait_us";
  }

let of_service ?(config = default_config) (svc : Server.service) =
  if config.max_pending < 1 then
    invalid_arg "Mux.create: max_pending must be >= 1";
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      svc;
      config;
      listeners = [];
      conns = Hashtbl.create 64;
      inflight = 0;
      workers = max 0 (Parallel.Pool.size svc.pool - 1);
      completed = Queue.create ();
      completed_mutex = Mutex.create ();
      wake_r;
      wake_w;
      chunk = Bytes.create 65536;
      stopping = Atomic.make false;
      m = make_metrics ();
    }
  in
  (* admission-queue fill is this transport's saturation signal; the
     health lattice in turn throttles admission (see [capacity]) *)
  Obs.Health.register_meter "mux.queue" (fun () ->
      Obs.Gauge.value t.m.g_queue_depth /. float_of_int config.max_pending);
  Obs.Slo.register ~name:"mux-admission" ~target:0.99
    (Obs.Slo.Availability
       { family = "serve.mux.admission"; good_values = [ "admitted" ] });
  t

let create ?config server = of_service ?config (Server.service server)

let add_listener t fd path =
  Unix.set_nonblock fd;
  t.listeners <- (fd, path) :: t.listeners

let add_tcp t ~host ~port =
  let fd = Scrape.listen (Scrape.tcp_address ~host ~port) in
  add_listener t fd None;
  Unix.getsockname fd

let add_unix t ~path =
  add_listener t (Scrape.listen (Unix.ADDR_UNIX path)) (Some path)

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let stop t =
  Atomic.set t.stopping true;
  wake t

(* --- output path -------------------------------------------------------- *)

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    Hashtbl.remove t.conns conn.fd;
    Obs.Counter.incr t.m.c_closed;
    Obs.Gauge.set t.m.g_connections (float_of_int (Hashtbl.length t.conns));
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Opportunistic non-blocking write of whatever is buffered; leftovers
   keep the fd in the select write set. *)
let try_write t conn =
  if not conn.closed then begin
    let len = Buffer.length conn.out in
    (try
       while conn.out_off < Buffer.length conn.out do
         let off = conn.out_off in
         let chunk = min 65536 (Buffer.length conn.out - off) in
         let s = Buffer.sub conn.out off chunk in
         let n = Unix.write_substring conn.fd s 0 chunk in
         conn.out_off <- conn.out_off + n
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        close_conn t conn);
    if (not conn.closed) && conn.out_off >= len && conn.out_off > 0 then begin
      Buffer.clear conn.out;
      conn.out_off <- 0
    end;
    (* a drained peer is done once every reply is out *)
    if
      (not conn.closed)
      && conn.eof
      && Queue.is_empty conn.slots
      && Buffer.length conn.out = 0
    then close_conn t conn
  end

(* Serialize every response that is ready *in order*: stop at the first
   slot still pending so pipelined replies never overtake each other. *)
let pump t conn =
  let advanced = ref false in
  let rec drain () =
    match Queue.peek_opt conn.slots with
    | Some { contents = Some response } ->
        ignore (Queue.pop conn.slots);
        Buffer.add_string conn.out (Proto.response_to_string response);
        advanced := true;
        drain ()
    | Some { contents = None } | None -> ()
  in
  drain ();
  if !advanced then try_write t conn

(* --- admission + dispatch ---------------------------------------------- *)

(* The admission backlog as the loop counts it: frames submitted and
   not yet drained back, less one per worker. It never runs below the
   truth, and admission decides against the same count in every run. *)
let backlog t = max 0 (t.inflight - t.workers)

let set_queue_depth t =
  let d = float_of_int (backlog t) in
  Obs.Gauge.set t.m.g_queue_depth d;
  Obs.Gauge.set_max t.m.g_queue_peak d

(* Effective admission capacity under the health lattice: a degraded
   process halves the queue it is willing to hold, an unhealthy one
   stops queueing entirely (every pooled request is shed until the
   meters recover). *)
let capacity t status =
  match status with
  | Obs.Health.Ok -> t.config.max_pending
  | Obs.Health.Degraded _ -> max 1 (t.config.max_pending / 2)
  | Obs.Health.Unhealthy _ -> 0

let record_admission t outcome =
  Obs.Labeled.incr
    (match outcome with
    | Admitted -> t.m.adm_admitted
    | Shed_queue_full -> t.m.adm_shed_queue_full
    | Shed_pressure -> t.m.adm_shed_pressure
    | Shed_deadline -> t.m.adm_shed_deadline)

(* Answer an admitted request where it starts: on a worker, or on the
   loop of a one-domain pool. Its deadline counts from admission, and a
   request that out-waited it is shed rather than solved late. [None]:
   its connection closed first, so it is dropped unsolved (a read that
   misses the loop's close only costs a solve whose reply is dropped). *)
let answer t (work : work) =
  if work.wconn.closed then None
  else begin
    let waited_us = Obs.Sink.now_us () -. work.wenq_us in
    Obs.Histogram.observe t.m.h_queue_wait_us waited_us;
    let run = t.svc.run ~pressure:work.wpressure in
    Some
      (try
         match work.wincoming with
         | Proto.Solve ({ deadline_ms = Some d; _ } as req) ->
             let remaining = d -. (waited_us /. 1000.) in
             if remaining > 0.0 then
               run (Proto.Solve { req with Proto.deadline_ms = Some remaining })
             else begin
               record_admission t Shed_deadline;
               t.svc.shed work.wincoming
             end
         | incoming -> run incoming
       with exn ->
         Proto.Error
           (Printf.sprintf "internal error: %s" (Printexc.to_string exn)))
  end

(* Admission control for a pooled frame whose slot is in line. An
   admitted frame goes straight to the pool, whose queue is the
   admission queue, and its reply returns through the completion queue;
   a one-domain pool runs it on the loop at once. *)
let admit_pooled t conn slot incoming =
  let depth = backlog t in
  let status = Obs.Health.status () in
  let cap = capacity t status in
  if depth >= cap then begin
    record_admission t
      (if depth >= t.config.max_pending then Shed_queue_full
       else Shed_pressure);
    slot := Some (t.svc.shed incoming);
    pump t conn
  end
  else begin
    record_admission t Admitted;
    let work =
      { wconn = conn; wslot = slot; wincoming = incoming;
        wenq_us = Obs.Sink.now_us ();
        wpressure = status <> Obs.Health.Ok }
    in
    if t.workers = 0 then begin
      slot := answer t work;
      pump t conn
    end
    else begin
      t.inflight <- t.inflight + 1;
      set_queue_depth t;
      Parallel.Pool.submit t.svc.pool (fun () ->
          let response = answer t work in
          Mutex.lock t.completed_mutex;
          Queue.push (work, response) t.completed;
          Mutex.unlock t.completed_mutex;
          wake t)
    end
  end

(* Admit held session frames until one stays queued or running; a shed
   one runs inline and lets the next through at once. *)
let rec admit_held t conn =
  if not conn.closed then
    match Queue.take_opt conn.held with
    | None -> conn.session_busy <- false
    | Some (slot, incoming) ->
        admit_pooled t conn slot incoming;
        if Option.is_none !slot then conn.session_busy <- true
        else admit_held t conn

(* One parsed frame: the admin frames the service answers inline (they
   read process-wide registries and cost microseconds) answer on the
   loop; every other frame passes admission control, session frames one
   at a time per connection. *)
let admit t conn (incoming : Proto.incoming) =
  let slot = ref None in
  Queue.push slot conn.slots;
  match t.svc.inline incoming with
  | Some reply ->
      slot := Some reply;
      pump t conn
  | None -> (
      match incoming with
      | Proto.Session _ ->
          Queue.push (slot, incoming) conn.held;
          if not conn.session_busy then admit_held t conn
      | Proto.Solve _ | Proto.Profile _ | Proto.Stats _ | Proto.Events _
      | Proto.Health | Proto.Explain _ ->
          admit_pooled t conn slot incoming)

let process_frames t conn =
  let rec loop () =
    if not conn.closed then
      match Proto.Incremental.next_frame conn.parser with
      | None -> ()
      | Some frame ->
          (match Proto.incoming_of_frame frame with
          | Ok incoming -> admit t conn incoming
          | Error msg ->
              let slot = ref (Some (Server.protocol_error msg)) in
              Queue.push slot conn.slots;
              pump t conn);
          loop ()
  in
  loop ()

(* --- input path --------------------------------------------------------- *)

let handle_readable t conn =
  if not conn.closed then begin
    match Unix.read conn.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 ->
        (* peer finished sending: flush the tail, answer any pipelined
           frames already buffered, then fail a frame cut mid-body the
           same way the channel path does *)
        conn.eof <- true;
        Proto.Incremental.finish conn.parser;
        process_frames t conn;
        if Proto.Incremental.in_frame conn.parser then begin
          let slot =
            ref (Some (Server.protocol_error Proto.Incremental.truncated_error))
          in
          Queue.push slot conn.slots
        end;
        pump t conn;
        try_write t conn
    | n ->
        Proto.Incremental.feed conn.parser (Bytes.sub_string t.chunk 0 n);
        process_frames t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t conn
  end

let accept_ready t lfd =
  let rec loop () =
    match Unix.accept ~cloexec:true lfd with
    | fd, _addr ->
        if Hashtbl.length t.conns >= t.config.max_connections then begin
          Obs.Counter.incr t.m.c_conn_rejected;
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
        else begin
          Unix.set_nonblock fd;
          (match Unix.getsockname fd with
          | Unix.ADDR_INET _ -> (
              (* pipelined frames are small; Nagle only adds latency *)
              try Unix.setsockopt fd Unix.TCP_NODELAY true
              with Unix.Unix_error _ -> ())
          | Unix.ADDR_UNIX _ -> ()
          | exception Unix.Unix_error _ -> ());
          let conn =
            {
              fd;
              parser = Proto.Incremental.create ();
              slots = Queue.create ();
              held = Queue.create ();
              session_busy = false;
              out = Buffer.create 256;
              out_off = 0;
              eof = false;
              closed = false;
            }
          in
          Hashtbl.replace t.conns fd conn;
          Obs.Counter.incr t.m.c_accepted;
          Obs.Gauge.set t.m.g_connections
            (float_of_int (Hashtbl.length t.conns));
          loop ()
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EBADF), _, _) -> ()
  in
  loop ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n > 0 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let drain_completed t =
  Mutex.lock t.completed_mutex;
  let batch = Queue.create () in
  Queue.transfer t.completed batch;
  Mutex.unlock t.completed_mutex;
  Queue.iter
    (fun ((work : work), response) ->
      t.inflight <- t.inflight - 1;
      Obs.Counter.incr t.m.c_wakeups;
      work.wslot := response;
      (match work.wincoming with
      | Proto.Session _ -> admit_held t work.wconn
      | _ -> ());
      if not work.wconn.closed then pump t work.wconn)
    batch;
  set_queue_depth t

(* --- the loop ----------------------------------------------------------- *)

let run t =
  if t.listeners = [] then invalid_arg "Mux.run: no listeners";
  let cleanup () =
    List.iter
      (fun (fd, path) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match path with
        | Some p -> ( try Sys.remove p with Sys_error _ -> ())
        | None -> ())
      t.listeners;
    t.listeners <- [];
    let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter (fun c -> close_conn t c) remaining
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      let reads = ref [ t.wake_r ] in
      List.iter (fun (fd, _) -> reads := fd :: !reads) t.listeners;
      let writes = ref [] in
      Hashtbl.iter
        (fun fd conn ->
          if not conn.eof then reads := fd :: !reads;
          if Buffer.length conn.out > conn.out_off then
            writes := fd :: !writes)
        t.conns;
      (* the loop is about to park in select; a quiet server is waiting,
         not wedged *)
      Obs.Health.waiting ();
      match Unix.select !reads !writes [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready_r, ready_w, _ ->
          Obs.Health.beat ();
          List.iter
            (fun fd ->
              if fd = t.wake_r then drain_wake t
              else if List.mem_assoc fd t.listeners then accept_ready t fd
              else
                match Hashtbl.find_opt t.conns fd with
                | Some conn -> handle_readable t conn
                | None -> ())
            ready_r;
          drain_completed t;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.conns fd with
              | Some conn -> try_write t conn
              | None -> ())
            ready_w;
          loop ()
    end
  in
  Fun.protect ~finally:cleanup loop
