(* Readiness-driven multiplexed transport: one event loop owns every
   socket (listeners and connections, all non-blocking), feeds received
   bytes to Proto.Incremental, and queues parsed requests through a
   bounded admission queue onto the server's pool. Replies come back
   through a completion queue + wake pipe and are written in arrival
   order per connection (pipelining-safe). The loop itself never blocks
   on a peer: a slow client only fills its own output buffer. *)

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
   request order. *)
type conn = {
  fd : Unix.file_descr;
  parser : Proto.Incremental.t;
  slots : Proto.response option ref Queue.t;
  out : Buffer.t;
  mutable out_off : int;
  mutable eof : bool;  (* peer closed its write side; drain then close *)
  mutable closed : bool;
}

(* One admitted request waiting for a pool slot; [wenq_us] dates the
   wait so dispatch can charge queue time against the request's own
   deadline, and [wpressure] is the health verdict taken at admission,
   which the worker's dispatch uses instead of reading health again:
   otherwise the frames queued behind this one, filling the mux.queue
   meter, would shed the frame the mux admitted. *)
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
  server : Server.t;
  config : config;
  mutable listeners : (Unix.file_descr * string option) list;
      (* fd, unix path to unlink on exit *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  pending : work Queue.t;
  mutable inflight : int;
  max_inflight : int;  (* pool workers available beyond the loop's domain *)
  completed : (work * Proto.response) Queue.t;
  completed_mutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  m : metrics;
}

(* Metrics are created per-mux (not at module load) so processes that
   never start the mux — plain [schedtool metrics], [--stdio] sessions,
   the router — do not grow serve.mux.* series in their expositions. *)
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

let create ?(config = default_config) server =
  if config.max_pending < 1 then
    invalid_arg "Mux.create: max_pending must be >= 1";
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      server;
      config;
      listeners = [];
      conns = Hashtbl.create 64;
      pending = Queue.create ();
      inflight = 0;
      max_inflight = max 0 (Parallel.Pool.size (Server.pool server) - 1);
      completed = Queue.create ();
      completed_mutex = Mutex.create ();
      wake_r;
      wake_w;
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

let set_queue_depth t =
  let d = float_of_int (Queue.length t.pending) in
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

(* Shedding strips the solver budget instead of refusing service: the
   request is answered inline on the loop through the same dispatch
   path with deadline 0, which yields the near-linear fast path and a
   [degraded] reply — or the cached result when one exists, which costs
   nothing and is better than degrading. *)
let shed_response t (incoming : Proto.incoming) =
  match incoming with
  | Proto.Solve req ->
      Server.handle_incoming t.server
        (Proto.Solve { req with Proto.deadline_ms = Some 0.0 })
  | Proto.Session ({ op = Proto.S_resolve _; _ } as sreq) ->
      Server.handle_incoming t.server
        (Proto.Session
           { sreq with Proto.op = Proto.S_resolve { deadline_ms = Some 0.0 } })
  | Proto.Session _ as s ->
      (* session mutations are O(delta) bookkeeping — cheap enough to
         run inline rather than fail the lifecycle under load *)
      Server.handle_incoming t.server s
  | Proto.Profile _ ->
      Proto.Error "overloaded: profile frame shed (retry when healthy)"
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _ ->
      (* admin frames are never queued, so never shed *)
      assert false

let record_admission t outcome =
  Obs.Labeled.incr
    (match outcome with
    | Admitted -> t.m.adm_admitted
    | Shed_queue_full -> t.m.adm_shed_queue_full
    | Shed_pressure -> t.m.adm_shed_pressure
    | Shed_deadline -> t.m.adm_shed_deadline)

(* Run one admitted request. On a multi-domain pool the work goes to a
   worker and the reply returns through the completion queue; a
   single-domain pool would run the task inline on [submit] anyway, so
   skip the queue and fill the slot directly. *)
let dispatch t (work : work) =
  let now = Obs.Sink.now_us () in
  Obs.Histogram.observe t.m.h_queue_wait_us (now -. work.wenq_us);
  (* deadline-aware: budget spent waiting in the admission queue is
     subtracted from the request's own deadline; a request that
     out-waited its deadline is shed rather than solved late *)
  let incoming =
    match work.wincoming with
    | Proto.Solve ({ deadline_ms = Some d; _ } as req) ->
        let remaining = d -. ((now -. work.wenq_us) /. 1000.) in
        if remaining <= 0.0 then None
        else Some (Proto.Solve { req with Proto.deadline_ms = Some remaining })
    | other -> Some other
  in
  match incoming with
  | None ->
      record_admission t Shed_deadline;
      work.wslot := Some (shed_response t work.wincoming);
      pump t work.wconn
  | Some incoming ->
      let pressure = work.wpressure in
      if t.max_inflight = 0 then begin
        work.wslot :=
          Some (Server.handle_incoming ~pressure t.server incoming);
        pump t work.wconn
      end
      else begin
        t.inflight <- t.inflight + 1;
        Parallel.Pool.submit (Server.pool t.server) (fun () ->
            let response =
              try Server.handle_incoming ~pressure t.server incoming
              with exn ->
                Proto.Error
                  (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
            in
            Mutex.lock t.completed_mutex;
            Queue.push (work, response) t.completed;
            Mutex.unlock t.completed_mutex;
            wake t)
      end

let dispatch_pending t =
  let budget () = t.max_inflight = 0 || t.inflight < t.max_inflight in
  while (not (Queue.is_empty t.pending)) && budget () do
    let work = Queue.pop t.pending in
    set_queue_depth t;
    if not work.wconn.closed then dispatch t work
  done

(* One parsed frame: admin frames answer inline (they read process-wide
   registries and cost microseconds); solver-bound frames pass admission
   control. *)
let admit t conn (incoming : Proto.incoming) =
  let slot = ref None in
  Queue.push slot conn.slots;
  match incoming with
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _ ->
      slot := Some (Server.handle_incoming t.server incoming);
      pump t conn
  | Proto.Solve _ | Proto.Session _ | Proto.Profile _ ->
      let depth = Queue.length t.pending in
      let status = Obs.Health.status () in
      let cap = capacity t status in
      if depth >= cap then begin
        record_admission t
          (if depth >= t.config.max_pending then Shed_queue_full
           else Shed_pressure);
        slot := Some (shed_response t incoming);
        pump t conn
      end
      else begin
        record_admission t Admitted;
        Queue.push
          { wconn = conn; wslot = slot; wincoming = incoming;
            wenq_us = Obs.Sink.now_us ();
            wpressure = status <> Obs.Health.Ok }
          t.pending;
        set_queue_depth t;
        dispatch_pending t
      end

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

let read_chunk = Bytes.create 65536

let handle_readable t conn =
  if not conn.closed then begin
    match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
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
        Proto.Incremental.feed conn.parser (Bytes.sub_string read_chunk 0 n);
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
      work.wslot := Some response;
      if not work.wconn.closed then pump t work.wconn)
    batch

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
          dispatch_pending t;
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
