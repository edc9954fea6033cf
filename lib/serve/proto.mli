(** Versioned, line-delimited request/response wire format.

    A session is a sequence of requests on one byte stream; the server
    answers each with exactly one response. Both directions are plain
    text, one field per line, framed by a versioned header line and a
    bare [end] terminator, so sessions are scriptable with a heredoc and
    cram-testable. Protocol version: {!version}.

    Request:
    {v
    request v1
    solver auto            # optional: auto|greedy|lpt|portfolio|exact
    deadline_ms 50         # optional time budget
    trace lg7.3/12         # optional client trace id [/parent span id]
    instance               # starts the inline instance block
    env uniform            # ... Core.Instance_io text ...
    end
    v}

    Response (success; [trace] echoes the id the request was served
    under — the client's propagated id, or a server-minted [r<N>]):
    {v
    response v1
    status ok
    trace lg7.3
    solver exact
    cache hit              # hit|miss
    degraded false
    makespan 117.06
    elapsed_us 1834
    assignment 0 1 1 0 2 1
    end
    v}

    Response (error — malformed requests never crash the session):
    {v
    response v1
    status error
    error line 4: setups: expected 2 values, got 1
    end
    v}

    Admin frame — ask the server for its live metrics, answered in-band
    on the same stream:
    {v
    stats v1
    format prometheus      # optional: prometheus|json (default prometheus)
    end
    v}

    answered with the exposition text after a [payload] marker (the
    payload's lines are Prometheus or JSON exposition and therefore
    never the bare frame terminator):
    {v
    response v1
    status stats
    format prometheus
    payload
    # TYPE serve_requests counter
    serve_requests{status="ok"} 41
    ...
    end
    v}

    A second admin frame asks for the flight recorder's retained events
    ({!Obs.Event}), newest last, as JSON lines after the [payload]
    marker (each line starts with ['{'], so the [end] terminator stays
    unambiguous):
    {v
    events v1
    count 50               # optional: keep only the last N events
    level info             # optional floor: debug|info|warn|error
    end
    v}

    answered with:
    {v
    response v1
    status events
    payload
    {"ts_us":...,"level":"info","name":"serve.request","req":"r3",...}
    ...
    end
    v}

    A third admin frame asks for the server's composite health: status
    lattice, saturation meters, SLO burn rates and per-domain heartbeat
    ages ({!Obs.Health} / {!Obs.Slo}). The frame has no fields:
    {v
    health v1
    end
    v}

    answered with a line-oriented payload — [status]/[liveness] lines
    plus repeated [meter]/[slo]/[heartbeat] lines of [k=v] tokens, each
    starting with a known key and a space so the [end] terminator stays
    unambiguous:
    {v
    response v1
    status health
    payload
    status ok
    liveness ok
    task_budget_s 30
    uptime_s 12.4
    meter name=cache fill=0.000
    slo name=availability window=5m target=0.9900 ... burn=0.00
    heartbeat domain=0 state=waiting task=pool.task req=- ...
    end
    v}

    An explain frame asks for the phase tree of one recent request by
    its trace/request id (answered from {!Obs.Phase}'s bounded rings, so
    only the recent past is explainable):
    {v
    explain v1
    id lg7.3
    end
    v}

    answered with one [phase] line per retained phase after a [trace]
    header line (k=v tokens; [detail] last since it may contain spaces):
    {v
    response v1
    status explain
    payload
    trace id=lg7.3 spans=9
    phase depth=0 name=serve.request dur_us=1834.2 alloc_b=8864 start_us=... detail=
    phase depth=1 name=serve.dispatch dur_us=1702.0 ...
    end
    v}

    A further frame kind drives long-lived {e scheduling sessions}: a
    client creates a session from an instance, streams job
    additions/removals, and asks for a fresh schedule after each delta
    (answered by incremental repair server-side; see [Serve.Session]).
    All five ops share the header and the [op]/[id] fields:
    {v
    session v1
    op create              # create|add-jobs|drop-jobs|resolve|close
    id build-7             # client-chosen, [A-Za-z0-9._-]{1,64}
    instance               # create only: inline Instance_io block
    env uniform
    ...
    end
    v}

    [add-jobs] carries one [job] line per new job — [size=]/[class=]
    key=value tokens, plus [ptimes=p1,p2,...] (unrelated environment
    only; [inf] allowed) or [eligible=1,0,...] (restricted only):
    {v
    session v1
    op add-jobs
    id build-7
    job size=5 class=1
    job size=2 class=0
    end
    v}

    [drop-jobs] carries the current job indices to remove ([jobs 3 7]);
    surviving jobs are renumbered to stay dense, in increasing order.
    [resolve] takes an optional [deadline_ms] (a budget for the full
    re-solve when repair drifted too far); [close] has no payload.
    Every op is answered with [status session] echoing [id]/[op] plus
    the session's [generation] (mutation counter) and [jobs] count;
    [resolve] replies additionally carry a [mode]
    ([repair|fallback|full|cache] — how the schedule was obtained) and
    the usual solve-reply fields:
    {v
    response v1
    status session
    id build-7
    op resolve
    generation 3
    jobs 12
    mode repair
    solver incremental-repair
    cache miss
    degraded false
    makespan 117.06
    elapsed_us 210
    assignment 0 1 1 0 2 1 ...
    end
    v}

    A profile frame drives the in-process sampling profiler
    ({!Obs.Profile}) over the same stream: [action status|start|stop]
    inspects or toggles an engine, while a [seconds] field (action
    [capture], or no action at all) runs a whole windowed capture —
    start, sample for the window, aggregate, stop — in one round trip:
    {v
    profile v1
    action capture
    seconds 5
    mode cpu               # cpu|alloc, default cpu
    rate 99                # hz (cpu) / sampling rate (alloc); optional
    format collapsed       # collapsed|json, default collapsed
    id lg1.3               # optional: keep only this request's samples
    end
    v}

    answered with [status profile] and a payload of collapsed-stack
    lines ([frame;frame;frame weight]) or JSON objects; [status]/
    [start]/[stop] answers carry the profiler's [engine]/[totals]
    status lines instead (stop additionally returns the retained
    samples of the engine it disarmed):
    {v
    response v1
    status profile
    payload
    Schedtool.solve;Serve__Dispatch.run;Algos__Exact.solve 41
    end
    v}

    Blank lines between requests are ignored; [#] comments are allowed
    inside the instance block (they are part of the [Instance_io]
    format).

    One frame reader serves every transport: the mux's byte buffer
    ({!Incremental}) and the channel readers ({!read_incoming},
    {!read_response}) all hand trimmed lines to the same frame
    assembly, so framing, resync and truncation behave alike
    everywhere. Each direction has one encoder, {!incoming_to_string}
    and {!response_to_string}; the channel writers are thin wrappers.

    The codec is data. Each value type has one codec, a parser and a
    printer (numbers with their accepted range, integers with a floor,
    enums, ids, trace contexts, space- and comma-separated lists, the
    [job] spec). One scanner turns a body into [key value] pairs in line
    order, skipping blank lines; a bare [instance] (requests) or
    [payload] (replies) line takes the rest of the body verbatim. A
    header table gives each request kind its block marker, the keys it
    accepts and its decoder, which reads its fields through shared
    getters; replies decode by [status]. One printer writes the header,
    each set field, the block and [end] for both directions. Decoding
    rules:
    - a request rejects a key outside its kind's list
      ([unknown <kind> field "key"]); a reply skips keys it does not
      know;
    - every occurrence of a field must parse and the last one wins,
      except that repeated [job] and [jobs] lines accumulate (and only
      the winning [op] is checked against the op names);
    - a bad value reads [<key>: expected <what>, got "<value>"] (ids and
      trace contexts say which rule they break), a missing one names
      the frame and the field;
    - rules that span fields stay with their kind: a profile [seconds]
      implies a capture and a capture needs one, each session op takes
      only its own payload, and a session reply carries solve fields if
      and only if it has a [mode]. *)

val version : int

type trace_ctx = { tid : string; parent : int option }
(** Client-propagated trace context, carried by an optional
    [trace <id>[/<parent-span>]] field on solve and session frames
    (W3C-traceparent-flavored). [tid] uses the session-id charset
    ([A-Za-z0-9._-]{1,64}); [parent] is the client's open span id, which
    the server installs as the parent link of its root phase so merged
    traces chain across the process boundary. The server adopts [tid] as
    its ambient request context (instead of minting [r<N>]) and every
    reply echoes the adopted id on a [trace] line. *)

type request = {
  solver : string option;
  deadline_ms : float option;
  trace : trace_ctx option;
  instance : Core.Instance.t;
}

type reply = {
  solver : string;
  cache_hit : bool;
  degraded : bool;
  makespan : float;
  elapsed_us : int;
  assignment : int array;
  trace : string option;
      (** the trace/request id the server served this under — the
          client's id when one was propagated, a minted [r<N>] otherwise *)
}

type stats_format = Prometheus | Json

(** One mutation or query of a scheduling session. *)
type session_op =
  | S_create of Core.Instance.t  (** open a session on a base instance *)
  | S_add_jobs of Core.Instance.new_job list
      (** append jobs (classes must already exist) *)
  | S_drop_jobs of int list  (** remove jobs by current index *)
  | S_resolve of { deadline_ms : float option }
      (** produce a schedule of the current instance; the deadline only
          applies when the server falls back to a full solve *)
  | S_close  (** discard the session *)

type session_request = {
  sid : string;
  op : session_op;
  trace : trace_ctx option;  (** see {!trace_ctx}; tags the lifecycle *)
}

type session_reply = {
  sid : string;
  op : string;  (** echo of the request's op name *)
  generation : int;  (** mutations applied since create *)
  jobs : int;  (** current number of jobs *)
  mode : string option;
      (** resolve only: [repair|fallback|full|cache] — how the schedule
          was obtained *)
  solve : reply option;  (** resolve only: the schedule itself *)
  trace : string option;  (** the trace id the op was served under *)
}

type profile_action =
  | P_status  (** report engine state and sample totals *)
  | P_start  (** arm an engine (error if one is running) *)
  | P_stop  (** disarm and return the retained samples *)
  | P_capture of float
      (** start, sample for this many seconds, aggregate, stop — one
          round trip *)

type profile_request = {
  paction : profile_action;
  pmode : Obs.Profile.mode;  (** engine: CPU timer or Gc.Memprof *)
  prate : float option;
      (** hz for cpu, per-word sampling rate for alloc; engine default
          when absent *)
  pformat : Obs.Profile.format;  (** payload rendering *)
  pfilter : string option;
      (** keep only samples recorded under this trace/request id *)
}

type response =
  | Reply of reply
  | Stats_reply of { format : stats_format; body : string }
      (** exposition text from {!Obs.Expo}, answered to a stats frame *)
  | Events_reply of { body : string }
      (** flight-recorder events as JSON lines, answered to an events
          frame *)
  | Health_reply of { body : string }
      (** line-oriented health snapshot (status, meters, SLO burn rates,
          heartbeats), answered to a health frame *)
  | Explain_reply of { body : string }
      (** one request's phase tree as line-oriented records, answered to
          an explain frame: a [trace id=... spans=N] header line, then
          one [phase depth=... name=... dur_us=... alloc_b=...
          start_us=... detail=...] line per retained phase, in start
          order *)
  | Session_reply of session_reply
      (** acknowledgement of a session op (with the schedule, for
          resolve) *)
  | Profile_reply of { body : string }
      (** profiler payload, answered to a profile frame: collapsed-stack
          or JSON-object lines for capture/stop, [engine]/[totals]
          status lines for status/start *)
  | Error of string

type incoming =
  | Solve of request
  | Stats of stats_format
  | Events of { count : int option; min_level : Obs.Event.level }
      (** [count]: keep only the last N events; [min_level]: severity
          floor, defaults to [Debug] (everything retained) *)
  | Health  (** composite health/SLO snapshot request (no fields) *)
  | Explain of string
      (** phase-tree request for one trace/request id still retained in
          the phase recorder ({!Obs.Phase}) *)
  | Session of session_request  (** a session op (see {!session_op}) *)
  | Profile of profile_request
      (** a profiler action (see {!profile_action}) *)
(** One frame of a session: a solve request or an admin frame. *)

val session_op_name : session_op -> string
(** Wire name of an op: [create], [add-jobs], [drop-jobs], [resolve] or
    [close]. *)

type frame = { fheader : string; fbody : string list }
(** One assembled frame, transport-agnostic: the header line plus the
    body lines up to (excluding) the [end] terminator. One frame reader
    builds it from trimmed lines for every transport — {!Incremental}
    from a byte buffer, {!read_incoming}/{!read_response} from a
    channel — so decode and resync behave the same everywhere. *)

val incoming_of_frame : frame -> (incoming, string) result
(** Decode an assembled frame as a request/admin frame; [Error] on an
    unknown header or a malformed body. *)

val response_of_frame : frame -> (response, string) result
(** Decode an assembled frame as a response; [Error] on a header other
    than [response v1] or a malformed body. *)

val incoming_to_string : incoming -> string
(** Serialize a request/admin frame to its exact wire bytes; the inverse
    of {!incoming_of_frame}. Optional fields are written only when set. *)

val response_to_string : response -> string
(** Serialize a response to its exact wire bytes (the bytes
    {!write_response} writes), for transports that own their output
    buffers. *)

(** Incremental frame assembly for readiness-driven transports (the mux
    event loop): bytes arrive in arbitrary chunks, possibly splitting a
    line — or the [payload] marker — anywhere. The buffer cuts complete
    lines out of the received bytes and hands them, trimmed, to the same
    frame reader the channel functions use. *)
module Incremental : sig
  type t

  val create : unit -> t

  val feed : t -> string -> unit
  (** Append a chunk of received bytes (any split is fine). *)

  val next_frame : t -> frame option
  (** Pop the next complete frame, if the buffer holds one. Call in a
      loop after each {!feed} — one chunk can complete several pipelined
      frames. *)

  val finish : t -> unit
  (** Signal end-of-stream: a tail without a trailing newline is
      delivered as a final line, matching [input_line]. *)

  val in_frame : t -> bool
  (** A frame header has been read but its [end] terminator has not —
      after {!finish} + a draining {!next_frame} loop, this means the
      stream was cut mid-frame ({!truncated_error}). *)

  val buffered : t -> int
  (** Bytes received but not yet consumed into frames. *)

  val truncated_error : string
  (** The error for a frame cut before [end], on every transport. *)
end

val read_incoming : in_channel -> (incoming option, string) result
(** Read one request/admin frame. [Ok None] is clean end-of-stream (no
    frame started); [Error] is a malformed or truncated frame — the
    stream is consumed up to the frame's [end] terminator (or EOF) so
    the session can continue with the next frame. *)

val write_incoming : out_channel -> incoming -> unit
(** Client side: write {!incoming_to_string}; flushes. *)

val write_request : out_channel -> request -> unit
(** [write_incoming] of a solve frame; flushes. *)

val write_session_request : out_channel -> session_request -> unit
(** [write_incoming] of a session frame; flushes. *)

val write_response : out_channel -> response -> unit
(** Server side; flushes. *)

val read_response : in_channel -> (response option, string) result
(** Client side; [Ok None] on clean end-of-stream. Same frame reader and
    resync behavior as {!read_incoming}. *)
