(** The client side of the wire as a load driver: every reply checked.

    One module holds what a program needs to drive a server and trust
    its answers: the check of each reply against the client's own copy
    of the instance, one {!tally} of what came back, and the drivers of
    [schedtool loadgen] — a closed loop over N connections, a pipelined
    burst, slow clients held open, and session lifecycles — which
    [bench/main.ml]'s mux records reuse. Connections are {!Scrape}'s
    ({!Scrape.connect}); a round trip is {!Scrape.exchange}, and a burst
    writes every frame before it reads a reply. A program that drives a
    server should ignore [SIGPIPE], so that a lost stream is a transport
    failure in the tally and not the death of the process.

    {b The check} ({!check}) is the one perfbench's client applies
    ([perfbench/client.ml]), with the same semantics, so that client can
    move onto this module mechanically:
    - an error reply is an error;
    - a schedule-bearing reply (a solve reply, or a session [resolve]
      naming the expected job count) must carry one machine per job and
      pass [Core.Schedule.make] and [is_valid] against the client's own
      copy of the instance — the relabeled copy it sent, or for a
      session its copy renumbered through [Instance.append_jobs] and
      [Instance.induced];
    - its makespan must equal the recomputed one within a relative 1e-6
      after both are rounded with [%g] (the wire prints makespans with
      [%g], and an in-process reply states the exact value);
    - a session acknowledgement must name the op and job count sent;
    - any other reply does not match its frame.

    A reply that fails for any reason but an error reply is
    {e invalid}. *)

(** {1 The reply check} *)

(** What the reply to a frame must satisfy (perfbench's [W.expect]). *)
type expect =
  | Schedule of Core.Instance.t
      (** a valid schedule of this instance, in the labeling sent *)
  | Ack of { op : string; jobs : int }
      (** a session reply to [op] ({!Proto.session_op_name}) with this
          many jobs *)

val check : expect -> Proto.response -> (Proto.reply option, string) result
(** [Ok (Some r)] for a schedule-bearing reply that passed (the solve
    reply, or a resolve's schedule), [Ok None] for an acknowledgement
    that passed, [Error reason] otherwise; an error reply's reason
    starts with ["error reply: "]. *)

(** {1 The tally} *)

(** What one driver run saw. Every counted frame got a reply; a frame
    whose stream failed is not counted. *)
type tally = {
  mutable answered : int;  (** replies read *)
  mutable schedules : int;  (** schedule-bearing replies that passed *)
  mutable hits : int;  (** of those, cache hits *)
  mutable degraded : int;  (** of those, degraded *)
  mutable errors : int;  (** error replies *)
  mutable invalid : int;  (** other replies that failed the check *)
  mutable first_invalid : string option;  (** why the first one failed *)
  mutable echo_bad : int;
      (** solve replies not echoing the trace id their frame carried *)
  mutable failure : string option;
      (** the first transport failure; the drivers send nothing after it *)
  mutable latencies_us : float list;
      (** per passing solve reply, frame written to reply read; in
          session runs, per first resolve not served from the cache *)
  mutable repairs_us : float list;
      (** session runs: per later resolve not served from the cache *)
  mutable slowest : float * string;
      (** the largest [latencies_us] sample and its trace (or session)
          id; [(neg_infinity, "")] before any *)
  mutable last_makespan : float;  (** of the last passing schedule *)
  mutable modes : (string * int) list;
      (** passing session resolves by the [mode] they report *)
}

val tally : unit -> tally

val record :
  tally ->
  Proto.incoming ->
  expect ->
  Proto.response ->
  us:float ->
  (Proto.response * float) option
(** Count the reply to a frame, read [us] after the frame was written:
    check it, count it, and keep the latency of a passing solve reply.
    [Some (reply, us)] when it passed. *)

val round_trip :
  tally ->
  Scrape.conn ->
  expect ->
  Proto.incoming ->
  (Proto.response * float) option
(** Write one frame, read its reply, check it and count it. [Some
    (reply, us)] when it passed, [us] being the round trip. A transport
    failure is recorded in [failure]; once one is, nothing more is
    sent and the result is [None]. *)

val percentiles : float array -> (string * float) list
(** Exact nearest-rank [p50_us], [p90_us], [p99_us] and [max_us] of a
    sample, which is sorted in place; [[]] for an empty sample. *)

(** {1 Drivers} *)

val connect_all : string -> int -> (Scrape.conn array, string) result
(** [n] connections to a target, or the first connect error (after
    closing the ones already open). *)

(** What [schedtool loadgen] sends. *)
type load = {
  instance : Core.Instance.t;
  permute : bool;
      (** a fresh {!Canon.shuffle} of [instance] per request or session *)
  seed : int;  (** relabeling RNG seed, and part of every trace id *)
  solver : string option;  (** solver hint on solve frames *)
  deadline_ms : float option;  (** on solve frames and session resolves *)
}

val closed_loop : load -> Scrape.conn array -> count:int -> tally
(** [count] solve frames, frame [i] (from 1) on connection
    [(i - 1) mod N], each sent after the previous reply is read. Each
    runs in a [loadgen.request] span under trace id [lg<seed>.<i>],
    which the frame carries with the span as its parent. *)

val burst : tally -> Scrape.conn array -> (Proto.incoming * expect) array -> unit
(** Write every frame (frame [k] on connection [k mod N]) before reading
    any reply, then read the replies in send order into the tally.
    Latency counts from each frame's own write. *)

val pipelined : load -> Scrape.conn array -> count:int -> tally
(** {!burst} of [count] solve frames with trace ids [lg<seed>.<i>] and
    no parent span. *)

val hold_open :
  Scrape.conn array -> seconds:float -> on_hold:(unit -> unit) -> tally
(** Slow clients: send a partial frame header on every connection, call
    [on_hold], then keep them parked for [seconds]. The caller closes
    them. *)

val sessions : load -> Scrape.conn array -> sessions:int -> mutations:int -> tally
(** [sessions] lifecycles [lg<seed>-<s>], session [s] (from 1) on
    connection [(s - 1) mod N], each in a [loadgen.session]
    span: create, resolve, then [mutations] alternating mutations (odd
    ones add a clone of a random job, even ones drop the last job), each
    followed by a resolve, then close. The client keeps its own copy of
    the instance through every acknowledged mutation and checks each
    reply against it. A session whose create fails is skipped. *)
