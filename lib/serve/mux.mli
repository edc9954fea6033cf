(** Multiplexed transport — the one transport for listening sockets,
    Unix-domain ([--socket]) and TCP ([--tcp]), of servers and shard
    routers alike: one readiness-driven event loop
    ([Unix.select] over non-blocking sockets) binds and owns every
    listener and connection, so socket I/O never ties up a worker and a
    slow or idle client costs one fd plus its buffers — not a pool
    slot. What the loop serves is a {!Server.service}: a server's
    ({!create}) or a router's ({!of_service} over {!Router.service}).

    Bytes are fed to {!Proto.Incremental} as they arrive, so requests
    may be pipelined: every frame gets a response slot in arrival order
    and replies are serialized strictly in that order, even when a later
    frame (an inline shed, an admin frame) finishes first.

    Admission control: frames the loop does not answer itself (a
    server's solve, session and profile frames; every frame a router
    forwards) are submitted at admission to the service's
    {!Parallel.Pool}, whose queue is the admission queue, so a worker
    goes from one frame to the next without waiting for the loop (on a
    one-domain pool they run on the loop itself). The loop counts the
    backlog as the frames in flight less the pool's [size - 1] workers.
    With more than two domains the pipelined frames of one connection
    may run concurrently; session frames of one connection run one at
    a time, in arrival order. The frames the service's [inline] answers
    are answered on the loop: a server's stats, events, health and
    explain frames, a router's stats, events and health frames. The
    backlog bound tightens with the {!Obs.Health} status lattice — full
    capacity when [Ok], half when [Degraded], zero when [Unhealthy] —
    and an over-capacity frame is {e shed}: the service's [shed] reply
    answers it on the loop (a server's runs the same dispatch path with
    a zero deadline, i.e. the near-linear fast path and a [degraded]
    reply, or the cached result; a router's is an [overloaded] error).
    A request's deadline counts from its admission: the worker that
    starts it sheds it the same way if the wait spent the budget, and
    otherwise runs it with the deadline it has left. A frame whose
    connection closed before a worker reached it is dropped unsolved.
    An admitted request keeps the health verdict taken at its admission
    for its own dispatch, so frames queued behind it cannot shed it.

    Observability (created per-mux, so non-mux processes do not carry
    the series): counters [serve.mux.accepted] / [serve.mux.closed] /
    [serve.mux.conn_rejected] / [serve.mux.wakeups]; the labeled family
    [serve.mux.admission{outcome=admitted|shed_queue_full|shed_pressure
    |shed_deadline}]; gauges [serve.mux.connections] /
    [serve.mux.queue_depth] / [serve.mux.queue_peak] (high-water mark);
    the [serve.mux.queue_wait_us] histogram (admission to worker start,
    which the pool's [pool.queue_wait_latency_us] measures too); a
    [mux.queue] health meter (backlog fill); and a [mux-admission]
    availability SLO (99% admitted). *)

type config = {
  max_pending : int;
      (** admission-backlog bound at full health (default 64); halved
          when degraded, zero when unhealthy *)
  max_connections : int;
      (** accepted-socket cap (default 1008 — [Unix.select] limits
          descriptor values to [FD_SETSIZE], 1024 on Linux); further
          accepts are closed immediately and counted in
          [serve.mux.conn_rejected] *)
}

val default_config : config

type t

val create : ?config:config -> Server.t -> t
(** [of_service (Server.service server)]. *)

val of_service : ?config:config -> Server.service -> t
(** Wrap a service in a mux transport and register its health meter and
    SLO. Raises [Invalid_argument] if [max_pending < 1]. *)

val add_tcp : t -> host:string -> port:int -> Unix.sockaddr
(** Bind and listen on a TCP address ({!Scrape.listen}: IPv4,
    [SO_REUSEADDR]; client sockets get [TCP_NODELAY]). Returns the bound address — with port 0
    the kernel picks a free port, and the returned address carries it.
    Raises [Unix.Unix_error] if the address cannot be bound. *)

val add_unix : t -> path:string -> unit
(** Bind and listen on a Unix-domain socket at [path] ({!Scrape.listen}
    replaces a stale socket file; removed again when {!run} returns).
    Raises [Unix.Unix_error] if the path cannot be bound. *)

val run : t -> unit
(** Run the event loop until {!stop}: accept, read, parse, admit,
    dispatch, write. Call after at least one [add_*]; raises
    [Invalid_argument] with no listeners. Closes listeners and any
    remaining connections on the way out. *)

val stop : t -> unit
(** Make {!run} return. Safe from a signal handler or another domain. *)
