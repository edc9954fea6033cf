(** Shard router: a frame-level proxy that consistent-hashes requests
    across N backend server processes for cache affinity.

    Solve frames shard by {!Canon.prehash} of their instance — the
    fingerprint is relabeling-invariant, so permuted replays of an
    instance reach the shard whose result cache already holds it.
    Session frames shard by session id (the session's state lives on
    one backend); admin frames (stats/events/health/explain/profile)
    have no affinity and go to shard 0 — scrape backends directly for
    their own metrics.

    The router is a blocking proxy, unlike the {!Mux}-served backends:
    each client connection is served by a pool task that opens its own
    lazily-connected backend sockets (Unix paths or [HOST:PORT], through
    {!Scrape.connect} and {!Scrape.exchange}), so responses relay in
    request order and backends never interleave replies across
    clients. A backend failure is answered with a
    [status error] reply reading [backend <target>: <reason>], and that
    backend connection is dropped and re-dialed on next use; the client
    session survives. Serving clients on the mux instead would need
    non-blocking backend connections: a blocking forward on the event
    loop would stall every other client.

    Metrics (created per-{!create}): the labeled family
    [serve.router.forwarded{backend="<index>"}] and the
    [serve.router.backend_errors] counter. *)

(** The pure consistent-hash ring, exposed for determinism/balance
    tests. *)
module Ring : sig
  type t

  val make : ?vnodes:int -> int -> t
  (** [make n] builds a ring over backends [0..n-1] with [vnodes]
      points each (default 128). Deterministic: same [n] and [vnodes],
      same ring. Raises [Invalid_argument] if [n < 1] or [vnodes < 1]. *)

  val shard : t -> 'a -> int
  (** Map any key (hashed with [Hashtbl.hash]) to a backend index.
      Removing one backend from a ring only remaps the keys it owned
      (~1/n of the space). *)
end

type t

val create : ?vnodes:int -> ?jobs:int -> string list -> t
(** [create backends] builds a router over the given backend targets
    (Unix socket paths or [HOST:PORT], see {!Scrape.resolve}) with its
    own [jobs]-sized pool (default 4) for client sessions. Raises
    [Invalid_argument] on an empty backend list. *)

val backend_count : t -> int

val shard_of_incoming : t -> Proto.incoming -> int
(** The backend index a frame routes to (exposed for tests). *)

val bind_unix : t -> path:string -> unit
(** Bind the router's listener to a Unix-domain socket with
    {!Scrape.listen} (replacing a stale socket file; removed when {!run}
    returns). *)

val bind_tcp : t -> host:string -> port:int -> Unix.sockaddr
(** Bind the router's listener to a TCP address with {!Scrape.listen};
    returns the bound address (port 0 picks a free port). *)

val run : t -> unit
(** Accept and serve client connections until {!stop}; call after one
    of the [bind_*]. Raises [Invalid_argument] with no listener. *)

val stop : t -> unit
(** Make {!run} return; safe from a signal handler. *)

val shutdown : t -> unit
(** {!stop}, drain in-flight client sessions, shut the pool down. *)
