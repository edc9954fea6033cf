(** Shard router: a frame-level proxy that consistent-hashes requests
    across N backend server processes for cache affinity.

    Solve frames shard by {!Canon.prehash} of their instance — the
    fingerprint is relabeling-invariant, so permuted replays of an
    instance reach the shard whose result cache already holds it.
    Session frames shard by session id (the session's state lives on
    one backend); admin frames (stats/events/health/explain/profile)
    have no affinity and go to shard 0 — scrape backends directly for
    their own metrics.

    The router is served by {!Mux} like any server ({!service}): the
    event loop accepts, parses, admits and replies, and every frame,
    admin frames included, is forwarded on a worker of the router's
    pool. The worker takes an idle connection to the shard's backend
    (Unix path or [HOST:PORT], through {!Scrape.connect} and
    {!Scrape.exchange}) or dials one — an idle connection its backend
    has closed, as after a restart, is dropped unused — is marked
    [waiting] while the backend works, and puts the connection back after the reply, so no
    two frames share a backend connection at once; connections are
    shared across clients. Replies relay in request order (the mux's
    slots), and the session frames of one client connection are
    forwarded one at a time. A backend failure is answered with a
    [status error] reply reading [backend <target>: <reason>] and that
    connection is closed; the next frame for the backend takes another
    idle connection or dials again.
    A frame the mux sheds is answered on the loop with an [overloaded]
    error and never reaches a backend.

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
    (Unix socket paths or [HOST:PORT], see {!Scrape.connect}) with its
    own [jobs]-sized pool (default 4) for forwarding. Raises
    [Invalid_argument] on an empty backend list. *)

val shard_of_incoming : t -> Proto.incoming -> int
(** The backend index a frame routes to (exposed for tests). *)

val service : t -> Server.service
(** The router as a mux service ({!Mux.of_service}): forward each frame
    on the router's pool, admin frames included; shed frames get an
    [overloaded] error without touching a backend. *)

val shutdown : t -> unit
(** Drain in-flight forwards, shut the pool down and close the idle
    backend connections. Stop the mux first. *)
