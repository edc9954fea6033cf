(** Socket addressing and the client side of the wire.

    One target grammar — a Unix-domain socket path, or [HOST:PORT] for
    TCP — reaches every server and router: {!listen} binds every
    listener (all of them {!Mux}'s), {!connect} + {!exchange} carry
    every client round trip: the admin commands ([metrics], [events],
    [explain], [top], [profile]), the router's forwards to its
    backends, and {!Client}'s drivers behind [schedtool loadgen] and
    the bench's mux records. {!exchange} only parses a reply;
    {!Client.check} is what checks it against the client's own copy of
    the instance, with perfbench's semantics. The rest is the
    pure text wrangling scrapes need: a Prometheus text parser (the
    project carries no JSON parser dependency), snapshot diffing,
    histogram-delta quantiles, and the [health v1] payload's
    line/[k=v] structure. *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }
(** One connected client socket and its buffered channels. *)

(** {1 Addresses and listeners} *)

val hostport : string -> (string * int) option
(** [Some (host, port)] when the target ends in [:PORT] (a number in
    [0, 65535]) after a nonempty host; [None] means a Unix socket path. *)

val tcp_address : host:string -> port:int -> Unix.sockaddr
(** The IPv4 address of [host:port]. Raises [Unix.Unix_error] when the
    host does not resolve. *)

val listen : Unix.sockaddr -> Unix.file_descr
(** Bind a listening stream socket (backlog 128). A Unix path replaces
    a stale socket file; TCP gets [SO_REUSEADDR]. Raises
    [Unix.Unix_error] when the address cannot be bound. *)

(** {1 Round trips} *)

val connect : string -> (conn, string) result
(** Connect to a target (TCP connections get [TCP_NODELAY]). The error
    reads [cannot connect to <target>: <reason>] or [cannot resolve
    <target>]. *)

val close : conn -> unit

val exchange : conn -> Proto.incoming -> (Proto.response, string) result
(** Write one frame and read its reply. A server's [status error] reply
    is a reply ([Ok (Proto.Error _)]); [Error] means the transport
    failed: the peer closed the stream, a write or read failed, or the
    reply did not parse. *)

val fetch : conn -> Proto.incoming -> (string, string) result
(** {!exchange} an admin frame (stats, events, health, explain,
    profile) and return its reply's payload. An error reply, or a reply
    of another kind, is an [Error]. A profile capture blocks for its
    window. *)

val fetch_once : string -> Proto.incoming -> (string, string) result
(** {!connect}, {!fetch}, {!close}: one admin round trip to a target. *)

(** {1 Prometheus text} *)

val parse_prometheus : string -> (string * float) list
(** Series in exposition order. The series name keeps its label block
    verbatim ([serve_requests{status="ok"}]), so labeled series stay
    distinct; comments and unparsable lines are skipped. *)

val value : (string * float) list -> string -> float option

(** {1 Snapshot diffing} *)

type delta = { dname : string; current : float; d : float }

val diff :
  before:(string * float) list -> after:(string * float) list -> delta list
(** Each series of [after] with its change since [before]; series absent
    from [before] count their full value. Order follows [after]. *)

val changed : delta list -> delta list
(** Only the deltas with a nonzero change. *)

(** {1 Histogram helpers} *)

val buckets : (string * float) list -> string -> (float * float) list
(** Cumulative [(upper_bound, count)] points of the metric's
    [_bucket{le="..."}] series, ascending ([+Inf] maps to [infinity]). *)

val quantile_of_buckets : (float * float) list -> float -> float option
(** Upper bound of the bucket holding the [q]-th order statistic;
    [None] when the points hold no observations. *)

val delta_buckets :
  before:(string * float) list ->
  after:(string * float) list ->
  string ->
  (float * float) list
(** Bucket points for the observations made between two scrapes. *)

(** {1 Health payload} *)

val health_lines : string -> (string * string) list
(** Each nonempty payload line as [(key, rest)]; repeated kinds (meter,
    slo, heartbeat) appear once per line. *)

val kv_fields : string -> (string * string) list
(** The [k=v] tokens of one repeated line's [rest]. *)

(** {1 Profile hotspots} *)

val top_self_frames : ?limit:int -> string -> (string * float) list
(** The hottest frames of a collapsed-stack payload by {e self} weight
    (the weight of stacks they terminate) as a fraction of total,
    descending (ties alphabetical); at most [limit] (default 5). *)

(** {1 Event sources} *)

val top_event_names : ?limit:int -> string -> (string * int) list
(** The most frequent event names in an events payload, descending by
    count (ties alphabetical); at most [limit] (default 5). *)
