(* Shard router: a thin frame-level proxy that consistent-hashes each
   request onto one of N backend server processes, so repeated (and
   relabeled — the key is Canon.prehash, which is relabeling-invariant)
   instances keep landing on the shard that already cached them. The
   router does no solving and keeps no schedule state: it forwards one
   frame, relays one response, in order, per client connection. *)

module Ring = struct
  (* Classic consistent hashing: every backend owns [vnodes] points on
     a hash circle; a key belongs to the first point clockwise from its
     own hash. Adding or removing one backend only remaps the keys in
     the arcs it owned (~1/N of the space), so a resized fleet keeps
     most of its cache affinity. *)
  type t = { points : (int * int) array (* (point, backend), sorted *) }

  let make ?(vnodes = 128) n =
    if n < 1 then invalid_arg "Router.Ring.make: need at least one backend";
    if vnodes < 1 then invalid_arg "Router.Ring.make: vnodes must be >= 1";
    let points =
      Array.init (n * vnodes) (fun i ->
          let backend = i / vnodes and replica = i mod vnodes in
          (Hashtbl.hash (backend, replica, "ring"), backend))
    in
    Array.sort compare points;
    { points }

  let shard t key =
    let h = Hashtbl.hash key in
    let points = t.points in
    let n = Array.length points in
    (* first point >= h; wrap to the first point past the top *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd points.(if !lo = n then 0 else !lo)
end

type t = {
  backends : string array;
  ring : Ring.t;
  pool : Parallel.Pool.t;
  stopping : bool Atomic.t;
  mutable listen_fd : Unix.file_descr option;
  mutable listen_path : string option;  (* unix path to unlink on exit *)
  fwd_cells : Obs.Labeled.cell array;
  c_backend_errors : Obs.Counter.t;
}

let create ?(vnodes = 128) ?(jobs = 4) backends =
  if backends = [] then invalid_arg "Router.create: need at least one backend";
  let backends = Array.of_list backends in
  (* per-create like the mux metrics: only router processes carry the
     serve.router.* series *)
  let family = Obs.Labeled.family "serve.router.forwarded" ~label:"backend" in
  {
    backends;
    ring = Ring.make ~vnodes (Array.length backends);
    pool = Parallel.Pool.create (max 1 jobs);
    stopping = Atomic.make false;
    listen_fd = None;
    listen_path = None;
    fwd_cells =
      Array.mapi (fun i _ -> Obs.Labeled.cell family (string_of_int i)) backends;
    c_backend_errors = Obs.Counter.make "serve.router.backend_errors";
  }

let backend_count t = Array.length t.backends

(* Solves shard by the relabeling-invariant instance fingerprint;
   session frames pin a session's whole lifecycle to one shard by its
   id (the state lives there); admin frames have no affinity and go to
   shard 0 — scrape each backend directly for its own metrics. *)
let shard_of_incoming t (incoming : Proto.incoming) =
  match incoming with
  | Proto.Solve req -> Ring.shard t.ring (Canon.prehash req.Proto.instance)
  | Proto.Session sreq -> Ring.shard t.ring ("session", sreq.Proto.sid)
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _
  | Proto.Profile _ ->
      0

(* One client session: read frames, forward each to its shard over a
   lazily-opened per-client backend connection (so backend replies can
   never interleave across clients), relay the response verbatim. A
   backend failure degrades to an error reply and drops that backend
   connection; the client session survives. *)
let handle_client t client =
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  let conns = Array.make (Array.length t.backends) None in
  let drop_backend i =
    Option.iter Scrape.close conns.(i);
    conns.(i) <- None
  in
  let backend i =
    match conns.(i) with
    | Some c -> Ok c
    | None ->
        Result.map
          (fun c ->
            conns.(i) <- Some c;
            c)
          (Scrape.connect t.backends.(i))
  in
  let forward i incoming =
    match Result.bind (backend i) (fun c -> Scrape.exchange c incoming) with
    | Ok response ->
        Obs.Labeled.incr t.fwd_cells.(i);
        response
    | Error msg ->
        drop_backend i;
        Obs.Counter.incr t.c_backend_errors;
        Proto.Error (Printf.sprintf "backend %s: %s" t.backends.(i) msg)
  in
  let respond response =
    Proto.write_response oc response;
    Obs.Health.waiting ()
  in
  let rec loop () =
    match Proto.read_incoming ic with
    | Ok None -> ()
    | Ok (Some incoming) ->
        respond (forward (shard_of_incoming t incoming) incoming);
        loop ()
    | Error msg ->
        respond (Proto.Error msg);
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri (fun i _ -> drop_backend i) conns;
      (try flush oc with Sys_error _ -> ());
      try Unix.close client with Unix.Unix_error _ -> ())
    loop

let bind_unix t ~path =
  t.listen_fd <- Some (Scrape.listen (Unix.ADDR_UNIX path));
  t.listen_path <- Some path

let bind_tcp t ~host ~port =
  let fd = Scrape.listen (Scrape.tcp_address ~host ~port) in
  t.listen_fd <- Some fd;
  Unix.getsockname fd

let run t =
  let fd =
    match t.listen_fd with
    | Some fd -> fd
    | None -> invalid_arg "Router.run: bind a listener first"
  in
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept ~cloexec:true fd with
      | client, _ ->
          Parallel.Pool.submit t.pool (fun () -> handle_client t client);
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception
          Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
        ->
          ()
  in
  Fun.protect
    ~finally:(fun () ->
      t.listen_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match t.listen_path with
      | Some path -> (
          t.listen_path <- None;
          try Sys.remove path with Sys_error _ -> ())
      | None -> ())
    accept_loop

let stop t =
  Atomic.set t.stopping true;
  match t.listen_fd with
  | None -> ()
  | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

let shutdown t =
  stop t;
  Parallel.Pool.wait_idle t.pool;
  Parallel.Pool.shutdown t.pool
