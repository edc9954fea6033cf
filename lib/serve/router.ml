(* Shard router: a thin frame-level proxy that consistent-hashes each
   request onto one of N backend server processes, so repeated (and
   relabeled — the key is Canon.prehash, which is relabeling-invariant)
   instances keep landing on the shard that already cached them. The
   router does no solving and keeps no schedule state: it is a Mux
   service whose workers forward one frame each and relay the reply,
   and whose loop answers stats, events and health for the router
   process itself. *)

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
  (* per backend, the connections no worker is using; a connection
     carries one frame at a time, so backend replies never interleave *)
  idle : Scrape.conn list array;
  idle_mutex : Mutex.t;
  fwd_cells : Obs.Labeled.cell array;
  c_backend_errors : Obs.Counter.t;
  created_us : float;
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
    idle = Array.make (Array.length backends) [];
    idle_mutex = Mutex.create ();
    fwd_cells =
      Array.mapi (fun i _ -> Obs.Labeled.cell family (string_of_int i)) backends;
    c_backend_errors = Obs.Counter.make "serve.router.backend_errors";
    created_us = Obs.Sink.now_us ();
  }

(* Solves shard by the relabeling-invariant instance fingerprint;
   session frames pin a session's whole lifecycle to one shard by its
   id (the state lives there); explain and profile frames have no
   affinity and go to shard 0. Stats, events and health frames are
   answered by the router itself and never forwarded. *)
let shard_of_incoming t (incoming : Proto.incoming) =
  match incoming with
  | Proto.Solve req -> Ring.shard t.ring (Canon.prehash req.Proto.instance)
  | Proto.Session sreq -> Ring.shard t.ring ("session", sreq.Proto.sid)
  | Proto.Stats _ | Proto.Events _ | Proto.Health | Proto.Explain _
  | Proto.Profile _ ->
      0

(* An idle connection to backend [i], or a fresh one. An idle
   connection has nothing to read, so one that reads ready was closed by
   its backend (a restart) and is dropped before it can fail a frame. *)
let rec take t i =
  match
    Mutex.protect t.idle_mutex (fun () ->
        match t.idle.(i) with
        | c :: rest ->
            t.idle.(i) <- rest;
            Some c
        | [] -> None)
  with
  | None -> Scrape.connect t.backends.(i)
  | Some c -> (
      match Unix.select [ c.Scrape.fd ] [] [] 0.0 with
      | [], _, _ -> Ok c
      | _ :: _, _, _ | (exception Unix.Unix_error _) ->
          Scrape.close c;
          take t i)

(* One frame on a pool worker: forward it to its shard and relay the
   reply. The worker is marked waiting while the backend works, so a
   slow backend does not read as a wedged task. A backend failure is
   answered with an error reply and the connection is dropped; the next
   frame for that backend takes another or dials again. *)
let forward t incoming =
  let i = shard_of_incoming t incoming in
  let exchange c =
    Obs.Health.waiting ();
    let reply = Scrape.exchange c incoming in
    Obs.Health.beat ();
    (match reply with
    | Ok _ -> Mutex.protect t.idle_mutex (fun () -> t.idle.(i) <- c :: t.idle.(i))
    | Error _ -> Scrape.close c);
    reply
  in
  match Result.bind (take t i) exchange with
  | Ok response ->
      Obs.Labeled.incr t.fwd_cells.(i);
      response
  | Error msg ->
      Obs.Counter.incr t.c_backend_errors;
      Proto.Error (Printf.sprintf "backend %s: %s" t.backends.(i) msg)

let service t =
  {
    Server.pool = t.pool;
    run = (fun ~pressure:_ incoming -> forward t incoming);
    inline = Server.process_admin ~created_us:t.created_us;
    (* a shed frame never reaches a backend *)
    shed =
      (fun _ -> Proto.Error "overloaded: frame shed by the router (retry later)");
  }

let shutdown t =
  Parallel.Pool.wait_idle t.pool;
  Parallel.Pool.shutdown t.pool;
  Array.iter (List.iter Scrape.close) t.idle;
  Array.fill t.idle 0 (Array.length t.idle) []
