(* Workload generation. Every frame the server sees is built here from
   the workload seed alone: frame [i] of connection [c] depends only on
   (seed, c, i), never on timing, so the stream — and the work counters
   of a fixed prefix of it — repeat exactly across runs with one seed. *)

module I = Core.Instance
module P = Serve.Proto
module Rng = Workloads.Rng
module Gen = Workloads.Gen

type kind = Hit_relabel | Cold_portfolio | Session_churn

let kinds =
  [
    ("hit-relabel", Hit_relabel);
    ("cold-portfolio", Cold_portfolio);
    ("session-churn", Session_churn);
  ]

(* Load comes from one process over this many connections. *)
let connections = 2

(* What the reply to a frame must satisfy, checked against the client's
   own copy of the instance in the labeling the client sent. *)
type expect = Schedule of I.t | Ack of { op : string; jobs : int }

type item = {
  id : int;  (* see [item_id] *)
  frame : P.incoming;
  expect : expect;
}

(* Streams are sequences of units (see [stream]); a unit holds at most
   [unit_frames] frames. The id encodes where a frame sits, so the frame
   can be regenerated from it. *)
let unit_frames = 64
let item_id ~conn ~unit ~pos = ((((unit * unit_frames) + pos) * connections) + conn)

let solve_item ~id inst =
  let req : P.request =
    { solver = None; deadline_ms = None; trace = None; instance = inst }
  in
  { id; frame = P.Solve req; expect = Schedule inst }

type env = Identical | Uniform | Unrelated | Restricted | Class_uniform

let four = [| Identical; Uniform; Unrelated; Restricted |]
let five = [| Identical; Uniform; Unrelated; Restricted; Class_uniform |]

let instance rng env ~n ~m ~k =
  match env with
  | Identical -> Gen.identical rng ~n ~m ~k ()
  | Uniform -> Gen.uniform rng ~n ~m ~k ()
  | Unrelated -> Gen.unrelated rng ~n ~m ~k ()
  | Restricted -> Gen.restricted_class_uniform rng ~n ~m ~k ()
  | Class_uniform -> Gen.class_uniform_ptimes rng ~n ~m ~k ()

(* An independent generator per (stream, index). *)
let rng_at ~seed ~stream ~index = Rng.create (Hashtbl.hash (seed, stream, index))

(* --- hit-relabel ----------------------------------------------------------

   64 base instances are primed once during set-up; every request is a
   fresh relabeling of one of them, so every request takes the same
   path: prehash hit -> canonicalize -> cache hit -> map back. *)

let hit_bases = 64

let hit_base ~seed b =
  let rng = rng_at ~seed ~stream:(-1) ~index:b in
  (* n spread evenly over 8..40; environments, machine and class counts
     cycled, so the seed draws only the values *)
  let n = 8 + (b * 33 / hit_bases) in
  instance rng four.(b mod 4) ~n ~m:(2 + (b / 4 mod 2)) ~k:(1 + (b / 8 mod 3))

let hit_item ~seed ~conn bases i =
  let rng = rng_at ~seed ~stream:conn ~index:i in
  solve_item
    ~id:(item_id ~conn ~unit:i ~pos:0)
    (Serve.Canon.shuffle rng bases.((i + (conn * 32)) mod hit_bases))

(* --- cold-portfolio -------------------------------------------------------

   Every instance is new. Of every five frames, one goes to the exact
   tier (n <= 12), three to the portfolio tier (13 <= n <= 40, all five
   environments) and one takes the fast path (n > 200). Sizes,
   environments, machine and class counts are cycled so the mix does
   not depend on the seed; the seed draws the values. *)

let cold_item ~seed ~conn i =
  let rng = rng_at ~seed ~stream:conn ~index:i in
  let round = i / 5 in
  let m = 2 + (round mod 2) and k = 1 + (round / 2 mod 3) in
  let inst =
    match i mod 5 with
    | 0 -> instance rng four.(round mod 4) ~n:(8 + (round mod 5)) ~m ~k
    | 4 ->
        instance rng four.(round mod 4) ~n:(201 + (round * 37 mod 200)) ~m:(2 + m)
          ~k:(2 + k)
    | slot ->
        let j = (round * 3) + slot - 1 in
        instance rng five.(j mod 5) ~n:(13 + (j * 11 mod 28)) ~m:(2 + (j / 5 mod 2))
          ~k:(1 + (j / 10 mod 3))
  in
  solve_item ~id:(item_id ~conn ~unit:i ~pos:0) inst

(* --- session-churn --------------------------------------------------------

   Each connection runs sessions one after another: create, resolve,
   then rounds of add-jobs (1-3 jobs) or drop-jobs (1-2 jobs) each
   followed by a resolve, then close. Odd sessions replay the base
   instance and the first [replayed_rounds] mutations of the session
   just before them on the same connection, under a new id, so those
   resolves hit the delta-aware cache, then go on with fresh mutations.
   Keeping the pair on one connection makes the hits independent of how
   the two connections interleave; diverging for the last rounds keeps
   cache hits near a quarter of the resolves, so the latency median sits
   inside the repair population instead of on the edge between hits and
   repairs. *)

let session_rounds = 24
let replayed_rounds = 12
let frames_per_session = 3 + (2 * session_rounds)

(* Clone a job's full column so the addition is valid in every
   environment (ptimes for unrelated, eligibility for restricted). *)
let clone_job rng inst =
  let m = I.num_machines inst in
  let job = Rng.int rng (I.num_jobs inst) in
  let nptimes =
    match inst.I.env with
    | I.Unrelated p -> Some (Array.init m (fun i -> p.(i).(job)))
    | I.Identical | I.Uniform _ | I.Restricted _ -> None
  in
  let neligible =
    match inst.I.env with
    | I.Restricted e -> Some (Array.init m (fun i -> e.(i).(job)))
    | I.Identical | I.Uniform _ | I.Unrelated _ -> None
  in
  {
    I.nsize = inst.I.sizes.(job);
    nclass = inst.I.job_class.(job);
    nptimes;
    neligible;
  }

(* One or two jobs to drop, never the last job of a class: on an instance
   with an empty class the restricted-assignment 2-approximation
   (Algos.Ra_class_uniform) fails an assertion, and the workload is meant
   to run without failed operations. *)
let drop_ids rng inst =
  let cls = inst.I.job_class in
  let left = Array.make (I.num_classes inst) 0 in
  Array.iter (fun c -> left.(c) <- left.(c) + 1) cls;
  let pick taken =
    let candidates =
      List.filter
        (fun j -> left.(cls.(j)) >= 2 && not (List.mem j taken))
        (List.init (Array.length cls) Fun.id)
    in
    let j = List.nth candidates (Rng.int rng (List.length candidates)) in
    left.(cls.(j)) <- left.(cls.(j)) - 1;
    j
  in
  let a = pick [] in
  if Rng.bool rng then [ a ] else [ a; pick [ a ] ]

let session_items ~seed ~conn s =
  let src = s - (s mod 2) in
  let rng = rng_at ~seed ~stream:(connections + conn) ~index:src in
  (* base shape cycled, values and mutation script drawn from the seed *)
  let pair = src / 2 in
  let n = 24 + (pair * 7 mod 17) in
  let base =
    instance rng four.(pair mod 4) ~n ~m:(2 + (pair / 4 mod 2)) ~k:(1 + (pair / 8 mod 3))
  in
  let sid = Printf.sprintf "c%d.s%d" conn s in
  let pos = ref 0 in
  let next expect op =
    let id = item_id ~conn ~unit:s ~pos:!pos in
    incr pos;
    { id; frame = P.Session { P.sid; op; trace = None }; expect }
  in
  let resolve inst = next (Schedule inst) (P.S_resolve { deadline_ms = None }) in
  let ack op inst = next (Ack { op = P.session_op_name op; jobs = I.num_jobs inst }) op in
  let cur = ref base in
  let create = ack (P.S_create base) base in
  let first = resolve base in
  let fresh = if s = src then rng else rng_at ~seed ~stream:(connections + conn) ~index:s in
  let rounds =
    List.init session_rounds (fun round ->
        let rng = if round < replayed_rounds then rng else fresh in
        let nj = I.num_jobs !cur in
        (* keep sizes in 20..48 so repair cost stays comparable *)
        let add = if nj <= 20 then true else if nj >= 48 then false else Rng.bool rng in
        let mutation =
          if add then begin
            let jobs = List.init (1 + Rng.int rng 3) (fun _ -> clone_job rng !cur) in
            cur := I.append_jobs !cur jobs;
            ack (P.S_add_jobs jobs) !cur
          end
          else begin
            let ids = drop_ids rng !cur in
            cur := I.induced !cur (List.filter (fun j -> not (List.mem j ids)) (List.init nj Fun.id));
            ack (P.S_drop_jobs ids) !cur
          end
        in
        [ mutation; resolve !cur ])
  in
  let close = ack P.S_close !cur in
  (create :: first :: List.concat rounds) @ [ close ]

(* --- streams ------------------------------------------------------------- *)

(* Frames of the fixed prefix each connection sends before any timed
   window: the deterministic-counts phase, which doubles as warm-up. *)
let prefix_frames = function
  | Hit_relabel -> 256
  | Cold_portfolio -> 10
  | Session_churn -> 2 * frames_per_session

(* A stream is a sequence of units: one frame for hit-relabel and
   cold-portfolio, one whole session for session-churn. Set-up generates
   the first units of every connection (workload generation is part of
   set-up time); later units are generated on demand, except that
   hit-relabel cycles through its pregenerated relabelings. *)
let pregenerated_units = function
  | Hit_relabel -> 2048
  | Cold_portfolio -> 2048
  | Session_churn -> 256

type workload = {
  kind : kind;
  seed : int;
  bases : I.t array;  (* hit-relabel's instances to prime *)
  units : item array array array;  (* per connection, per unit *)
}

let unit_items kind ~seed ~conn ~bases u =
  match kind with
  | Hit_relabel -> [| hit_item ~seed ~conn bases u |]
  | Cold_portfolio -> [| cold_item ~seed ~conn u |]
  | Session_churn -> Array.of_list (session_items ~seed ~conn u)

let generate kind ~seed =
  let bases =
    match kind with
    | Hit_relabel -> Array.init hit_bases (hit_base ~seed)
    | Cold_portfolio | Session_churn -> [||]
  in
  {
    kind;
    seed;
    bases;
    units =
      Array.init connections (fun conn ->
          Array.init (pregenerated_units kind) (unit_items kind ~seed ~conn ~bases));
  }

let unit_at w ~conn u =
  let pregenerated = w.units.(conn) in
  if u < Array.length pregenerated then pregenerated.(u)
  else
    match w.kind with
    | Hit_relabel -> pregenerated.(u mod Array.length pregenerated)
    | Cold_portfolio | Session_churn ->
        unit_items w.kind ~seed:w.seed ~conn ~bases:w.bases u

(* First unit of the traced window: a fresh stream that starts at a
   session boundary, so the replay sees every session from its create. *)
let traced_start = 1_000_000

type stream = unit -> item

let stream w ~conn ~start : stream =
  let u = ref start and pos = ref 0 and cur = ref [||] in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := unit_at w ~conn !u;
      incr u;
      pos := 0
    end;
    let it = !cur.(!pos) in
    incr pos;
    it

(* Certified lower bound of the instance behind an item id, regenerating
   the item rather than keeping every instance of a window alive. *)
let lower_bound w =
  let units = Hashtbl.create 256 in
  fun id ->
    let conn = id mod connections and rest = id / connections in
    let u = rest / unit_frames in
    let items =
      match Hashtbl.find_opt units (conn, u) with
      | Some items -> items
      | None ->
          let items = unit_at w ~conn u in
          Hashtbl.add units (conn, u) items;
          items
    in
    match items.(rest mod unit_frames).expect with
    | Schedule inst -> Core.Bounds.lower_bound inst
    | Ack _ -> nan

(* --- frame-stream digest -------------------------------------------------- *)

let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))

let jobs_text jobs =
  String.concat ";"
    (List.map
       (fun (j : I.new_job) ->
         Printf.sprintf "%h/%d/%s/%s" j.I.nsize j.I.nclass
           (Option.fold ~none:"-" ~some:floats j.I.nptimes)
           (Option.fold ~none:"-"
              ~some:(fun e ->
                String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") e)))
              j.I.neligible))
       jobs)

let describe (it : item) =
  match it.frame with
  | P.Solve req -> "solve\n" ^ Core.Instance_io.to_string req.P.instance
  | P.Session s ->
      let body =
        match s.P.op with
        | P.S_create inst -> Core.Instance_io.to_string inst
        | P.S_add_jobs jobs -> jobs_text jobs
        | P.S_drop_jobs ids -> String.concat "," (List.map string_of_int ids)
        | P.S_resolve _ | P.S_close -> ""
      in
      Printf.sprintf "session %s %s\n%s" s.P.sid (P.session_op_name s.P.op) body
  | P.Stats _ | P.Events _ | P.Health | P.Explain _ | P.Profile _ -> ""

(* Digest of the prefix every connection sends, regenerated from the
   seed exactly as the streams produce it. *)
let digest w =
  let buf = Buffer.create 4096 in
  for conn = 0 to connections - 1 do
    let next = stream w ~conn ~start:0 in
    for _ = 1 to prefix_frames w.kind do
      Buffer.add_string buf (Digest.string (describe (next ())))
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))
