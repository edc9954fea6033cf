(* In-process replay of the traced window. Each logged frame goes once
   more through the public functions that Server.handle_request and
   Session.handle compose — decode, prehash, canonicalize, key, cache,
   dispatch, repair, lower bound, map back, encode — each call wrapped in
   a span, so the per-layer self times can be set against the
   server-side time (elapsed_us) the live reply carried. On
   cold-portfolio the replay also runs every Algos.Portfolio candidate,
   the final polish and the exact solver on the same instances, which
   the portfolio and exact per-layer metrics come from. *)

module I = Core.Instance
module P = Serve.Proto
module W = Workload
open Util

type cached = Serve.Session.cached = {
  makespan : float;
  assignment : int array;
  solver : string;
}

(* The replay's copy of one server session: the instance, the repair seed
   and the delta-aware cache key, rebuilt from the frames. *)
type msession = {
  base : string;
  mutable delta : string;
  mutable inst : I.t;
  mutable seed : int array option;
}

(* Algos.Portfolio's candidates, in its order, with the seed Dispatch
   passes (1). *)
let candidates : (string * (I.t -> Algos.Common.result)) list =
  [
    ("greedy", fun t -> Algos.List_scheduling.schedule t);
    ( "greedy-longest",
      Algos.List_scheduling.schedule ~order:Algos.List_scheduling.Longest_first );
    ("lpt-placeholders", Algos.Lpt.schedule);
    ("batch-lpt", Algos.Batch_lpt.schedule);
    ("ptas", fun t -> Algos.Uniform_ptas.schedule ~eps:0.5 t);
    ( "rounding",
      fun t -> fst (Algos.Randomized_rounding.schedule (Workloads.Rng.create 1) t) );
    ("ra-2approx", fun t -> Algos.Ra_class_uniform.schedule t);
    ("cu-3approx", fun t -> Algos.Um_class_uniform.schedule t);
  ]

type candidate_stats = { mutable calls : int; mutable ms : float; mutable wins : int }

type t = {
  cache : cached Serve.Cache.t;
  seen : (int, unit) Hashtbl.t;  (* prehashes stored, as the server keeps them *)
  sessions : (string, msession) Hashtbl.t;
  wire_path : string;
  sp : Spans.t;
  mutable replayed : int;  (* schedule-bearing frames replayed *)
  mutable mismatches : int;  (* replayed makespan differs from the live reply *)
  mutable server_us : float;  (* sum of the live replies' elapsed_us *)
  mutable attributed_us : float;  (* sum of the replayed layers' self times *)
  request_bytes : Fvec.t;
  reply_bytes : Fvec.t;
  portfolio : candidate_stats array;
  mutable portfolio_runs : int;
  mutable exact_nodes : int;
  mutable exact_us : float;
}

let span t name f = Spans.with_span t.sp name f

let store t ph key value =
  Serve.Cache.put t.cache key value;
  Hashtbl.replace t.seen ph ()

(* [primed]: the set-up's priming frames and replies, stored the way the
   server stored them, so hits in the replay are hits in the server. *)
let create ~capacity ~wire_path ~sp ~primed =
  let t =
    {
      cache = Serve.Cache.create ~capacity;
      seen = Hashtbl.create 1024;
      sessions = Hashtbl.create 16;
      wire_path;
      sp;
      replayed = 0;
      mismatches = 0;
      server_us = 0.0;
      attributed_us = 0.0;
      request_bytes = Fvec.create ();
      reply_bytes = Fvec.create ();
      portfolio = Array.map (fun _ -> { calls = 0; ms = 0.0; wins = 0 }) (Array.of_list candidates);
      portfolio_runs = 0;
      exact_nodes = 0;
      exact_us = 0.0;
    }
  in
  List.iter
    (fun (_, (it : W.item), resp) ->
      match (it.W.frame, resp) with
      | P.Solve req, P.Reply r ->
          let canon = Serve.Canon.canonicalize req.P.instance in
          store t (Serve.Canon.prehash req.P.instance)
            (Core.Instance_io.to_string canon.Serve.Canon.instance)
            {
              makespan = r.P.makespan;
              assignment = Serve.Canon.assignment_to_canonical canon r.P.assignment;
              solver = r.P.solver;
            }
      | _ -> ())
    primed;
  t

(* The frame's wire bytes, as the client's writer produces them. *)
let wire_of t frame =
  let oc = open_out_bin t.wire_path in
  Client.write oc frame;
  close_out oc;
  In_channel.with_open_bin t.wire_path In_channel.input_all

let decode wire =
  let parser = P.Incremental.create () in
  P.Incremental.feed parser wire;
  match P.Incremental.next_frame parser with
  | Some frame -> P.incoming_of_frame frame
  | None -> Error "incomplete frame"

let dispatch t inst =
  match span t "dispatch.solve" (fun () -> Serve.Dispatch.solve inst) with
  | Ok o -> o
  | Error msg -> failwith ("replayed dispatch failed: " ^ msg)

(* Server.handle_request's composition; returns the makespan. *)
let handle_request t inst =
  let ph = span t "canon.prehash" (fun () -> Serve.Canon.prehash inst) in
  if Hashtbl.mem t.seen ph then begin
    let canon = span t "canon.canonicalize" (fun () -> Serve.Canon.canonicalize inst) in
    let key =
      span t "canon.key" (fun () -> Core.Instance_io.to_string canon.Serve.Canon.instance)
    in
    match span t "cache.find" (fun () -> Serve.Cache.find t.cache key) with
    | Some hit ->
        ignore
          (span t "canon.map_back" (fun () ->
               Serve.Canon.assignment_to_original canon hit.assignment));
        hit.makespan
    | None ->
        let o = dispatch t canon.Serve.Canon.instance in
        let r = o.Serve.Dispatch.result in
        let a = Core.Schedule.assignment r.Algos.Common.schedule in
        span t "cache.put" (fun () ->
            store t ph key { makespan = r.Algos.Common.makespan; assignment = a; solver = o.solver });
        ignore (span t "canon.map_back" (fun () -> Serve.Canon.assignment_to_original canon a));
        r.Algos.Common.makespan
  end
  else begin
    (* unseen prehash: solve the original labeling, store canonically *)
    let o = dispatch t inst in
    let r = o.Serve.Dispatch.result in
    let a = Core.Schedule.assignment r.Algos.Common.schedule in
    let canon = span t "canon.canonicalize" (fun () -> Serve.Canon.canonicalize inst) in
    let key =
      span t "canon.key" (fun () -> Core.Instance_io.to_string canon.Serve.Canon.instance)
    in
    let stored =
      span t "canon.map_back" (fun () -> Serve.Canon.assignment_to_canonical canon a)
    in
    span t "cache.put" (fun () ->
        store t ph key { makespan = r.Algos.Common.makespan; assignment = stored; solver = o.solver });
    r.Algos.Common.makespan
  end

(* Session.handle's resolve: delta-aware cache, then repair with the
   lower-bound drift check (the server's default ratio 2 and polish
   budget 64), then a full solve. Returns the makespan. *)
let resolve t ms =
  let key = Printf.sprintf "session:%s:%s" ms.base ms.delta in
  let inst = ms.inst in
  let result =
    match span t "cache.find" (fun () -> Serve.Cache.find t.cache key) with
    | Some hit -> hit
    | None ->
        let solver, r =
          match ms.seed with
          | Some seed ->
              let repaired =
                (span t "incremental.repair" (fun () ->
                     Algos.Incremental.repair ~polish_steps:64 inst ~seed))
                  .Algos.Incremental.result
              in
              let lb = span t "bounds.lb" (fun () -> Core.Bounds.lower_bound inst) in
              if repaired.Algos.Common.makespan > 2.0 *. lb then
                let o = dispatch t inst in
                if o.Serve.Dispatch.result.Algos.Common.makespan <= repaired.Algos.Common.makespan
                then (o.Serve.Dispatch.solver, o.Serve.Dispatch.result)
                else ("incremental-repair", repaired)
              else ("incremental-repair", repaired)
          | None ->
              let o = dispatch t inst in
              (o.Serve.Dispatch.solver, o.Serve.Dispatch.result)
        in
        let value =
          {
            makespan = r.Algos.Common.makespan;
            assignment = Core.Schedule.assignment r.Algos.Common.schedule;
            solver;
          }
        in
        span t "cache.put" (fun () -> Serve.Cache.put t.cache key value);
        value
  in
  ms.seed <- Some result.assignment;
  result.makespan

let fold_digest prev text = Digest.to_hex (Digest.string (prev ^ "\n" ^ text))

let session t (s : P.session_request) =
  let find () = Hashtbl.find_opt t.sessions s.P.sid in
  match s.P.op with
  | P.S_create inst ->
      span t "session.create" (fun () ->
          Hashtbl.replace t.sessions s.P.sid
            {
              base = Digest.to_hex (Digest.string (Serve.Canon.key inst));
              delta = Digest.to_hex (Digest.string (Core.Instance_io.to_string inst));
              inst;
              seed = None;
            });
      None
  | P.S_add_jobs jobs ->
      Option.iter
        (fun ms ->
          span t "session.mutate" (fun () ->
              ms.inst <- I.append_jobs ms.inst jobs;
              ms.seed <-
                Option.map (fun a -> Array.append a (Array.make (List.length jobs) (-1))) ms.seed;
              ms.delta <- fold_digest ms.delta (W.jobs_text jobs)))
        (find ());
      None
  | P.S_drop_jobs ids ->
      Option.iter
        (fun ms ->
          span t "session.mutate" (fun () ->
              let keep =
                List.filter (fun j -> not (List.mem j ids)) (List.init (I.num_jobs ms.inst) Fun.id)
              in
              ms.inst <- I.induced ms.inst keep;
              ms.seed <- Option.map (fun a -> Array.of_list (List.map (fun j -> a.(j)) keep)) ms.seed;
              ms.delta <- fold_digest ms.delta (String.concat "," (List.map string_of_int ids))))
        (find ());
      None
  | P.S_resolve _ -> Option.map (fun ms -> span t "session.resolve" (fun () -> resolve t ms)) (find ())
  | P.S_close ->
      Hashtbl.remove t.sessions s.P.sid;
      None

(* Every portfolio candidate on its own, then the polish of the best —
   the work Algos.Portfolio.run does inside the heavy tier. *)
let portfolio t inst =
  t.portfolio_runs <- t.portfolio_runs + 1;
  let best = ref None in
  List.iteri
    (fun i (name, algo) ->
      let t0 = now_us () in
      match span t ("portfolio." ^ name) (fun () -> algo inst) with
      | r ->
          let c = t.portfolio.(i) in
          c.calls <- c.calls + 1;
          c.ms <- c.ms +. ((now_us () -. t0) /. 1000.);
          (match !best with
          | Some (_, b) when b.Algos.Common.makespan <= r.Algos.Common.makespan -> ()
          | _ -> best := Some (i, r))
      | exception Invalid_argument _ -> ())
    candidates;
  Option.iter
    (fun (i, r) ->
      t.portfolio.(i).wins <- t.portfolio.(i).wins + 1;
      ignore (span t "portfolio.polish" (fun () -> Algos.Local_search.polish inst r)))
    !best

let exact t inst =
  let t0 = now_us () in
  let o = span t "exact.solve" (fun () -> Algos.Exact.solve ~node_limit:2_000_000 inst) in
  t.exact_us <- t.exact_us +. (now_us () -. t0);
  t.exact_nodes <- t.exact_nodes + o.Algos.Exact.nodes

let attribute t ~server_us ~attributed_us ~live ~replayed =
  t.replayed <- t.replayed + 1;
  t.server_us <- t.server_us +. server_us;
  t.attributed_us <- t.attributed_us +. attributed_us;
  if not (close_enough (Client.wire_rounded replayed) live) then
    t.mismatches <- t.mismatches + 1

let frame t ~extras ((req, (it : W.item), (resp : P.response)) : int * W.item * P.response) =
  Spans.set_req t.sp req;
  let wire = wire_of t it.W.frame in
  Fvec.push t.request_bytes (float_of_int (String.length wire));
  (match span t "proto.decode" (fun () -> decode wire) with
  | Ok _ -> ()
  | Error msg -> failwith ("replayed decode failed: " ^ msg));
  (match (it.W.frame, resp) with
  | P.Solve sreq, P.Reply r ->
      let inst = sreq.P.instance in
      let replayed = span t "server.handle_request" (fun () -> handle_request t inst) in
      let s = Spans.last t.sp in
      (* the layers are the children; the wrapper's own time is replay glue *)
      attribute t ~server_us:(float_of_int r.P.elapsed_us)
        ~attributed_us:(s.Spans.dur_us -. s.Spans.self_us) ~live:r.P.makespan ~replayed;
      if extras then begin
        let n = I.num_jobs inst in
        if n <= 12 then exact t inst else if n <= 200 then portfolio t inst
      end
  | P.Session s, _ -> (
      match (session t s, resp) with
      | Some replayed, P.Session_reply { P.solve = Some r; _ } ->
          (* the session layer's own work counts: resolve is one of its spans *)
          attribute t ~server_us:(float_of_int r.P.elapsed_us)
            ~attributed_us:(Spans.last t.sp).Spans.dur_us ~live:r.P.makespan ~replayed
      | _ -> ())
  | _ -> ());
  let bytes = span t "proto.encode" (fun () -> P.response_to_string resp) in
  Fvec.push t.reply_bytes (float_of_int (String.length bytes))

(* Replay the log in arrival order until it is done or [budget_s] has
   passed. *)
let run t ~log ~budget_s ~extras =
  let stop = now_us () +. (budget_s *. 1e6) in
  List.iter (fun entry -> if now_us () < stop then frame t ~extras entry) log
