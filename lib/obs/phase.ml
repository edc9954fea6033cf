(* Phase attribution: completed spans as records in bounded per-domain
   rings. The phase recorder is the only span recorder: always on at
   bounded cost, like Event's flight recorder, each domain owns a
   fixed-capacity Ring that newer records overwrite, so a long-lived
   server can answer "where did that request spend its time" for the
   recent past without ever growing, and a Chrome trace (Trace) renders
   what the rings retain. A record is written once, when its span
   closes (Span.phase), so the hot path is two clock reads plus one
   ring slot write and never takes a lock. *)

type record = {
  name : string;
  detail : string;  (* "" when the phase carries no annotation *)
  ctx : string option;
  id : int;
  parent : int option;
  start_us : float;
  dur_us : float;
  alloc_bytes : float;
  domain : int;
  seq : int;  (* per-domain emission index, breaks timestamp ties *)
}

let default_capacity = 4096

let dummy =
  {
    name = "";
    detail = "";
    ctx = None;
    id = -1;
    parent = None;
    start_us = 0.0;
    dur_us = 0.0;
    alloc_bytes = 0.0;
    domain = -1;
    seq = -1;
  }

let ring = Ring.create ~capacity:default_capacity dummy
let set_capacity n = Ring.set_capacity ring n
let clear () = Ring.clear ring

let push ~name ~detail ~id ~parent ~start_us ~dur_us ~alloc_bytes () =
  let b = Ring.mine ring in
  Ring.push b
    {
      name;
      detail;
      ctx = Sink.current_ctx ();
      id;
      parent;
      start_us;
      dur_us;
      alloc_bytes;
      domain = (Domain.self () :> int);
      seq = Ring.pushed b;
    }

let snapshot () =
  Ring.items ring
  |> List.stable_sort (fun a b ->
         match Float.compare a.start_us b.start_us with
         (* ids are allocated when a span opens, from one monotone
            counter, so ascending id is global open order — it puts a
            parent before its children even when the clock cannot
            separate their starts *)
         | 0 -> compare a.id b.id
         | n -> n)

let recent ?ctx () =
  match ctx with
  | None -> snapshot ()
  | Some c -> List.filter (fun r -> r.ctx = Some c) (snapshot ())

(* Depth of a record in its trace's parent-link forest: roots (no parent,
   or parent evicted from the ring) are 0. Cycles cannot occur — ids are
   allocated from a monotone counter and parents always precede
   children — but a missing parent must not loop, hence the option fold. *)
let depth records r =
  let by_id = Hashtbl.create (List.length records) in
  List.iter (fun (x : record) -> Hashtbl.replace by_id x.id x) records;
  let rec go d r =
    match r.parent with
    | None -> d
    | Some p -> (
        match Hashtbl.find_opt by_id p with
        | Some parent when parent.id <> r.id -> go (d + 1) parent
        | _ -> d)
  in
  go 0 r
