(* A phase is a span with identity: it allocates a process-unique span
   id, links to the innermost enclosing phase, and records a
   completed-span record in the always-on Phase ring (with wall time and
   the calling domain's allocation delta). The cost is two clock reads,
   two allocation counter reads and one ring write; there are no
   counters and no locks. *)
let phase ?(detail = "") ?result_detail name f =
  let parent = Sink.current_span () in
  let id = Sink.new_span_id () in
  let before = Gc.allocated_bytes () in
  let start = Sink.now_us () in
  let finish detail =
    let dur = Sink.now_us () -. start in
    let alloc = Gc.allocated_bytes () -. before in
    Phase.push ~name ~detail ~id ~parent ~start_us:start ~dur_us:dur
      ~alloc_bytes:alloc ()
  in
  match Sink.with_span_id id f with
  | v ->
      let detail =
        match result_detail with Some g -> g v | None -> detail
      in
      finish detail;
      v
  | exception e ->
      finish detail;
      raise e

let with_span name f = if Sink.enabled () then phase name f else f ()

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = with_span name f in
  (r, Unix.gettimeofday () -. t0)

type summary = { name : string; count : int; total_s : float }

let summarize (records : Phase.record list) =
  let totals : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Phase.record) ->
      let count, total =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt totals r.name)
      in
      Hashtbl.replace totals r.name (count + 1, total +. r.dur_us))
    records;
  Hashtbl.fold
    (fun name (count, total) acc ->
      { name; count; total_s = total /. 1e6 } :: acc)
    totals []
  |> List.sort (fun a b -> String.compare a.name b.name)
