(* Span recorder of the traced run. The benchmark records spans around
   its own calls into each layer's public functions (nothing inside
   lib/ is instrumented for it); spans are kept in memory and written
   out as a Chrome trace when the run ends. A span's self time is its
   duration minus the part its child spans cover. *)

type span = {
  name : string;
  req : int;  (* the frame the span belongs to *)
  start_us : float;
  dur_us : float;
  self_us : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable open_child_us : float list;
      (* time covered by children of each open span, innermost first *)
  mutable req : int;
  durations : (string, Util.Fvec.t) Hashtbl.t;
}

let create () =
  { spans = []; open_child_us = []; req = 0; durations = Hashtbl.create 32 }

let set_req t req = t.req <- req

let durations t name =
  match Hashtbl.find_opt t.durations name with
  | Some v -> v
  | None ->
      let v = Util.Fvec.create () in
      Hashtbl.add t.durations name v;
      v

let with_span t name f =
  t.open_child_us <- 0.0 :: t.open_child_us;
  let start_us = Util.now_us () in
  let close () =
    let dur_us = Util.now_us () -. start_us in
    let child_us, outer =
      match t.open_child_us with c :: rest -> (c, rest) | [] -> (0.0, [])
    in
    t.open_child_us <-
      (match outer with p :: rest -> (p +. dur_us) :: rest | [] -> []);
    t.spans <-
      { name; req = t.req; start_us; dur_us; self_us = dur_us -. child_us }
      :: t.spans;
    Util.Fvec.push (durations t name) dur_us
  in
  match f () with
  | x ->
      close ();
      x
  | exception e ->
      close ();
      raise e

let maybe t name f = match t with Some t -> with_span t name f | None -> f ()

(* The span closed most recently. *)
let last t =
  match t.spans with s :: _ -> s | [] -> invalid_arg "Spans.last: no span"

let count t = List.length t.spans

(* Chrome trace-event format (complete events); timestamps relative to
   the first span. *)
let write t path =
  let spans = List.rev t.spans in
  let t0 = match spans with s :: _ -> s.start_us | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"self_us\":%.3f}}"
        s.name (s.start_us -. t0) s.dur_us s.req s.self_us)
    spans;
  output_string oc "\n]}\n";
  close_out oc
