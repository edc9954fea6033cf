let version = 1

(* Client-propagated trace context (W3C-traceparent-flavored, but line
   oriented like the rest of the protocol): a trace id the server adopts
   as its ambient request context, plus optionally the client's span id
   so server-side roots link back to the client's phase tree. *)
type trace_ctx = { tid : string; parent : int option }

type request = {
  solver : string option;
  deadline_ms : float option;
  trace : trace_ctx option;
  instance : Core.Instance.t;
}

type reply = {
  solver : string;
  cache_hit : bool;
  degraded : bool;
  makespan : float;
  elapsed_us : int;
  assignment : int array;
  trace : string option;
}

type stats_format = Prometheus | Json

type session_op =
  | S_create of Core.Instance.t
  | S_add_jobs of Core.Instance.new_job list
  | S_drop_jobs of int list
  | S_resolve of { deadline_ms : float option }
  | S_close

type session_request = { sid : string; op : session_op; trace : trace_ctx option }

type session_reply = {
  sid : string;
  op : string;
  generation : int;
  jobs : int;
  mode : string option;
  solve : reply option;
  trace : string option;
}

(* Profile frames drive the in-process sampling profiler ([Obs.Profile])
   over the admin stream: inspect it, toggle an engine, or run a whole
   windowed capture in one round trip. *)
type profile_action = P_status | P_start | P_stop | P_capture of float

type profile_request = {
  paction : profile_action;
  pmode : Obs.Profile.mode;
  prate : float option; (* hz (cpu) or sampling rate (alloc) *)
  pformat : Obs.Profile.format;
  pfilter : string option; (* keep only samples under this trace id *)
}

type response =
  | Reply of reply
  | Stats_reply of { format : stats_format; body : string }
  | Events_reply of { body : string }
  | Health_reply of { body : string }
  | Explain_reply of { body : string }
  | Session_reply of session_reply
  | Profile_reply of { body : string }
  | Error of string

(* Admin frames ride the same stream as solve requests; a session is a
   sequence of either. *)
type incoming =
  | Solve of request
  | Stats of stats_format
  | Events of { count : int option; min_level : Obs.Event.level }
  | Health
  | Explain of string
  | Session of session_request
  | Profile of profile_request

let request_header = Printf.sprintf "request v%d" version
let stats_header = Printf.sprintf "stats v%d" version
let events_header = Printf.sprintf "events v%d" version
let health_header = Printf.sprintf "health v%d" version
let explain_header = Printf.sprintf "explain v%d" version
let session_header = Printf.sprintf "session v%d" version
let profile_header = Printf.sprintf "profile v%d" version
let response_header = Printf.sprintf "response v%d" version

let session_op_name = function
  | S_create _ -> "create"
  | S_add_jobs _ -> "add-jobs"
  | S_drop_jobs _ -> "drop-jobs"
  | S_resolve _ -> "resolve"
  | S_close -> "close"

let profile_action_name = function
  | P_status -> "status"
  | P_start -> "start"
  | P_stop -> "stop"
  | P_capture _ -> "capture"

let ( let* ) = Result.bind

(* --- value codecs ------------------------------------------------------- *)

(* One codec per value type. [parse] reads a field's value (the rest of
   its line after the key) and fails with the text that follows
   ["<key>: "] in the error; the getters add the key. [print] gives the
   words written after the key: one for a scalar, one per item for a
   space-separated list, so an empty list leaves the bare key. *)
type 'a codec = {
  parse : string -> ('a, string) result;
  print : 'a -> string list;
}

let expected what v =
  Result.Error (Printf.sprintf "expected %s, got %S" what v)

let word to_text x = [ to_text x ]
let text = { parse = Result.ok; print = word Fun.id }

let name =
  { text with parse = (fun v -> if v = "" then expected "a name" v else Ok v) }

(* an error reply's message must stay a single line to preserve framing *)
let message =
  { text with print = word (String.map (function '\n' | '\r' -> ' ' | c -> c)) }

let float_to_text x =
  if x = infinity then "inf" else Printf.sprintf "%.17g" x

(* [ok] is the accepted range; [inf] reads like any other float *)
let number what ok =
  {
    parse =
      (fun v ->
        match float_of_string_opt v with
        | Some x when ok x -> Ok x
        | Some _ | None -> expected what v);
    print = word float_to_text;
  }

let integer what ok =
  {
    parse =
      (fun v ->
        match int_of_string_opt v with
        | Some n when ok n -> Ok n
        | Some _ | None -> expected what v);
    print = word string_of_int;
  }

let enum to_text values =
  let what = String.concat "|" (List.map to_text values) in
  {
    parse =
      (fun v ->
        match List.find_opt (fun x -> to_text x = v) values with
        | Some x -> Ok x
        | None -> expected what v);
    print = word to_text;
  }

let bool =
  {
    parse =
      (fun v ->
        match bool_of_string_opt v with
        | Some b -> Ok b
        | None -> expected "a bool" v);
    print = word string_of_bool;
  }

(* the first failure wins *)
let parse_all parse items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match parse s with
        | Ok x -> go (x :: acc) rest
        | Result.Error e -> Result.Error e)
  in
  go [] items

let tokens v = String.split_on_char ' ' v |> List.filter (( <> ) "")

let words c =
  {
    parse = (fun v -> parse_all c.parse (tokens v));
    print = List.concat_map c.print;
  }

let commas c =
  {
    parse = (fun v -> parse_all c.parse (String.split_on_char ',' v));
    print = word (fun l -> String.concat "," (List.concat_map c.print l));
  }

let array c =
  {
    parse = (fun v -> Result.map Array.of_list (c.parse v));
    print = (fun a -> c.print (Array.to_list a));
  }

(* Session and trace ids travel on single lines of both directions, so
   keep them boring: short and made of unambiguous characters. *)
let id =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  let parse v =
    if v = "" then Result.Error "must not be empty"
    else if String.length v > 64 then
      Result.Error "must be at most 64 characters"
    else if not (String.for_all ok_char v) then
      Result.Error (Printf.sprintf "%S has characters outside [A-Za-z0-9._-]" v)
    else Ok v
  in
  { text with parse }

(* [trace <id>] or [trace <id>/<parent-span>]: the optional suffix is
   the client's open span id; the server-side root phase records it as
   its parent so the merged trace chains across the process boundary. *)
let trace =
  let parse v =
    match String.index_opt v '/' with
    | None -> Result.map (fun tid -> { tid; parent = None }) (id.parse v)
    | Some i -> (
        let* tid = id.parse (String.sub v 0 i) in
        let p = String.sub v (i + 1) (String.length v - i - 1) in
        match int_of_string_opt p with
        | Some s when s >= 0 -> Ok { tid; parent = Some s }
        | Some _ | None ->
            Result.Error
              (Printf.sprintf "parent span %S must be an integer >= 0" p))
  in
  let print { tid; parent } =
    match parent with None -> tid | Some p -> Printf.sprintf "%s/%d" tid p
  in
  { parse; print = word print }

let deadline = number "a number >= 0" (fun d -> d >= 0.0)
let seconds = number "0 < s <= 600" (fun s -> s > 0.0 && s <= 600.0)
let rate = number "a number > 0" (fun r -> r > 0.0)
let count = integer "an integer >= 1" (fun n -> n >= 1)
let index = integer "an integer >= 0" (fun n -> n >= 0)
let any_int = integer "an integer" (fun _ -> true)

let real = number "a number" (fun _ -> true)
let makespan = { real with print = word (Printf.sprintf "%g") }
let assignment = array (words any_int)

let stats_format =
  enum
    (function Prometheus -> "prometheus" | Json -> "json")
    [ Prometheus; Json ]

let level =
  enum Obs.Event.level_to_string Obs.Event.[ Debug; Info; Warn; Error ]

let action =
  enum profile_action_name [ P_status; P_start; P_stop; P_capture 0. ]

let mode = enum Obs.Profile.mode_to_string Obs.Profile.[ Cpu; Alloc ]
let pformat = enum Obs.Profile.format_to_string Obs.Profile.[ Collapsed; Json ]
let op = enum Fun.id [ "create"; "add-jobs"; "drop-jobs"; "resolve"; "close" ]
let cache = enum (fun hit -> if hit then "hit" else "miss") [ true; false ]

(* --- field getters ------------------------------------------------------ *)

(* Getters read typed values out of a body's [(key, value)] pairs. Every
   occurrence of a key must parse, and the last one wins. *)
let rec get_last key c last = function
  | [] -> Ok last
  | (k, v) :: rest when k = key -> (
      match c.parse v with
      | Ok x -> get_last key c (Some x) rest
      | Result.Error e -> Result.Error (key ^ ": " ^ e))
  | _ :: rest -> get_last key c last rest

let get fields key c = get_last key c None fields

let get_or fields key c default =
  Result.map (Option.value ~default) (get fields key c)

let need ~missing fields key c =
  match get fields key c with
  | Ok (Some x) -> Ok x
  | Ok None -> Result.Error (missing key)
  | Result.Error e -> Result.Error e

(* every occurrence, in line order: the repeated [job] and [jobs] lines *)
let all fields key c =
  parse_all
    (fun v -> Result.map_error (( ^ ) (key ^ ": ")) (c.parse v))
    (List.filter_map (fun (k, v) -> if k = key then Some v else None) fields)

let only keys ~unknown fields =
  match List.find_opt (fun (k, _) -> not (List.mem k keys)) fields with
  | Some (k, _) -> Result.Error (unknown k)
  | None -> Ok ()

(* One [job] line of an add-jobs frame: space-separated [key=value]
   tokens — [size=5 class=1], optionally [ptimes=1,2,inf] (unrelated) or
   [eligible=1,0,1] (restricted) — read with the same getters. *)
let job =
  let size = number "a finite number >= 0" (fun x -> x >= 0. && x < infinity) in
  let ptimes = array (commas real) in
  let eligible =
    array (commas (enum (fun b -> if b then "1" else "0") [ false; true ]))
  in
  let key_value tok =
    match String.index_opt tok '=' with
    | None -> expected "key=value" tok
    | Some i ->
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        Ok (String.sub tok 0 i, v)
  in
  let parse v =
    let* fields = parse_all key_value (tokens v) in
    let* () =
      only [ "size"; "class"; "ptimes"; "eligible" ]
        ~unknown:(fun k -> Printf.sprintf "unknown key %S" k) fields
    in
    let missing k = "missing " ^ k ^ "=..." in
    let* nsize = need ~missing fields "size" size in
    let* nclass = need ~missing fields "class" index in
    let* nptimes = get fields "ptimes" ptimes in
    let* neligible = get fields "eligible" eligible in
    Ok { Core.Instance.nsize; nclass; nptimes; neligible }
  in
  let kv key c x = key ^ "=" ^ String.concat " " (c.print x) in
  let opt key c = Option.fold ~none:[] ~some:(fun x -> [ kv key c x ]) in
  let print (j : Core.Instance.new_job) =
    kv "size" size j.nsize :: kv "class" index j.nclass
    :: (opt "ptimes" ptimes j.nptimes @ opt "eligible" eligible j.neligible)
  in
  { parse; print }

(* --- frames ------------------------------------------------------------- *)

(* One assembled frame, transport-agnostic: the header line plus the body
   lines up to (excluding) the [end] terminator. Every transport reduces
   its input to this before dispatching on the header, so every transport
   shares one parse path. *)
type frame = { fheader : string; fbody : string list }

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* The one body scanner: each non-blank line is a [(key, value)] pair, in
   line order. The first bare [block] line ([instance] in requests,
   [payload] in replies) takes the rest of the body verbatim. *)
let scan ?block body =
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | line :: rest -> (
        match split_first line with
        | "", _ -> go acc rest
        | k, "" when Some k = block -> (List.rev acc, Some rest)
        | kv -> go (kv :: acc) rest)
  in
  go [] body

let instance_of lines =
  Result.map_error Core.Instance_io.error_to_string
    (Core.Instance_io.of_string_result (String.concat "\n" lines))

let decode_solve fields block =
  let* solver = get fields "solver" name in
  let* deadline_ms = get fields "deadline_ms" deadline in
  let* trace = get fields "trace" trace in
  match block with
  | None -> Result.Error "request has no instance block"
  | Some lines ->
      let* instance = instance_of lines in
      Ok (Solve { solver; deadline_ms; trace; instance })

let decode_stats fields _ =
  let* format = get_or fields "format" stats_format Prometheus in
  Ok (Stats format)

let decode_events fields _ =
  let* count = get fields "count" count in
  let* min_level = get_or fields "level" level Obs.Event.Debug in
  Ok (Events { count; min_level })

let decode_explain fields _ =
  let* i = need ~missing:(( ^ ) "explain frame missing ") fields "id" id in
  Ok (Explain i)

let decode_profile fields _ =
  let* action = get fields "action" action in
  let* seconds = get fields "seconds" seconds in
  let* pmode = get_or fields "mode" mode Obs.Profile.Cpu in
  let* prate = get fields "rate" rate in
  let* pformat = get_or fields "format" pformat Obs.Profile.Collapsed in
  let* pfilter = get fields "id" id in
  (* a seconds field implies a capture, and a capture needs one *)
  let* paction =
    match (action, seconds) with
    | (None | Some (P_capture _)), Some s -> Ok (P_capture s)
    | Some (P_capture _), None ->
        Result.Error "capture requires a seconds field"
    | Some a, _ -> Ok a
    | None, None -> Ok P_status
  in
  Ok (Profile { paction; pmode; prate; pformat; pfilter })

(* [op] and [id], then the op's payload: an [instance] block (create),
   [job] lines (add-jobs), [jobs] index lines (drop-jobs) or an optional
   [deadline_ms] (resolve). Each op takes only its own payload. *)
let decode_session fields block =
  let* sid = get fields "id" id in
  let* op_name = get fields "op" name in
  let* trace = get fields "trace" trace in
  let* deadline_ms = get fields "deadline_ms" deadline in
  let* added = all fields "job" job in
  let* dropped = Result.map List.concat (all fields "jobs" (words index)) in
  let* instance =
    match block with
    | None -> Ok None
    | Some lines -> Result.map Option.some (instance_of lines)
  in
  let required what = function
    | Some x -> Ok x
    | None -> Result.Error ("session frame missing " ^ what)
  in
  let* sid = required "id" sid in
  let* op_name = required "op" op_name in
  (* only the op that wins is checked against the op names *)
  let* op = Result.map_error (( ^ ) "op: ") (op.parse op_name) in
  let no_payload () =
    if Option.is_some instance then
      Result.Error (op ^ " takes no instance block")
    else if added <> [] then Result.Error (op ^ " takes no job lines")
    else if dropped <> [] then Result.Error (op ^ " takes no jobs line")
    else Ok ()
  in
  let* op =
    match (op, instance, added, dropped) with
    | "create", Some t, [], [] -> Ok (S_create t)
    | "create", Some _, _, _ ->
        Result.Error "create takes only an instance block"
    | "create", None, _, _ -> Result.Error "create needs an instance block"
    | "add-jobs", _, [], _ ->
        Result.Error "add-jobs needs at least one job line"
    | "add-jobs", None, js, [] -> Ok (S_add_jobs js)
    | "add-jobs", _, _, _ -> Result.Error "add-jobs takes only job lines"
    | "drop-jobs", _, _, [] -> Result.Error "drop-jobs needs a jobs line"
    | "drop-jobs", None, [], ids -> Ok (S_drop_jobs ids)
    | "drop-jobs", _, _, _ -> Result.Error "drop-jobs takes only jobs lines"
    | "resolve", _, _, _ ->
        Result.map (fun () -> S_resolve { deadline_ms }) (no_payload ())
    | _ -> Result.map (fun () -> S_close) (no_payload ())
  in
  Ok (Session { sid; op; trace })

(* The header table: each request kind's header, its block marker, the
   keys its body may carry, and its decoder. *)
let kinds =
  [
    ( request_header,
      Some "instance",
      [ "solver"; "deadline_ms"; "trace" ],
      decode_solve );
    (stats_header, None, [ "format" ], decode_stats);
    (events_header, None, [ "count"; "level" ], decode_events);
    (health_header, None, [], fun _ _ -> Ok Health);
    (explain_header, None, [ "id" ], decode_explain);
    ( session_header,
      Some "instance",
      [ "op"; "id"; "trace"; "deadline_ms"; "job"; "jobs" ],
      decode_session );
    ( profile_header,
      None,
      [ "action"; "seconds"; "mode"; "rate"; "format"; "id" ],
      decode_profile );
  ]

let expected_headers =
  match List.rev_map (fun (h, _, _, _) -> Printf.sprintf "%S" h) kinds with
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | [] -> ""

let incoming_of_frame { fheader; fbody } =
  match List.find_opt (fun (h, _, _, _) -> h = fheader) kinds with
  | None ->
      Result.Error
        (Printf.sprintf "bad request header %S (expected %s)" fheader
           expected_headers)
  | Some (_, block, keys, decode) ->
      let fields, block = scan ?block fbody in
      (* reject junk, so a field a newer client sends is not silently
         ignored by an older server; the kind is the header's first word *)
      let unknown key =
        Printf.sprintf "unknown %s field %S" (fst (split_first fheader)) key
      in
      let* () = only keys ~unknown fields in
      decode fields block

(* The one frame reader. A transport hands it trimmed lines — what
   [input_line]+[String.trim] yields — through [next_line]: blank lines
   between frames are skipped, the next line is the header, body lines
   run up to a bare [end]. A frame still open when [next_line] runs dry
   stays in the assembly, so a byte transport pulls again once more
   bytes arrive and a channel transport reports it as truncated. A
   frame with an unknown header is read to its [end] like any other, so
   decoding resynchronizes on the next frame. *)
type assembly = {
  mutable header : string;  (* "" while no frame is open *)
  mutable body : string list;  (* reversed *)
}

let rec assemble a next_line src =
  match next_line src with
  | None -> None
  | Some line ->
      if a.header = "" then begin
        a.header <- line;
        assemble a next_line src
      end
      else if line = "end" then begin
        let frame = { fheader = a.header; fbody = List.rev a.body } in
        a.header <- "";
        a.body <- [];
        Some frame
      end
      else begin
        a.body <- line :: a.body;
        assemble a next_line src
      end

let truncated_error = "truncated frame: missing \"end\" terminator"

let input_line_opt ic =
  try Some (String.trim (input_line ic)) with End_of_file -> None

(* Blocking channels read one frame per call. [Ok None] is a clean end
   of stream. *)
let read_with decode ic =
  let a = { header = ""; body = [] } in
  match assemble a input_line_opt ic with
  | Some frame -> Result.map Option.some (decode frame)
  | None when a.header = "" -> Ok None
  | None -> Result.Error truncated_error

let read_incoming ic = read_with incoming_of_frame ic

(* --- incremental parsing ------------------------------------------------- *)

(* Readiness-driven transports (the mux event loop) own raw byte
   buffers, not channels: bytes arrive in arbitrary chunks, possibly
   splitting a line — or the [payload] marker — anywhere. The buffer cuts
   complete lines out of the received bytes and feeds them to the same
   {!assemble} the channel readers use, so decode and resync behavior are
   identical to the channel path by construction. *)
module Incremental = struct
  type t = {
    mutable data : Bytes.t;
    mutable len : int;  (* valid bytes in [data] *)
    mutable pos : int;  (* consumed prefix *)
    frames : assembly;
  }

  let create () =
    { data = Bytes.create 4096; len = 0; pos = 0; frames = { header = ""; body = [] } }

  let feed t s =
    let n = String.length s in
    (* reclaim the consumed prefix before growing the buffer *)
    if t.pos > 0 && t.len + n > Bytes.length t.data then begin
      Bytes.blit t.data t.pos t.data 0 (t.len - t.pos);
      t.len <- t.len - t.pos;
      t.pos <- 0
    end;
    if t.len + n > Bytes.length t.data then begin
      let cap = ref (max 8 (2 * Bytes.length t.data)) in
      while t.len + n > !cap do
        cap := 2 * !cap
      done;
      let data = Bytes.create !cap in
      Bytes.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    Bytes.blit_string s 0 t.data t.len n;
    t.len <- t.len + n

  (* matches the channel path: a stream that ends without a trailing
     newline still delivers its tail bytes as one final line *)
  let finish t = if t.len > t.pos then feed t "\n"

  let in_frame t = t.frames.header <> ""
  let buffered t = t.len - t.pos

  let next_line t =
    let rec find i =
      if i >= t.len then None
      else if Bytes.get t.data i = '\n' then Some i
      else find (i + 1)
    in
    match find t.pos with
    | None -> None
    | Some i ->
        let line = Bytes.sub_string t.data t.pos (i - t.pos) in
        t.pos <- i + 1;
        Some (String.trim line)

  let next_frame t = assemble t.frames next_line t
  let truncated_error = truncated_error
end

(* --- encoding ----------------------------------------------------------- *)

let field key c x = (key, c.print x)
let opt key c = Option.fold ~none:[] ~some:(fun x -> [ field key c x ])

(* The one frame printer, for both directions: the header, each field as
   its key and words, the block (the marker line, then its text ending in
   a newline) and [end], handed piece by piece to [emit] so the channel
   writers need no intermediate string. *)
let print_frame emit (header, fields, block) =
  let line s =
    emit s;
    emit "\n"
  in
  line header;
  List.iter
    (fun (key, words) ->
      emit key;
      List.iter
        (fun w ->
          emit " ";
          emit w)
        words;
      emit "\n")
    fields;
  Option.iter
    (fun (marker, text) ->
      line marker;
      emit text;
      if text <> "" && text.[String.length text - 1] <> '\n' then emit "\n")
    block;
  line "end"

let frame_to_string frame =
  let buf = Buffer.create 256 in
  print_frame (Buffer.add_string buf) frame;
  Buffer.contents buf

let write_frame oc frame =
  print_frame (output_string oc) frame;
  flush oc

let instance_block i = Some ("instance", Core.Instance_io.to_string i)

(* The inverse of {!incoming_of_frame}; option-typed fields are written
   only when set. *)
let incoming_frame = function
  | Solve r ->
      ( request_header,
        opt "solver" name r.solver
        @ opt "deadline_ms" deadline r.deadline_ms
        @ opt "trace" trace r.trace,
        instance_block r.instance )
  | Stats f -> (stats_header, [ field "format" stats_format f ], None)
  | Events { count = n; min_level } ->
      ( events_header,
        opt "count" count n @ [ field "level" level min_level ],
        None )
  | Health -> (health_header, [], None)
  | Explain i -> (explain_header, [ field "id" id i ], None)
  | Session r ->
      let payload, block =
        match r.op with
        | S_create i -> ([], instance_block i)
        | S_add_jobs js -> (List.map (field "job" job) js, None)
        | S_drop_jobs ids -> ([ field "jobs" (words index) ids ], None)
        | S_resolve { deadline_ms } ->
            (opt "deadline_ms" deadline deadline_ms, None)
        | S_close -> ([], None)
      in
      ( session_header,
        field "op" op (session_op_name r.op)
        :: field "id" id r.sid
        :: (opt "trace" trace r.trace @ payload),
        block )
  | Profile p ->
      let window =
        match p.paction with
        | P_capture s -> [ field "seconds" seconds s ]
        | P_status | P_start | P_stop -> []
      in
      ( profile_header,
        (field "action" action p.paction :: window)
        @ (field "mode" mode p.pmode :: opt "rate" rate p.prate)
        @ (field "format" pformat p.pformat :: opt "id" id p.pfilter),
        None )

let incoming_to_string incoming = frame_to_string (incoming_frame incoming)
let write_incoming oc incoming = write_frame oc (incoming_frame incoming)
let write_request oc req = write_incoming oc (Solve req)
let write_session_request oc r = write_incoming oc (Session r)

(* --- responses ---------------------------------------------------------- *)

let reply_fields r =
  [
    field "solver" text r.solver;
    field "cache" cache r.cache_hit;
    field "degraded" bool r.degraded;
    field "makespan" makespan r.makespan;
    field "elapsed_us" any_int r.elapsed_us;
    field "assignment" assignment r.assignment;
  ]

let response_frame response =
  let reply status fields block =
    (response_header, ("status", [ status ]) :: fields, block)
  in
  (* a payload's lines never consist of the bare word "end": exposition
     and health lines carry a space, JSON lines punctuation, collapsed
     stacks "stack weight" — so the frame terminator stays unambiguous *)
  let payload status fields body =
    reply status fields (Some ("payload", body))
  in
  match response with
  | Reply r -> reply "ok" (opt "trace" text r.trace @ reply_fields r) None
  | Error m -> reply "error" [ field "error" message m ] None
  | Stats_reply { format; body } ->
      payload "stats" [ field "format" stats_format format ] body
  | Events_reply { body } -> payload "events" [] body
  | Health_reply { body } -> payload "health" [] body
  | Explain_reply { body } -> payload "explain" [] body
  | Profile_reply { body } -> payload "profile" [] body
  | Session_reply s ->
      (* one trace line per response: the echo lives on the session
         record, the embedded solve reply (when present) rides along *)
      reply "session"
        ([ field "id" text s.sid; field "op" text s.op ]
        @ opt "trace" text s.trace
        @ [
            field "generation" any_int s.generation;
            field "jobs" any_int s.jobs;
          ]
        @ opt "mode" text s.mode
        @ Option.fold ~none:[] ~some:reply_fields s.solve)
        None

let response_to_string response = frame_to_string (response_frame response)
let write_response oc response = write_frame oc (response_frame response)

let decode_reply fields =
  let missing k = Printf.sprintf "response missing field %S" k in
  let* solver = need ~missing fields "solver" text in
  let* cache_hit = need ~missing fields "cache" cache in
  let* degraded = need ~missing fields "degraded" bool in
  let* makespan = need ~missing fields "makespan" makespan in
  let* elapsed_us = need ~missing fields "elapsed_us" any_int in
  let* assignment = need ~missing fields "assignment" assignment in
  let* trace = get fields "trace" text in
  Ok { solver; cache_hit; degraded; makespan; elapsed_us; assignment; trace }

(* a session reply carries solve fields if and only if it has a mode *)
let decode_session_reply fields =
  let missing k = Printf.sprintf "session response missing field %S" k in
  let* sid = need ~missing fields "id" text in
  let* op = need ~missing fields "op" text in
  let* generation = need ~missing fields "generation" any_int in
  let* jobs = need ~missing fields "jobs" any_int in
  let* mode = get fields "mode" text in
  let* trace = get fields "trace" text in
  let* solve =
    match mode with
    | None -> Ok None
    | Some _ -> Result.map Option.some (decode_reply fields)
  in
  Ok (Session_reply { sid; op; generation; jobs; mode; solve; trace })

(* Replies skip keys they do not know. The payload is every line after
   the marker, verbatim; the printer guarantees a trailing newline,
   restored here so bodies round-trip. *)
let response_of_frame { fheader; fbody } =
  if fheader <> response_header then
    Result.Error
      (Printf.sprintf "bad response header %S (expected %S)" fheader
         response_header)
  else
    let fields, payload = scan ~block:"payload" fbody in
    let with_payload status reply =
      match payload with
      | None -> Result.Error (status ^ " response missing payload")
      | Some [] -> Ok (reply "")
      | Some lines -> Ok (reply (String.concat "\n" lines ^ "\n"))
    in
    let* status =
      need ~missing:(( ^ ) "response missing ") fields "status" text
    in
    match status with
    | "ok" -> Result.map (fun r -> Reply r) (decode_reply fields)
    | "error" ->
        let* m = get_or fields "error" message "unspecified error" in
        Ok (Error m)
    | "stats" ->
        let* format =
          need ~missing:(( ^ ) "stats response missing ") fields "format"
            stats_format
        in
        with_payload status (fun body -> Stats_reply { format; body })
    | "events" -> with_payload status (fun body -> Events_reply { body })
    | "health" -> with_payload status (fun body -> Health_reply { body })
    | "explain" -> with_payload status (fun body -> Explain_reply { body })
    | "profile" -> with_payload status (fun body -> Profile_reply { body })
    | "session" -> decode_session_reply fields
    | s -> Result.Error (Printf.sprintf "unknown status %S" s)

let read_response ic = read_with response_of_frame ic
