let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Phase records as Chrome B/E pairs that nest per tid. One domain runs
   its spans as a call stack, so a record nests inside the innermost
   record of its domain whose interval contains it; parent links cannot
   decide this alone, since a parent may be evicted, on another domain or
   in another process. Records arrive sorted by start (ties in open
   order), so one stack per domain finds that record; a pre-order walk
   of each tree then emits a B, the children, then an E. *)
type node = { r : Phase.record; mutable kids : node list }

let end_us (r : Phase.record) = r.start_us +. r.dur_us

let to_string () =
  let records = Phase.snapshot () in
  let t0 = match records with [] -> 0.0 | r :: _ -> r.Phase.start_us in
  let stacks = Hashtbl.create 8 in
  let roots =
    List.filter_map
      (fun (r : Phase.record) ->
        let rec enclosing = function
          | q :: _ as stack when end_us r <= end_us q.r -> stack
          | _ :: rest -> enclosing rest
          | [] -> []
        in
        let open_ = Hashtbl.find_opt stacks r.domain in
        let stack = enclosing (Option.value ~default:[] open_) in
        let n = { r; kids = [] } in
        Hashtbl.replace stacks r.domain (n :: stack);
        match stack with
        | q :: _ ->
            q.kids <- n :: q.kids;
            None
        | [] -> Some n)
      records
  in
  let buf = Buffer.create (256 + (192 * List.length records)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let event (r : Phase.record) ph ts alloc =
    if !first then first := false else Buffer.add_char buf ',';
    Printf.bprintf buf
      "\n{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"%s\",\"ts\":%.3f,\
       \"pid\":1,\"tid\":%d,\"args\":{"
      (escape r.name) ph (ts -. t0) r.domain;
    Option.iter
      (fun c -> Printf.bprintf buf "\"req\":\"%s\"," (escape c))
      r.ctx;
    Printf.bprintf buf "\"sid\":%d" r.id;
    Option.iter (Printf.bprintf buf ",\"psid\":%d") r.parent;
    if alloc then Printf.bprintf buf ",\"alloc_b\":%.0f" r.alloc_bytes;
    Buffer.add_string buf "}}"
  in
  let rec walk n =
    event n.r "B" n.r.start_us false;
    List.iter walk (List.rev n.kids);
    event n.r "E" (end_us n.r) true
  in
  List.iter walk roots;
  (* t0_us anchors the relative timestamps to the wall clock, so traces
     from different processes (a loadgen client and the server that
     answered it) can be re-based onto one timeline by [merge_strings].
     Chrome/Perfetto ignore unknown top-level keys. *)
  Printf.bprintf buf "\n],\"t0_us\":%.3f,\"displayTimeUnit\":\"ms\"}\n" t0;
  Buffer.contents buf

let to_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ()))

(* --- validation: a minimal JSON reader, enough to self-check the trace
   format without an external dependency. --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some ('b' | 'f') -> Buffer.add_char buf ' '; advance ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              (* keep the raw escape; validation only needs structure *)
              Buffer.add_string buf (String.sub s !pos 4);
              pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let validate_string text =
  match parse_json text with
  | exception Bad msg -> Error msg
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr events) -> (
          (* per-(pid,tid) stacks: every E must close the innermost open
             B on its own process track — merged multi-process traces
             reuse tids across pids *)
          let stacks : (int * int, string list) Hashtbl.t = Hashtbl.create 8 in
          let check_event ev =
            match ev with
            | Obj f -> (
                let str k =
                  match List.assoc_opt k f with
                  | Some (Str s) -> Ok s
                  | _ -> Error (Printf.sprintf "missing string key %S" k)
                in
                let num k =
                  match List.assoc_opt k f with
                  | Some (Num v) -> Ok v
                  | _ -> Error (Printf.sprintf "missing numeric key %S" k)
                in
                match (str "name", str "ph", num "ts", num "pid", num "tid") with
                | Ok name, Ok ph, Ok _, Ok pid, Ok tid -> (
                    let track = (int_of_float pid, int_of_float tid) in
                    let stack =
                      Option.value ~default:[] (Hashtbl.find_opt stacks track)
                    in
                    match ph with
                    | "B" ->
                        Hashtbl.replace stacks track (name :: stack);
                        Ok ()
                    | "E" -> (
                        match stack with
                        | top :: rest when top = name ->
                            Hashtbl.replace stacks track rest;
                            Ok ()
                        | top :: _ ->
                            Error
                              (Printf.sprintf
                                 "E %S does not close innermost B %S on tid %d"
                                 name top (snd track))
                        | [] ->
                            Error
                              (Printf.sprintf "E %S with no open B on tid %d"
                                 name (snd track)))
                    | "i" | "I" | "M" -> Ok ()
                    | other -> Error (Printf.sprintf "unknown phase %S" other))
                | Error e, _, _, _, _
                | _, Error e, _, _, _
                | _, _, Error e, _, _
                | _, _, _, Error e, _
                | _, _, _, _, Error e ->
                    Error e)
            | _ -> Error "trace event is not an object"
          in
          let rec all = function
            | [] -> Ok ()
            | ev :: rest -> (
                match check_event ev with Ok () -> all rest | Error _ as e -> e)
          in
          match all events with
          | Error e -> Error e
          | Ok () ->
              let unclosed =
                Hashtbl.fold (fun _ stack acc -> acc + List.length stack) stacks 0
              in
              if unclosed > 0 then
                Error (Printf.sprintf "%d B event(s) without matching E" unclosed)
              else Ok (List.length events))
      | Some _ -> Error "traceEvents is not an array"
      | None -> Error "no traceEvents key")
  | _ -> Error "top-level JSON value is not an object"

(* --- merge: combine traces from several processes (a loadgen client
   and the server that answered it) onto one timeline. Each input's
   [t0_us] anchor rebases its relative timestamps against the earliest
   anchor, and each input gets its own [pid] (with a [process_name]
   metadata record) so its domains render as separate tracks. --- *)

let rec write_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Printf.bprintf buf "%.0f" v
      else Printf.bprintf buf "%.3f" v
  | Str s -> Printf.bprintf buf "\"%s\"" (escape s)
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf v)
        l;
      Buffer.add_char buf ']'
  | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":" (escape k);
          write_json buf v)
        l;
      Buffer.add_char buf '}'

let merge_strings inputs =
  let parse (label, text) =
    match parse_json text with
    | Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Arr events) ->
            let t0 =
              match List.assoc_opt "t0_us" fields with
              | Some (Num v) -> v
              | _ -> 0.0
            in
            (label, t0, events)
        | Some _ -> raise (Bad (label ^ ": traceEvents is not an array"))
        | None -> raise (Bad (label ^ ": no traceEvents key")))
    | _ -> raise (Bad (label ^ ": top-level JSON value is not an object"))
    | exception Bad msg -> raise (Bad (label ^ ": " ^ msg))
  in
  match List.map parse inputs with
  | exception Bad msg -> Error msg
  | [] -> Error "nothing to merge"
  | parts ->
      let base =
        List.fold_left (fun acc (_, t0, _) -> Float.min acc t0) infinity parts
      in
      let base = if Float.is_finite base then base else 0.0 in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "{\"traceEvents\":[";
      let first = ref true in
      let emit ev =
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        write_json buf ev
      in
      List.iteri
        (fun i (label, t0, events) ->
          let pid = float_of_int (i + 1) in
          emit
            (Obj
               [
                 ("name", Str "process_name");
                 ("ph", Str "M");
                 ("pid", Num pid);
                 ("tid", Num 0.0);
                 ("ts", Num 0.0);
                 ("args", Obj [ ("name", Str label) ]);
               ]);
          List.iter
            (fun ev ->
              match ev with
              | Obj fields ->
                  emit
                    (Obj
                       (List.map
                          (fun (k, v) ->
                            match (k, v) with
                            | "ts", Num ts -> (k, Num (ts +. t0 -. base))
                            | "pid", _ -> (k, Num pid)
                            | _ -> (k, v))
                          fields))
              | other -> emit other)
            events)
        parts;
      Printf.bprintf buf "\n],\"t0_us\":%.3f,\"displayTimeUnit\":\"ms\"}\n" base;
      Ok (Buffer.contents buf)

let merge_files paths =
  let read path =
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (Filename.basename path, text)
  in
  match List.map read paths with
  | exception Sys_error msg -> Error msg
  | inputs -> merge_strings inputs

(* Structural JSON check for a single value (no trace-shape rules);
   Event's JSON-lines dumps are validated with this. *)
let check_json text =
  match parse_json text with
  | exception Bad msg -> Error msg
  | _ -> Ok ()

let validate_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate_string text
