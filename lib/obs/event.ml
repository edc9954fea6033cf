(* Flight recorder: leveled, structured events in per-domain ring
   buffers. The recorder is always on at bounded cost: each domain owns
   a fixed-capacity Ring that newer events overwrite, so a long-lived
   server retains the recent past — enough to explain the request that
   just went slow — without ever growing. Emission touches only the
   calling domain's ring, so the hot path takes no lock. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type value = Str of string | Int of int | Float of float | Bool of bool

type t = {
  name : string;
  level : level;
  fields : (string * value) list;
  ts_us : float;
  domain : int;
  ctx : string option;
  seq : int;  (* per-domain emission index, breaks timestamp ties *)
}

let default_capacity = 512

(* Minimum severity recorded; events below it cost one atomic load. *)
let threshold = Atomic.make (severity Info)
let set_level l = Atomic.set threshold (severity l)
let enabled l = severity l >= Atomic.get threshold

let dummy =
  {
    name = "";
    level = Debug;
    fields = [];
    ts_us = 0.0;
    domain = -1;
    ctx = None;
    seq = -1;
  }

let ring = Ring.create ~capacity:default_capacity dummy
let set_capacity n = Ring.set_capacity ring n
let clear () = Ring.clear ring

(* --- JSON-lines rendering ------------------------------------------------ *)

let value_to_json = function
  | Str s -> Printf.sprintf "\"%s\"" (Trace.escape s)
  | Int i -> string_of_int i
  | Float x ->
      (* JSON has no non-finite literals *)
      if Float.is_finite x then Printf.sprintf "%.9g" x
      else Printf.sprintf "\"%s\"" (Float.to_string x)
  | Bool b -> string_of_bool b

let to_json_line e =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"ts_us\":%.3f,\"level\":\"%s\",\"name\":\"%s\",\"domain\":%d"
    e.ts_us (level_to_string e.level) (Trace.escape e.name) e.domain;
  (match e.ctx with
  | Some ctx -> Printf.bprintf buf ",\"req\":\"%s\"" (Trace.escape ctx)
  | None -> ());
  if e.fields <> [] then begin
    Buffer.add_string buf ",\"fields\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Printf.bprintf buf "\"%s\":%s" (Trace.escape k) (value_to_json v))
      e.fields;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Optional live sink: every recorded event is also written as one JSON
   line, serialized by a mutex (tailing is not a hot path). *)
let sink : out_channel option ref = ref None
let sink_mutex = Mutex.create ()

let set_json_sink oc =
  Mutex.lock sink_mutex;
  sink := oc;
  Mutex.unlock sink_mutex

(* --- emission ------------------------------------------------------------ *)

let emit ?(level = Info) name fields =
  if enabled level then begin
    let b = Ring.mine ring in
    let e =
      {
        name;
        level;
        fields;
        ts_us = Sink.now_us ();
        domain = (Domain.self () :> int);
        ctx = Sink.current_ctx ();
        seq = Ring.pushed b;
      }
    in
    Ring.push b e;
    if !sink <> None then begin
      Mutex.lock sink_mutex;
      (match !sink with
      | Some oc ->
          output_string oc (to_json_line e);
          output_char oc '\n';
          flush oc
      | None -> ());
      Mutex.unlock sink_mutex
    end
  end

(* --- reading -------------------------------------------------------------- *)

let snapshot () =
  Ring.items ring
  |> List.stable_sort (fun a b ->
         match Float.compare a.ts_us b.ts_us with
         | 0 -> compare (a.domain, a.seq) (b.domain, b.seq)
         | n -> n)

let recent ?ctx ?(min_level = Debug) ?count () =
  let evs =
    List.filter
      (fun e ->
        severity e.level >= severity min_level
        && match ctx with None -> true | Some c -> e.ctx = Some c)
      (snapshot ())
  in
  match count with
  | None -> evs
  | Some n ->
      let len = List.length evs in
      if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

let dump_jsonl ?ctx ?min_level ?count oc =
  List.iter
    (fun e ->
      output_string oc (to_json_line e);
      output_char oc '\n')
    (recent ?ctx ?min_level ?count ());
  flush oc
