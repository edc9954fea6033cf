(* Socket addressing and the client side of the wire, shared by every
   command that talks to a live server (`loadgen`, `metrics`, `events`,
   `explain`, `top`, `profile`), by the shard router's forwards and by
   the mux, which binds every listener: the target grammar, listener
   binding, one connect-and-exchange helper — plus the pure text wrangling scrapes
   need: a Prometheus text parser (the repo deliberately has no JSON
   parser dependency), snapshot diffing, and histogram-delta quantiles
   for "latency over the last refresh". *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* A target is HOST:PORT (TCP) when it ends in a colon-separated port
   number, a Unix-domain socket path otherwise — so every client-side
   command reaches TCP servers through the same --socket-style argument. *)
let hostport target =
  match String.rindex_opt target ':' with
  | None -> None
  | Some i -> (
      let host = String.sub target 0 i in
      let port = String.sub target (i + 1) (String.length target - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 && host <> "" -> Some (host, p)
      | Some _ | None -> None)

let tcp_address ~host ~port =
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  with
  | { Unix.ai_addr; _ } :: _ -> ai_addr
  | [] -> raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "getaddrinfo", host))

let resolve target =
  match hostport target with
  | None -> Ok (Unix.ADDR_UNIX target)
  | Some (host, port) -> (
      match tcp_address ~host ~port with
      | addr -> Ok addr
      | exception (Unix.Unix_error _ | Not_found) ->
          Error (Printf.sprintf "cannot resolve %s" target))

let is_tcp = function Unix.ADDR_INET _ -> true | Unix.ADDR_UNIX _ -> false

let listen addr =
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> Sys.remove path
  | Unix.ADDR_UNIX _ | Unix.ADDR_INET _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     if is_tcp addr then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 128
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect target =
  match resolve target with
  | Error _ as e -> e
  | Ok addr -> (
      match
        let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
        (try
           Unix.connect fd addr;
           if is_tcp addr then Unix.setsockopt fd Unix.TCP_NODELAY true
         with e ->
           Unix.close fd;
           raise e);
        fd
      with
      | exception Unix.Unix_error (err, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s: %s" target
               (Unix.error_message err))
      | fd ->
          Ok
            {
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
            })

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let exchange conn incoming =
  match
    Proto.write_incoming conn.oc incoming;
    Proto.read_response conn.ic
  with
  | Ok (Some response) -> Ok response
  | Ok None -> Error "server closed the session"
  | Error msg | (exception Sys_error msg) -> Error msg

let fetch conn incoming =
  match exchange conn incoming with
  | Error _ as e -> e
  | Ok response -> (
      match (incoming, response) with
      | Proto.Stats _, Proto.Stats_reply { body; _ }
      | Proto.Events _, Proto.Events_reply { body }
      | Proto.Health, Proto.Health_reply { body }
      | Proto.Explain _, Proto.Explain_reply { body }
      | Proto.Profile _, Proto.Profile_reply { body } ->
          Ok body
      | _, Proto.Error msg -> Error msg
      | _ -> Error "server answered the wrong frame kind")

let fetch_once target incoming =
  match connect target with
  | Error _ as e -> e
  | Ok conn ->
      let result = fetch conn incoming in
      close conn;
      result

(* --- Prometheus text parsing --------------------------------------------- *)

(* One series per line: `name 12` or `name{label="v"} 34.5`. The name
   key keeps its label block verbatim, so labeled series stay distinct.
   Comment (#) and malformed lines are skipped — a scraper must survive
   a server newer than itself. *)
let parse_prometheus text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           (* the value is everything after the last space; label values
              never contain spaces in our exposition *)
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
               let name = String.sub line 0 i in
               let v =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               let v =
                 match v with
                 | "+Inf" -> Some infinity
                 | "-Inf" -> Some neg_infinity
                 | "NaN" -> Some nan
                 | v -> float_of_string_opt v
               in
               Option.map (fun v -> (String.trim name, v)) v)

let value series name = List.assoc_opt name series

(* --- snapshot diffing ----------------------------------------------------- *)

type delta = { dname : string; current : float; d : float }

(* Series of [after] with the change since [before]; a series absent
   from [before] counts its full value as change (first scrape of a
   fresh counter). Order follows [after]. *)
let diff ~before ~after =
  List.map
    (fun (name, v) ->
      let prev = Option.value ~default:0.0 (value before name) in
      { dname = name; current = v; d = v -. prev })
    after

let changed ds = List.filter (fun d -> d.d <> 0.0) ds

(* --- histogram helpers ---------------------------------------------------- *)

(* Cumulative (upper_bound, count) points of `<metric>_bucket{le="..."}`
   series, ascending by bound. *)
let buckets series metric =
  let prefix = metric ^ "_bucket{le=\"" in
  let plen = String.length prefix in
  series
  |> List.filter_map (fun (name, v) ->
         if
           String.length name > plen + 2
           && String.sub name 0 plen = prefix
           && String.sub name (String.length name - 2) 2 = "\"}"
         then
           let le = String.sub name plen (String.length name - plen - 2) in
           let le =
             match le with "+Inf" -> Some infinity | le -> float_of_string_opt le
           in
           Option.map (fun le -> (le, v)) le
         else None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Quantile over cumulative bucket points: the upper bound of the bucket
   holding the q-th order statistic. None when the points hold no
   observations. *)
let quantile_of_buckets points q =
  match List.rev points with
  | [] -> None
  | (_, total) :: _ when total <= 0.0 -> None
  | (_, total) :: _ ->
      let rank = Float.max 1.0 (Float.round (q *. total)) in
      let rec go = function
        | [] -> None
        | (ub, c) :: rest -> if c >= rank then Some ub else go rest
      in
      go points

(* Bucket points for the observations made *between* two scrapes:
   per-bound difference of the cumulative counts. *)
let delta_buckets ~before ~after metric =
  let b = buckets before metric in
  List.map
    (fun (ub, c) ->
      let prev =
        Option.value ~default:0.0 (List.assoc_opt ub b)
      in
      (ub, Float.max 0.0 (c -. prev)))
    (buckets after metric)

(* --- health payload parsing ----------------------------------------------- *)

(* A health payload line is `key rest`; repeated kinds (meter, slo,
   heartbeat) carry k=v tokens in [rest]. *)
let health_lines body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.sub line (i + 1) (String.length line - i - 1) ))

let kv_fields rest =
  String.split_on_char ' ' rest
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | None -> None
         | Some i ->
             Some
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) ))

(* --- profile hotspots ----------------------------------------------------- *)

(* Rank frames by *self* weight — the weight of the collapsed stacks
   they terminate — as a fraction of the payload's total. Leaf weight,
   not cumulative, so a hot inner loop outranks its callers. *)
let top_self_frames ?(limit = 5) body =
  let entries = Obs.Flame.parse_collapsed body in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 entries in
  if total <= 0.0 then []
  else begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (stack, w) ->
        let leaf =
          match String.rindex_opt stack ';' with
          | None -> stack
          | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
        in
        Hashtbl.replace tbl leaf
          (w +. Option.value ~default:0.0 (Hashtbl.find_opt tbl leaf)))
      entries;
    Hashtbl.fold (fun name w acc -> (name, w /. total) :: acc) tbl []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare b a with 0 -> compare na nb | c -> c)
    |> List.filteri (fun i _ -> i < limit)
  end

(* --- event source ranking ------------------------------------------------- *)

let find_sub ~sub s =
  let slen = String.length s and sublen = String.length sub in
  let rec go i =
    if i + sublen > slen then None
    else if String.sub s i sublen = sub then Some i
    else go (i + 1)
  in
  if sublen = 0 then None else go 0

(* Count event names in an events-frame payload (JSON lines) without a
   JSON parser: every line carries exactly one `"name":"..."` pair
   (field order is fixed by Event.to_json_line). *)
let top_event_names ?(limit = 5) body =
  let tbl = Hashtbl.create 16 in
  let marker = "\"name\":\"" in
  let mlen = String.length marker in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         match find_sub ~sub:marker line with
         | None -> ()
         | Some i -> (
             match String.index_from_opt line (i + mlen) '"' with
             | None -> ()
             | Some j ->
                 let name = String.sub line (i + mlen) (j - i - mlen) in
                 Hashtbl.replace tbl name
                   (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))));
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)
  |> List.filteri (fun i _ -> i < limit)
