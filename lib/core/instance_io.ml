type error = { line : int option; field : string option; message : string }

exception Parse_error of string

let error_to_string { line; field; message } =
  String.concat ""
    [
      (match line with Some l -> Printf.sprintf "line %d: " l | None -> "");
      (match field with Some f -> f ^ ": " | None -> "");
      message;
    ]

(* Printing ------------------------------------------------------------ *)

(* The C primitive behind Printf's %g. *)
external format_float : string -> float -> string = "caml_format_float"

(* Decimal digits of a non-negative int: counts, class ids and
   integral times. *)
let rec add_digits buf v =
  if v >= 10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))

(* Byte-identical to [%.17g]: that prints an integral value below 1e17
   as a plain integer, so only the other values go through the
   formatter. *)
let add_float buf x =
  if x = infinity then Buffer.add_string buf "inf"
  else if Float.is_integer x && (not (Float.sign_bit x)) && x < 1e17 then
    add_digits buf (int_of_float x)
  else Buffer.add_string buf (format_float "%.17g" x)

let add_row buf add row =
  Array.iteri
    (fun idx x ->
      if idx > 0 then Buffer.add_char buf ' ';
      add buf x)
    row

let to_string (t : Instance.t) =
  let buf = Buffer.create 256 in
  let line words =
    Buffer.add_string buf words;
    Buffer.add_char buf '\n'
  in
  let field name add row =
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    add_row buf add row;
    Buffer.add_char buf '\n'
  in
  let count name v =
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    add_digits buf v;
    Buffer.add_char buf '\n'
  in
  let matrix add rows =
    Array.iter
      (fun row ->
        add_row buf add row;
        Buffer.add_char buf '\n')
      rows
  in
  line "# setup-scheduling instance";
  line
    (match t.Instance.env with
    | Instance.Identical -> "env identical"
    | Instance.Uniform _ -> "env uniform"
    | Instance.Restricted _ -> "env restricted"
    | Instance.Unrelated _ -> "env unrelated");
  count "machines" (Instance.num_machines t);
  count "classes" (Instance.num_classes t);
  field "setups" add_float t.Instance.setups;
  count "jobs" (Instance.num_jobs t);
  (match t.Instance.env with
  | Instance.Unrelated _ -> ()
  | Instance.Identical | Instance.Uniform _ | Instance.Restricted _ ->
      field "sizes" add_float t.Instance.sizes);
  field "job_class" add_digits t.Instance.job_class;
  (match t.Instance.env with
  | Instance.Identical -> ()
  | Instance.Uniform speeds -> field "speeds" add_float speeds
  | Instance.Restricted eligible ->
      line "eligible";
      matrix
        (fun buf b -> Buffer.add_char buf (if b then '1' else '0'))
        eligible
  | Instance.Unrelated p -> (
      line "ptimes";
      matrix add_float p;
      match t.Instance.setup_matrix with
      | None -> ()
      | Some s ->
          line "setup_matrix";
          matrix add_float s));
  Buffer.contents buf

(* Parsing ------------------------------------------------------------- *)

(* Internal control flow: every malformed-input site raises [Err] with the
   full structured error; [of_string_result] catches it at the boundary. *)
exception Err of error

type line = { num : int; words : string list }

let fail ?line ?field fmt =
  Printf.ksprintf (fun message -> raise (Err { line; field; message })) fmt

let tokenize text =
  String.split_on_char '\n' text
  |> List.mapi (fun idx l -> (idx + 1, l))
  |> List.filter_map (fun (num, l) ->
         let l =
           match String.index_opt l '#' with
           | Some i -> String.sub l 0 i
           | None -> l
         in
         let words =
           String.split_on_char ' ' l
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "" && w <> "\r")
         in
         if words = [] then None else Some { num; words })

let parse_float ~line ~field w =
  match String.lowercase_ascii w with
  | "inf" | "+inf" | "infinity" -> infinity
  | _ -> (
      match float_of_string_opt w with
      | Some x -> x
      | None -> fail ~line ~field "expected a number, got %S" w)

let parse_int ~line ~field w =
  match int_of_string_opt w with
  | Some x -> x
  | None -> fail ~line ~field "expected an integer, got %S" w

(* [nonneg] rejects negative entries right here, with the line and field
   in hand; [allow_inf] is for ptimes/setup_matrix rows where [inf] means
   "ineligible". *)
let parse_float_row ~field ?(nonneg = false) ?(allow_inf = true) expected line =
  let row =
    Array.of_list (List.map (parse_float ~line:line.num ~field) line.words)
  in
  if Array.length row <> expected then
    fail ~line:line.num ~field "expected %d values, got %d" expected
      (Array.length row);
  Array.iteri
    (fun idx x ->
      if nonneg && not (x >= 0.0) then
        fail ~line:line.num ~field "value %d is %g, must be >= 0" idx x;
      if (not allow_inf) && x = infinity then
        fail ~line:line.num ~field "value %d must be finite" idx)
    row;
  row

let parse ~text () =
  let lines = tokenize text in
  let env = ref None in
  let machines = ref None in
  let classes = ref None in
  let jobs = ref None in
  let setups = ref None in
  let sizes = ref None in
  let job_class = ref None in
  let job_class_line = ref 0 in
  let speeds = ref None in
  let eligible = ref None in
  let ptimes = ref None in
  let setup_matrix = ref None in
  let need_int name r line rest =
    match rest with
    | [ w ] -> r := Some (parse_int ~line:line.num ~field:name w)
    | _ -> fail ~line:line.num ~field:name "expects exactly one integer"
  in
  let get ?line name r =
    match !r with
    | Some v -> v
    | None -> fail ?line ~field:name "missing %s declaration" name
  in
  let take_rows ~header count remaining what =
    let rec go k remaining acc =
      if k = 0 then (List.rev acc, remaining)
      else
        match remaining with
        | [] ->
            fail ~line:header.num ~field:what
              "truncated block: expected %d rows, found %d" count (count - k)
        | line :: rest -> go (k - 1) rest (line :: acc)
    in
    go count remaining []
  in
  let rec consume = function
    | [] -> ()
    | line :: rest -> (
        match line.words with
        | "env" :: [ e ] ->
            (match e with
            | "identical" | "uniform" | "restricted" | "unrelated" -> env := Some e
            | _ -> fail ~line:line.num ~field:"env" "unknown env %S" e);
            consume rest
        | "machines" :: r ->
            need_int "machines" machines line r;
            consume rest
        | "classes" :: r ->
            need_int "classes" classes line r;
            consume rest
        | "jobs" :: r ->
            need_int "jobs" jobs line r;
            consume rest
        | "setups" :: r ->
            setups :=
              Some
                (parse_float_row ~field:"setups" ~nonneg:true ~allow_inf:false
                   (get ~line:line.num "classes" classes)
                   { line with words = r });
            consume rest
        | "sizes" :: r ->
            sizes :=
              Some
                (parse_float_row ~field:"sizes" ~nonneg:true ~allow_inf:false
                   (get ~line:line.num "jobs" jobs)
                   { line with words = r });
            consume rest
        | "job_class" :: r ->
            let n = get ~line:line.num "jobs" jobs in
            if List.length r <> n then
              fail ~line:line.num ~field:"job_class" "expects %d entries" n;
            job_class :=
              Some
                (Array.of_list
                   (List.map (parse_int ~line:line.num ~field:"job_class") r));
            job_class_line := line.num;
            consume rest
        | "speeds" :: r ->
            speeds :=
              Some
                (parse_float_row ~field:"speeds" ~nonneg:true ~allow_inf:false
                   (get ~line:line.num "machines" machines)
                   { line with words = r });
            consume rest
        | [ "eligible" ] ->
            let m = get ~line:line.num "machines" machines
            and n = get ~line:line.num "jobs" jobs in
            let rows, rest = take_rows ~header:line m rest "eligible" in
            let parse_row l =
              if List.length l.words <> n then
                fail ~line:l.num ~field:"eligible" "rows need %d flags" n;
              Array.of_list
                (List.map
                   (fun w ->
                     match w with
                     | "0" -> false
                     | "1" -> true
                     | _ ->
                         fail ~line:l.num ~field:"eligible"
                           "flags must be 0 or 1, got %S" w)
                   l.words)
            in
            eligible := Some (Array.of_list (List.map parse_row rows));
            consume rest
        | [ "ptimes" ] ->
            let m = get ~line:line.num "machines" machines
            and n = get ~line:line.num "jobs" jobs in
            let rows, rest = take_rows ~header:line m rest "ptimes" in
            ptimes :=
              Some
                (Array.of_list
                   (List.map
                      (fun l -> parse_float_row ~field:"ptimes" ~nonneg:true n l)
                      rows));
            consume rest
        | [ "setup_matrix" ] ->
            let m = get ~line:line.num "machines" machines
            and kk = get ~line:line.num "classes" classes in
            let rows, rest = take_rows ~header:line m rest "setup_matrix" in
            setup_matrix :=
              Some
                (Array.of_list
                   (List.map
                      (fun l ->
                        parse_float_row ~field:"setup_matrix" ~nonneg:true kk l)
                      rows));
            consume rest
        | w :: _ -> fail ~line:line.num "unknown keyword %S" w
        | [] -> consume rest)
  in
  consume lines;
  let env = get "env" env in
  let setups = get "setups" setups in
  let job_class = get "job_class" job_class in
  (* Class ids are range-checked here rather than in the constructor so the
     error carries the job_class line number. *)
  let num_classes = get "classes" classes in
  Array.iteri
    (fun j k ->
      if k < 0 || k >= num_classes then
        fail ~line:!job_class_line ~field:"job_class"
          "job %d has class %d out of range [0, %d)" j k num_classes)
    job_class;
  try
    match env with
    | "identical" ->
        Instance.identical ~num_machines:(get "machines" machines)
          ~sizes:(get "sizes" sizes) ~job_class ~setups
    | "uniform" ->
        Instance.uniform ~speeds:(get "speeds" speeds) ~sizes:(get "sizes" sizes)
          ~job_class ~setups
    | "restricted" ->
        Instance.restricted ~eligible:(get "eligible" eligible)
          ~sizes:(get "sizes" sizes) ~job_class ~setups
    | "unrelated" ->
        Instance.unrelated ?setup_matrix:!setup_matrix ~p:(get "ptimes" ptimes)
          ~job_class ~setups ()
    | _ -> assert false
  with Invalid_argument msg -> raise (Err { line = None; field = None; message = msg })

let of_string_result text =
  match parse ~text () with
  | t -> Ok t
  | exception Err e -> Error e

let of_string text =
  match of_string_result text with
  | Ok t -> t
  | Error e -> raise (Parse_error (error_to_string e))

let to_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
