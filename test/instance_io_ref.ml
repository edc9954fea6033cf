(* The Printf-based instance printer that Core.Instance_io.to_string
   replaced, kept as the reference its output must match byte for
   byte. *)

module I = Core.Instance

let float_to_text x = if x = infinity then "inf" else Printf.sprintf "%.17g" x

let row_to_text row = String.concat " " (Array.to_list (Array.map float_to_text row))

let to_string (t : I.t) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let env_name =
    match t.I.env with
    | I.Identical -> "identical"
    | I.Uniform _ -> "uniform"
    | I.Restricted _ -> "restricted"
    | I.Unrelated _ -> "unrelated"
  in
  add "# setup-scheduling instance";
  add "env %s" env_name;
  add "machines %d" (I.num_machines t);
  add "classes %d" (I.num_classes t);
  add "setups %s" (row_to_text t.I.setups);
  add "jobs %d" (I.num_jobs t);
  (match t.I.env with
  | I.Unrelated _ -> ()
  | I.Identical | I.Uniform _ | I.Restricted _ ->
      add "sizes %s" (row_to_text t.I.sizes));
  add "job_class %s"
    (String.concat " " (Array.to_list (Array.map string_of_int t.I.job_class)));
  (match t.I.env with
  | I.Identical -> ()
  | I.Uniform speeds -> add "speeds %s" (row_to_text speeds)
  | I.Restricted eligible ->
      add "eligible";
      Array.iter
        (fun row ->
          add "%s"
            (String.concat " "
               (Array.to_list (Array.map (fun b -> if b then "1" else "0") row))))
        eligible
  | I.Unrelated p ->
      add "ptimes";
      Array.iter (fun row -> add "%s" (row_to_text row)) p;
      (match t.I.setup_matrix with
      | None -> ()
      | Some s ->
          add "setup_matrix";
          Array.iter (fun row -> add "%s" (row_to_text row)) s));
  Buffer.contents buf
