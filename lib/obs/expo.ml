(* Metrics exposition: the process-wide registries (counters, gauges,
   labeled families, histograms) rendered as Prometheus text format or
   as one JSON snapshot. Both renderings read the same snapshots, so the
   `stats` admin frame, `schedtool metrics` and the loadgen report can
   never disagree about what was measured. *)

(* Prometheus metric names allow [a-zA-Z0-9_:]; our dotted counter names
   (serve.cache_hits) map dots — and anything else exotic — to '_'. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let escape_label v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let float_text x =
  if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else if Float.is_nan x then "NaN"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

(* --- Prometheus text format --------------------------------------------- *)

let prometheus () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let p = sanitize name in
      Printf.bprintf buf "# TYPE %s counter\n%s %d\n" p p v)
    (Counter.snapshot ());
  let last_family = ref "" in
  List.iter
    (fun (s : Labeled.sample) ->
      let p = sanitize s.Labeled.metric in
      if p <> !last_family then begin
        Printf.bprintf buf "# TYPE %s counter\n" p;
        last_family := p
      end;
      Printf.bprintf buf "%s{%s=\"%s\"} %d\n" p (sanitize s.Labeled.label)
        (escape_label s.Labeled.label_value)
        s.Labeled.value)
    (Labeled.snapshot ());
  List.iter
    (fun (name, v) ->
      let p = sanitize name in
      Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" p p (float_text v))
    (Gauge.snapshot ());
  List.iter
    (fun (h : Histogram.snapshot) ->
      let p = sanitize h.Histogram.sname in
      Printf.bprintf buf "# TYPE %s histogram\n" p;
      let cumulative = ref 0 in
      List.iter
        (fun (ub, c) ->
          cumulative := !cumulative + c;
          (* OpenMetrics exemplar: link the bucket to the trace id that
             landed in it last, so a p99 bucket names an explainable
             trace. Timestamps are seconds in the exposition. *)
          let exemplar =
            match List.assoc_opt ub h.Histogram.exemplars with
            | Some (e : Histogram.exemplar) ->
                Printf.sprintf " # {trace_id=\"%s\"} %s %.6f"
                  (escape_label e.Histogram.e_trace)
                  (float_text e.Histogram.e_value)
                  (e.Histogram.e_ts_us /. 1e6)
            | None -> ""
          in
          Printf.bprintf buf "%s_bucket{le=\"%s\"} %d%s\n" p (float_text ub)
            !cumulative exemplar)
        h.Histogram.buckets;
      (* Prometheus requires the +Inf bucket even when nothing overflowed *)
      if
        not
          (List.exists (fun (ub, _) -> ub = infinity) h.Histogram.buckets)
      then Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" p !cumulative;
      Printf.bprintf buf "%s_sum %s\n" p (float_text h.Histogram.sum);
      Printf.bprintf buf "%s_count %d\n" p h.Histogram.count)
    (Histogram.snapshot ~include_empty:true ());
  (match Slo.reports () with
  | [] -> ()
  | reports ->
      Buffer.add_string buf "# TYPE slo_ratio gauge\n";
      List.iter
        (fun (r : Slo.report) ->
          Printf.bprintf buf "slo_ratio{objective=\"%s\",window=\"%s\"} %s\n"
            (escape_label r.Slo.rname) (escape_label r.Slo.window)
            (float_text r.Slo.ratio))
        reports;
      Buffer.add_string buf "# TYPE slo_burn_rate gauge\n";
      List.iter
        (fun (r : Slo.report) ->
          Printf.bprintf buf
            "slo_burn_rate{objective=\"%s\",window=\"%s\"} %s\n"
            (escape_label r.Slo.rname) (escape_label r.Slo.window)
            (float_text r.Slo.burn))
        reports);
  Buffer.contents buf

(* --- JSON snapshot ------------------------------------------------------- *)

(* JSON has no inf/nan literals; histograms encode their overflow bucket
   bound and empty-max as strings via [float_text]. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.9g" x
  else Printf.sprintf "\"%s\"" (float_text x)

let quantile_points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

(* --- bench/loadgen record export ----------------------------------------- *)

type bench_record = {
  bname : string;
  iterations : int;
  wall_ns : float;
  percentiles : (string * float) list;
  counters : (string * int) list;
  trace_ids : (string * string) list;
}

let bench_records_json records =
  let record_json r =
    let counters =
      r.counters
      |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" (Trace.escape k) v)
      |> String.concat ", "
    in
    let percentiles =
      match r.percentiles with
      | [] -> ""
      | ps ->
          let fields =
            ps
            |> List.map (fun (k, v) ->
                   Printf.sprintf "\"%s\": %.0f" (Trace.escape k) v)
            |> String.concat ", "
          in
          Printf.sprintf ", \"percentiles\": {%s}" fields
    in
    (* trace-id join keys (e.g. loadgen's slowest requests), omitted when
       empty so bench/main.exe records keep their exact committed shape *)
    let trace_ids =
      match r.trace_ids with
      | [] -> ""
      | ids ->
          let fields =
            ids
            |> List.map (fun (k, v) ->
                   Printf.sprintf "\"%s\": \"%s\"" (Trace.escape k)
                     (Trace.escape v))
            |> String.concat ", "
          in
          Printf.sprintf ", \"trace_ids\": {%s}" fields
    in
    Printf.sprintf
      "  {\"name\": \"%s\", \"iterations\": %d, \"wall_ns\": %.0f, \
       \"ns_per_iter\": %.0f%s%s, \"counters\": {%s}}"
      (Trace.escape r.bname) r.iterations r.wall_ns
      (r.wall_ns /. float_of_int (max 1 r.iterations))
      percentiles trace_ids counters
  in
  "[\n" ^ String.concat ",\n" (List.map record_json records) ^ "\n]\n"

let json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\n    \"%s\": %d" (Trace.escape name) v)
    (Counter.snapshot ());
  Buffer.add_string buf "\n  },\n  \"labeled\": [";
  List.iteri
    (fun i (s : Labeled.sample) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    {\"metric\": \"%s\", \"%s\": \"%s\", \"value\": %d}"
        (Trace.escape s.Labeled.metric)
        (Trace.escape s.Labeled.label)
        (Trace.escape s.Labeled.label_value)
        s.Labeled.value)
    (Labeled.snapshot ());
  Buffer.add_string buf "\n  ],\n  \"gauges\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\n    \"%s\": %s" (Trace.escape name) (json_float v))
    (Gauge.snapshot ());
  Buffer.add_string buf "\n  },\n  \"histograms\": [";
  List.iteri
    (fun i (h : Histogram.snapshot) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    {\"name\": \"%s\", \"count\": %d, \"sum\": %s, \"max\": %s, \
         \"ratio\": %s"
        (Trace.escape h.Histogram.sname)
        h.Histogram.count
        (json_float h.Histogram.sum)
        (json_float h.Histogram.max_value)
        (json_float h.Histogram.sratio);
      (* an empty histogram has no order statistics; fabricating p50/p90/
         p99 from nothing would be a lie, so they are null *)
      List.iter
        (fun (label, q) ->
          if h.Histogram.count = 0 then
            Printf.bprintf buf ", \"%s\": null" label
          else
            Printf.bprintf buf ", \"%s\": %s" label
              (json_float (Histogram.quantile h q)))
        quantile_points;
      Buffer.add_string buf ", \"buckets\": [";
      List.iteri
        (fun j (ub, c) ->
          if j > 0 then Buffer.add_string buf ", ";
          let exemplar =
            match List.assoc_opt ub h.Histogram.exemplars with
            | Some (e : Histogram.exemplar) ->
                Printf.sprintf
                  ", \"exemplar\": {\"trace_id\": \"%s\", \"value\": %s, \
                   \"ts_us\": %s}"
                  (Trace.escape e.Histogram.e_trace)
                  (json_float e.Histogram.e_value)
                  (json_float e.Histogram.e_ts_us)
            | None -> ""
          in
          Printf.bprintf buf "{\"le\": %s, \"count\": %d%s}" (json_float ub) c
            exemplar)
        h.Histogram.buckets;
      Buffer.add_string buf "]}")
    (Histogram.snapshot ~include_empty:true ());
  Buffer.add_string buf "\n  ],\n  \"slo\": [";
  List.iteri
    (fun i (r : Slo.report) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    {\"objective\": \"%s\", \"window\": \"%s\", \"target\": %s, \
         \"span_s\": %s, \"good\": %s, \"total\": %s, \"ratio\": %s, \
         \"burn\": %s}"
        (Trace.escape r.Slo.rname) (Trace.escape r.Slo.window)
        (json_float r.Slo.rtarget) (json_float r.Slo.span_s)
        (json_float r.Slo.good) (json_float r.Slo.total)
        (json_float r.Slo.ratio) (json_float r.Slo.burn))
    (Slo.reports ());
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
