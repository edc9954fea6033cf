let filtered_table ?(include_zero = false) keep =
  let table = Stats.Table.create [ "kind"; "metric"; "value" ] in
  List.iter
    (fun (name, v) ->
      if (include_zero || v <> 0) && keep name then
        Stats.Table.add_row table [ "counter"; name; string_of_int v ])
    (Counter.snapshot ());
  List.iter
    (fun (s : Labeled.sample) ->
      if keep s.Labeled.metric then
        Stats.Table.add_row table
          [
            "counter";
            Printf.sprintf "%s{%s=%S}" s.Labeled.metric s.Labeled.label
              s.Labeled.label_value;
            string_of_int s.Labeled.value;
          ])
    (Labeled.snapshot ());
  List.iter
    (fun (name, v) ->
      if keep name then
        Stats.Table.add_row table [ "gauge"; name; Printf.sprintf "%.3f" v ])
    (Gauge.snapshot ());
  List.iter
    (fun (h : Histogram.snapshot) ->
      if keep h.Histogram.sname then
        Stats.Table.add_row table
          [
            "histogram";
            h.Histogram.sname;
            Printf.sprintf "n=%d p50=%g p90=%g p99=%g max=%g" h.Histogram.count
              (Histogram.quantile h 0.5) (Histogram.quantile h 0.9)
              (Histogram.quantile h 0.99) h.Histogram.max_value;
          ])
    (Histogram.snapshot ());
  List.iter
    (fun (s : Span.summary) ->
      if keep s.Span.name then
        Stats.Table.add_row table
          [
            "span";
            s.name;
            Printf.sprintf "%d call%s, %.3f s" s.count
              (if s.count = 1 then "" else "s")
              s.total_s;
          ])
    (Span.summarize (Phase.snapshot ()));
  table

let to_table () = filtered_table (fun _ -> true)

(* a focused footer wants its zeros: "check.violations 0" is the
   healthy-run signal, not noise *)
let prefix_table ~prefix =
  filtered_table ~include_zero:true (fun name ->
      String.starts_with ~prefix name)

let delta_table ~before =
  let table = Stats.Table.create [ "counter"; "delta" ] in
  List.iter
    (fun (name, d) ->
      Stats.Table.add_row table [ name; Printf.sprintf "%+d" d ])
    (Counter.delta ~before ~after:(Counter.snapshot ()));
  table
