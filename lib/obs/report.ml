type format = Human | Json

(* --------------------------------------------------------------- human *)

let pretty_ns ns =
  let f = float_of_int ns in
  if f >= 1e9 then Printf.sprintf "%.3f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.3f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.3f us" (f /. 1e3)
  else Printf.sprintf "%d ns" ns

(* Histogram names ending in _ns hold durations; print them as times. *)
let is_duration name =
  let suffix = "_ns" in
  let ln = String.length name and ls = String.length suffix in
  ln >= ls && String.sub name (ln - ls) ls = suffix

let human_of (snap : Metrics.snapshot) spans =
  let buf = Buffer.create 1024 in
  let section title = Buffer.add_string buf (Printf.sprintf "-- %s --\n" title) in
  if snap.Metrics.counters <> [] then begin
    section "counters";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-44s %12d\n" name v))
      snap.Metrics.counters
  end;
  if snap.Metrics.gauges <> [] then begin
    section "gauges";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-44s %12g\n" name v))
      snap.Metrics.gauges
  end;
  if snap.Metrics.histograms <> [] then begin
    section "histograms (p50/p90/p99 are bucket upper bounds)";
    List.iter
      (fun (name, h) ->
        let mean =
          if h.Metrics.count = 0 then 0.
          else float_of_int h.Metrics.sum /. float_of_int h.Metrics.count
        in
        let q p = Metrics.quantile h p in
        let show v =
          if is_duration name then pretty_ns v else string_of_int v
        in
        let show_mean () =
          if is_duration name then pretty_ns (int_of_float mean)
          else Printf.sprintf "%.1f" mean
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-44s count %-9d mean %-12s min %-12s p50 %-12s p90 %-12s p99 %-12s max %s\n"
             name h.Metrics.count (show_mean ()) (show h.Metrics.min)
             (show (q 0.5)) (show (q 0.9)) (show (q 0.99))
             (show h.Metrics.max)))
      snap.Metrics.histograms
  end;
  if spans <> [] then begin
    section "spans";
    let rec walk indent (s : Span.t) =
      Buffer.add_string buf
        (Printf.sprintf "  %-44s %8d call%s %12s\n"
           (String.make indent ' ' ^ s.Span.name)
           s.Span.calls
           (if s.Span.calls = 1 then " " else "s")
           (pretty_ns s.Span.total_ns));
      List.iter (walk (indent + 2)) s.Span.children
    in
    List.iter (walk 0) spans
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf

(* ---------------------------------------------------------- json lines *)

let json_lines_of (snap : Metrics.snapshot) spans =
  let buf = Buffer.create 1024 in
  let line v =
    Buffer.add_string buf (Json.to_string v);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (name, v) ->
      line
        (Json.Obj
           [ ("type", Json.String "counter"); ("name", Json.String name);
             ("value", Json.Int v) ]))
    snap.Metrics.counters;
  List.iter
    (fun (name, v) ->
      line
        (Json.Obj
           [ ("type", Json.String "gauge"); ("name", Json.String name);
             ("value", Json.Float v) ]))
    snap.Metrics.gauges;
  List.iter
    (fun (name, h) ->
      let mean =
        if h.Metrics.count = 0 then 0.
        else float_of_int h.Metrics.sum /. float_of_int h.Metrics.count
      in
      line
        (Json.Obj
           [ ("type", Json.String "histogram"); ("name", Json.String name);
             ("count", Json.Int h.Metrics.count);
             ("sum", Json.Int h.Metrics.sum); ("mean", Json.Float mean);
             ("min", Json.Int h.Metrics.min);
             ("max", Json.Int h.Metrics.max);
             ("p50", Json.Int (Metrics.quantile h 0.5));
             ("p90", Json.Int (Metrics.quantile h 0.9));
             ("p99", Json.Int (Metrics.quantile h 0.99));
             ("buckets",
              Json.List
                (List.map
                   (fun (lo, c) -> Json.List [ Json.Int lo; Json.Int c ])
                   h.Metrics.buckets)) ]))
    snap.Metrics.histograms;
  let rec walk path (s : Span.t) =
    let path = if path = "" then s.Span.name else path ^ "/" ^ s.Span.name in
    line
      (Json.Obj
         [ ("type", Json.String "span"); ("path", Json.String path);
           ("calls", Json.Int s.Span.calls);
           ("total_ns", Json.Int s.Span.total_ns);
           ("mean_ns",
            Json.Int
              (if s.Span.calls = 0 then 0 else s.Span.total_ns / s.Span.calls)) ]);
    List.iter (walk path) s.Span.children
  in
  List.iter (walk "") spans;
  Buffer.contents buf

let to_string fmt =
  let snap = Metrics.snapshot () and spans = Span.tree () in
  match fmt with
  | Human -> human_of snap spans
  | Json -> json_lines_of snap spans
