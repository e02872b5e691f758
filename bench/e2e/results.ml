(* The metric vocabulary (the same names and units as BENCHMARK.json) and
   what one workload run reports. *)

module J = Ppdm_obs.Json

(* Every workload reports every one of these (see README.md for what each
   means on batch and on serving workloads). *)
let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB"); ("fresh_ms", "ms") ]

(* From the traced run.  A layer a workload never enters reports 0. *)
let per_layer =
  [
    ("io.read_s", "s");
    ("scheme.s", "s");
    ("randomizer.s", "s");
    ("randomizer.ns_per_tx", "ns");
    ("randomizer.items_out", "count");
    ("truth.s", "s");
    ("ppmining.s", "s");
    ("ppmining.level1_s", "s");
    ("ppmining.level2_s", "s");
    ("ppmining.level3_s", "s");
    ("ppmining.candidates_k2", "count");
    ("ppmining.candidates_k3", "count");
    ("ppmining.discovered", "count");
    ("estimator.count_s", "s");
    ("estimator.solve_s", "s");
    ("estimator.solves", "count");
    ("colfile.load_s", "s");
    ("vertical.resident_mb", "MB");
    ("apriori.s", "s");
    ("vertical.words_touched", "count");
    ("vertical.candidates", "count");
    ("pool.tasks", "count");
    ("pool.busy_share", "share");
    ("emit.s", "s");
    ("client.report_us_p50", "us");
    ("client.report_us_p99", "us");
    ("wire.decode_ns", "ns");
    ("fold.ns_per_report", "ns");
    ("snapshot.estimate_ms", "ms");
    ("probe.rtt_p50_ms", "ms");
    ("server.fold_latency_p50_ms", "ms");
    ("server.fold_latency_p99_ms", "ms");
    ("server.queue_depth_max", "count");
    ("server.folder_busy", "share");
    ("loadgen.send_lag_p99_ms", "ms");
    ("dark_share", "share");
    ("trace_overhead", "share");
  ]

type t = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
      (** exactly the end-to-end or the per-layer vocabulary *)
  extra : (string * float * string) list;
      (** sample counts and derived numbers: printed and saved, but not
          part of the contract *)
}

(* Every failed check is counted in [failed]; a run is correct when none
   failed. *)
let make ~workload ~traced ~attempted ~failed ~measured ~extra =
  let vocabulary = if traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name measured with
        | Some v -> (name, v, unit_)
        | None when traced -> (name, 0., unit_)
        | None -> invalid_arg ("Results.make: no value for " ^ name))
      vocabulary
  in
  { workload; correct = failed = 0; attempted; failed; metrics; extra }

let metric_json (name, v, unit_) =
  (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit_) ])

(* The contract line: exactly correct / attempted / failed / metrics. *)
let to_json ?(with_extra = false) r =
  J.Obj
    ([
       ("correct", J.Bool r.correct);
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("metrics", J.Obj (List.map metric_json r.metrics));
     ]
    @ if with_extra then [ ("extra", J.Obj (List.map metric_json r.extra)) ]
      else [])

let print r =
  Printf.printf "\n== %s ==\n" r.workload;
  List.iter
    (fun (name, v, unit_) -> Printf.printf "  %-30s %14.6g %s\n" name v unit_)
    (r.metrics @ r.extra);
  Printf.printf "  checks: %s, %d attempted, %d failed (error_rate %g)\n%!"
    (if r.correct then "ok" else "FAILED")
    r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
