(* ppdm: command-line front end for the privacy-preserving mining library.

   Subcommands:
     gen         generate a synthetic transaction database
     randomize   apply a randomization operator (client side)
     analyze     print the privacy certificate of an operator
     mine        non-private Apriori over a database file
     private     end-to-end demo: randomize + privacy-preserving mining,
                 compared against the non-private ground truth
     recover     estimate one itemset's support from a tagged randomized
                 file (or count it exactly from a columnar file)
     convert     transpose a transaction file into the columnar format
     stats       summarize a transaction database file
     experiment  recompute one experiment of the evaluation
     serve       run the ingest service (randomized reports over TCP)
     load        load-generate against a running serve
     top         live dashboard over a serve admin plane
     stat        one-shot scrape of a serve admin plane
     selftest    property, differential, statistical and fault checks
     bench-diff  compare two benchmark files and gate regressions *)

open Cmdliner
open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_mining
open Ppdm
open Ppdm_runtime
module Experiment = Ppdm_check.Experiment

(* ------------------------------------------------------- operator specs *)

type operator_spec =
  | Op_uniform of float * float
  | Op_cut_and_paste of int * float
  | Op_optimized of float * float option (* gamma, fixed rho *)

(* Operator design gets its own span, so --stats accounts for it (the
   optimized ρ search is the bulk of it).  A command holding a pool passes
   [Pool.run pool] as [run], and the ρ search's batches spread over it. *)
let scheme_of_spec ?run ~universe spec =
  Ppdm_obs.Span.with_ ~name:"scheme" @@ fun () ->
  match spec with
  | Op_uniform (p_keep, p_add) -> Randomizer.uniform ~universe ~p_keep ~p_add
  | Op_cut_and_paste (cutoff, rho) -> Randomizer.cut_and_paste ~universe ~cutoff ~rho
  | Op_optimized (gamma, rho) ->
      Optimizer.scheme_for_estimation ?rho ?run ~universe ~gamma ()

(* A flag value out of range is "<cmd>: --flag …" and exit 2, found
   while the flags are parsed, before any input is read. *)
let usage_error ~who fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" who msg;
      exit 2)
    fmt

let check_fraction ~who flag v =
  if not (v >= 0. && v <= 1.) then
    usage_error ~who "--%s %g must be in [0,1]" flag v

let check_at_least ~who flag low v =
  if v < low then usage_error ~who "--%s %d must be at least %d" flag v low

(* Every operator flag is checked, whichever operator is picked: each
   range is that of the flag, not of the operator using it. *)
let operator_term ~who =
  let operator =
    Arg.(
      value
      & opt (enum [ ("uniform", `Uniform); ("cutpaste", `Cutpaste); ("optimized", `Optimized) ]) `Optimized
      & info [ "operator" ] ~doc:"Operator kind: uniform, cutpaste, or optimized.")
  in
  let p_keep = Arg.(value & opt float 0.5 & info [ "p-keep" ] ~doc:"uniform: keep probability.") in
  let p_add = Arg.(value & opt float 0.05 & info [ "p-add" ] ~doc:"uniform: add probability.") in
  let cutoff = Arg.(value & opt int 3 & info [ "cutoff" ] ~doc:"cutpaste: the K parameter.") in
  let rho = Arg.(value & opt (some float) None & info [ "rho" ] ~doc:"noise rate (optional for optimized).") in
  let gamma = Arg.(value & opt float 19. & info [ "gamma" ] ~doc:"optimized: amplification budget.") in
  let build operator p_keep p_add cutoff rho gamma =
    check_fraction ~who "p-keep" p_keep;
    check_fraction ~who "p-add" p_add;
    check_at_least ~who "cutoff" 0 cutoff;
    Option.iter (check_fraction ~who "rho") rho;
    if not (gamma >= 1.) then
      usage_error ~who "--gamma %g must be at least 1" gamma;
    match operator with
    | `Uniform -> Op_uniform (p_keep, p_add)
    | `Cutpaste -> Op_cut_and_paste (cutoff, Option.value rho ~default:0.1)
    | `Optimized ->
        (* the designed operator needs some noise and some signal *)
        Option.iter
          (fun r ->
            if r = 0. || r = 1. then
              usage_error ~who
                "--rho %g must be in (0,1) for the optimized operator" r)
          rho;
        Op_optimized (gamma, rho)
  in
  Term.(const build $ operator $ p_keep $ p_add $ cutoff $ rho $ gamma)

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (all commands are deterministic).")

(* ---------------------------------------------------------- file errors *)

(* The one error path for a file: a malformed, missing or empty input,
   or an output that cannot be written, is "<cmd>: <path>: <message>"
   and exit 1, never an uncaught exception. *)
let file_error ~who path msg =
  Printf.eprintf "%s: %s: %s\n" who path msg;
  exit 1

(* An open failure's message already starts with "<path>: ". *)
let strip_path path msg =
  let n = String.length path + 2 in
  if String.starts_with ~prefix:(path ^ ": ") msg then
    Some (String.sub msg n (String.length msg - n))
  else None

let sys_error ~who path msg =
  file_error ~who path (Option.value (strip_path path msg) ~default:msg)

(* [write path], with a file it cannot open, write or close on that path. *)
let with_output ~who path write =
  try write path with Sys_error msg -> sys_error ~who path msg

(* --------------------------------------------------------- stats / trace *)

let stats_term =
  Arg.(
    value
    & opt (some (enum [ ("human", Ppdm_obs.Report.Human); ("json", Ppdm_obs.Report.Json) ])) None
    & info [ "stats" ]
        ~docv:"FORMAT"
        ~doc:
          "Collect and print an execution-metrics report (randomizer, \
           counting, miner levels, estimator, pool).  FORMAT is human or \
           json (JSON lines).  The report goes to stderr, so stdout and \
           every output file stay byte-identical to a run without \
           $(b,--stats).")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~docv:"FILE"
        ~doc:
          "Record an event timeline (spans, pool tasks, miner levels) and \
           write it to FILE on exit: folded stacks for flamegraph tools \
           when FILE ends in .folded, Chrome trace-event JSON (loadable \
           in chrome://tracing or Perfetto) otherwise.  Same contract as \
           $(b,--stats): the report goes to the file, stdout stays \
           byte-identical to a run without $(b,--trace).")

(* Enable the requested observability layers around [f]; emit the reports
   afterwards — also on failure, so a crashed run still shows where time
   went (and the trace shows where it died).  Stdout is untouched:
   results must be byte-identical with and without --stats/--trace. *)
let with_obs ~who stats trace f =
  if stats = None && trace = None then f ()
  else begin
    if trace <> None then Ppdm_obs.Trace.set_enabled true;
    if stats <> None then Ppdm_obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Ppdm_obs.Metrics.set_enabled false;
        Ppdm_obs.Trace.set_enabled false;
        Option.iter
          (fun fmt ->
            prerr_string (Ppdm_obs.Report.to_string fmt);
            flush stderr)
          stats;
        Option.iter
          (fun path -> with_output ~who path Ppdm_obs.Trace.write_file)
          trace)
      f
  end

(* Everything a command prints or writes once its work is done. *)
let emit f = Ppdm_obs.Span.with_ ~name:"emit" f

let jobs_term =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Number of domains to run on.  Output is byte-identical at any \
           job count for a fixed seed (randomization is seeded per chunk, \
           not per domain).")

(* ----------------------------------------------------------------- gen *)

let gen_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("quest", `Quest); ("fixed", `Fixed); ("zipf", `Zipf) ]) `Quest
      & info [ "kind" ] ~doc:"Generator: quest, fixed, or zipf.")
  in
  let universe = Arg.(value & opt int 1000 & info [ "universe" ] ~doc:"Number of items.") in
  let count = Arg.(value & opt int 10000 & info [ "count" ] ~doc:"Number of transactions.") in
  let size = Arg.(value & opt int 5 & info [ "size" ] ~doc:"fixed: transaction size; quest/zipf: average size.") in
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc:"Output file.") in
  let run kind universe count size out seed stats trace =
    let who = "gen" in
    check_at_least ~who "universe" 1 universe;
    check_at_least ~who "count" 0 count;
    (match kind with
    | `Fixed ->
        check_at_least ~who "size" 0 size;
        if size > universe then
          usage_error ~who "--size %d must be at most --universe %d" size universe
    | `Quest -> check_at_least ~who "size" 1 size
    | `Zipf -> check_at_least ~who "size" 0 size);
    with_obs ~who:"gen" stats trace @@ fun () ->
    let rng = Rng.create ~seed () in
    let db =
      Ppdm_obs.Span.with_ ~name:"datagen.generate" @@ fun () ->
      match kind with
      | `Quest ->
          Quest.generate rng
            {
              Quest.default with
              universe;
              n_transactions = count;
              avg_transaction_size = float_of_int size;
            }
      | `Fixed -> Simple.fixed_size rng ~universe ~size ~count
      | `Zipf ->
          Simple.zipf_clickstream rng ~universe ~exponent:1.1
            ~avg_size:(float_of_int size) ~count
    in
    emit @@ fun () ->
    with_output ~who out (fun out -> Io.write_file out db);
    Printf.printf "wrote %d transactions over %d items to %s (avg size %.2f)\n"
      (Db.length db) (Db.universe db) out (Db.avg_size db)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic transaction database.")
    Term.(
      const run $ kind $ universe $ count $ size $ out $ seed_term
      $ stats_term $ trace_term)

(* ----------------------------------------------------------- randomize *)

let in_term = Arg.(required & opt (some string) None & info [ "in"; "i" ] ~doc:"Input database file.")

(* mine/private/recover take either a row-major file (--in) or a columnar
   .ppdmc file (--db); the optional variant of in_term pairs with db_term
   and [resolve_source] enforces exactly-one. *)
let in_opt_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "in"; "i" ] ~doc:"Input database file.")

let db_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ]
        ~docv:"FILE"
        ~doc:
          "Columnar database file (.ppdmc, written by $(b,ppdm convert)): \
           each item's tid-set is stored in the shape the in-RAM engine \
           builds and is read and validated once at load — the row-major \
           database is never materialized.  \
           Mutually exclusive with $(b,--in).")

let resolve_source ~who input dbfile =
  match (input, dbfile) with
  | Some path, None -> `Row path
  | None, Some path -> `Columnar path
  | Some _, Some _ ->
      Printf.eprintf "%s: --in and --db are mutually exclusive\n" who;
      exit 2
  | None, None ->
      Printf.eprintf "%s: one of --in or --db is required\n" who;
      exit 2

let with_input ~who path read =
  let fail = file_error ~who path in
  match read path with
  | v -> v
  | exception Failure msg -> fail msg
  | exception Io.Item_out_of_universe { item; universe } ->
      fail (Printf.sprintf "item %d outside the declared universe %d" item universe)
  | exception Colfile.Error e -> fail (Colfile.error_message e)
  | exception Sys_error msg -> sys_error ~who path msg

(* An operator under which a size class carries no signal fails the
   estimate with a typed error: "<cmd>: size class S is unrecoverable at
   k = K" and exit 1. *)
let recoverable ~who f =
  try f ()
  with Estimator.Unrecoverable { size; k } ->
    Printf.eprintf "%s: size class %d is unrecoverable at k = %d\n" who size k;
    exit 1

(* Open and load a .ppdmc file: a bad header and a corrupt payload both
   take the input-error path. *)
let load_colfile ~who path =
  with_input ~who path (fun path ->
      let cf = Colfile.open_file path in
      Fun.protect
        ~finally:(fun () -> Colfile.close cf)
        (fun () -> Vertical.of_colfile cf))

let randomize_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc:"Output tagged file.") in
  let scheme_out =
    Arg.(value & opt (some string) None
         & info [ "scheme-out" ] ~doc:"Also write the operator parameters (for the server).")
  in
  let run input out scheme_out spec seed jobs stats trace =
    let who = "randomize" in
    with_obs ~who stats trace @@ fun () ->
    let db = with_input ~who input Io.read_file in
    let universe = Db.universe db in
    let rng = Rng.create ~seed () in
    let scheme, store =
      Pool.with_pool ~jobs (fun pool ->
          let scheme = scheme_of_spec ~run:(Pool.run pool) ~universe spec in
          (scheme, Parallel.randomize pool scheme rng db))
    in
    emit @@ fun () ->
    with_output ~who out (fun out ->
        Io.write_tagged_rows out ~universe ~rows:(Reports.length store)
          (Reports.iter_rows store));
    Option.iter
      (fun path ->
        with_output ~who path (fun path ->
            Scheme_io.write_file path scheme ~sizes:(Scheme_io.sizes_of_db db));
        Printf.printf "scheme parameters -> %s\n" path)
      scheme_out;
    Printf.printf "randomized %d transactions with %s -> %s\n"
      (Reports.length store) (Randomizer.name scheme) out
  in
  Cmd.v
    (Cmd.info "randomize" ~doc:"Apply a randomization operator to a database (client side).")
    Term.(
      const run $ in_term $ out $ scheme_out
      $ operator_term ~who:"randomize"
      $ seed_term
      $ jobs_term $ stats_term $ trace_term)

(* -------------------------------------------------------------- analyze *)

let analyze_cmd =
  let size = Arg.(value & opt int 5 & info [ "size" ] ~doc:"Transaction size to analyze.") in
  let universe = Arg.(value & opt int 1000 & info [ "universe" ] ~doc:"Universe size.") in
  let run spec universe size stats trace =
    let who = "analyze" in
    check_at_least ~who "universe" 1 universe;
    check_at_least ~who "size" 0 size;
    if size > universe then
      usage_error ~who "--size %d must be at most --universe %d" size universe;
    with_obs ~who:"analyze" stats trace @@ fun () ->
    let scheme = scheme_of_spec ~universe spec in
    let r = Randomizer.resolve scheme ~size in
    Printf.printf "operator: %s at transaction size %d\n" (Randomizer.name scheme) size;
    Printf.printf "keep distribution: %s\n"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.keep_dist)));
    Printf.printf "rho: %.4f, expected items kept: %.1f%%\n" r.rho
      (100. *. Randomizer.expected_kept_fraction scheme ~size);
    let gamma = Amplification.gamma_resolved r in
    if gamma = infinity then
      print_endline "amplification: INFINITE (no distribution-free guarantee)"
    else begin
      Printf.printf "amplification gamma: %.3f\n" gamma;
      List.iter
        (fun prior ->
          Printf.printf "  prior %4.1f%% -> posterior at most %5.1f%%\n" (100. *. prior)
            (100. *. Amplification.posterior_upper_bound ~gamma ~prior))
        [ 0.01; 0.05; 0.1 ]
    end;
    List.iter
      (fun prior ->
        Printf.printf "item-level posterior at prior %4.1f%%: %5.1f%%\n" (100. *. prior)
          (100. *. Breach.worst_item_posterior r ~prior))
      [ 0.01; 0.05 ];
    for k = 1 to min 3 size do
      Printf.printf "lowest discoverable support (k=%d, N=100k): %s\n" k
        (match Estimator.lowest_discoverable_support r ~k ~n:100_000 ~p_bg:0.02 with
        | s -> Printf.sprintf "%.4f" s
        | exception Estimator.Unrecoverable _ -> "unrecoverable")
    done
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Print the privacy certificate and utility profile of an operator.")
    Term.(
      const run $ operator_term ~who:"analyze" $ universe $ size $ stats_term
      $ trace_term)

(* ----------------------------------------------------------------- mine *)

let minsup_term =
  Arg.(value & opt float 0.02 & info [ "min-support" ] ~doc:"Minimum support fraction.")

(* A support fraction outside (0,1], or NaN, is a usage error (exit 2)
   like a bad --counter, not an uncaught Invalid_argument from the
   miners' own check. *)
let check_min_support ~who min_support =
  try Threshold.check_min_support ~who min_support
  with Invalid_argument _ ->
    usage_error ~who "--min-support %g must be a fraction in (0,1]" min_support

let maxsize_term =
  Arg.(value & opt int 3 & info [ "max-size" ] ~doc:"Largest itemset size explored.")

(* Validated in the command rather than by a cmdliner converter, so a
   bad value is a usage error (exit 2) like the commands' other flag
   checks. *)
let check_counter ~who flag =
  if String.lowercase_ascii flag <> "vertical" then
    usage_error ~who "--counter %S must be vertical" flag

let counter_term =
  Arg.(
    value
    & opt string "vertical"
    & info [ "counter" ] ~docv:"ENGINE"
        ~doc:
          "Support-counting engine for Apriori: $(b,vertical) (exact counts \
           on word-level tid bitmaps) is the only engine.")

let mine_cmd =
  let min_confidence =
    Arg.(value & opt (some float) None & info [ "rules" ] ~doc:"Also emit rules at this confidence.")
  in
  let run input dbfile min_support max_size min_confidence counter jobs stats
      trace =
    let source = resolve_source ~who:"mine" input dbfile in
    check_min_support ~who:"mine" min_support;
    check_counter ~who:"mine" counter;
    with_obs ~who:"mine" stats trace @@ fun () ->
    let n, frequent =
      match source with
      | `Row path ->
          let db = with_input ~who:"mine" path Io.read_file in
          ( Db.length db,
            Pool.with_pool ~jobs (fun pool ->
                Parallel.apriori_mine pool db ~min_support ~max_size) )
      | `Columnar path ->
          let vt = load_colfile ~who:"mine" path in
          ( Vertical.length vt,
            Pool.with_pool ~jobs (fun pool ->
                Parallel.apriori_mine_vertical pool vt ~min_support ~max_size)
          )
    in
    emit @@ fun () ->
    Printf.printf "%d frequent itemsets at minsup %.3f:\n" (List.length frequent) min_support;
    List.iter
      (fun (s, c) ->
        Printf.printf "  %s  %.4f\n" (Itemset.to_string s)
          (float_of_int c /. float_of_int n))
      frequent;
    Option.iter
      (fun min_confidence ->
        let rules = Rules.generate ~frequent ~n_transactions:n ~min_confidence in
        Printf.printf "%d rules at confidence >= %.2f:\n" (List.length rules) min_confidence;
        List.iter (fun r -> Format.printf "  %a@." Rules.pp_rule r) rules)
      min_confidence
  in
  Cmd.v
    (Cmd.info "mine" ~doc:"Non-private Apriori over a database file.")
    Term.(
      const run $ in_opt_term $ db_term $ minsup_term $ maxsize_term
      $ min_confidence $ counter_term $ jobs_term $ stats_term $ trace_term)

(* -------------------------------------------------------------- private *)

let private_cmd =
  let run input dbfile spec min_support max_size seed jobs stats trace =
    let source = resolve_source ~who:"private" input dbfile in
    check_min_support ~who:"private" min_support;
    with_obs ~who:"private" stats trace @@ fun () ->
    let path, db =
      match source with
      | `Row path -> (path, with_input ~who:"private" path Io.read_file)
      | `Columnar path ->
          (* randomization is inherently row-major (it rewrites
             transactions), so a columnar source is transposed back *)
          (path, Vertical.to_db (load_colfile ~who:"private" path))
    in
    if Db.length db = 0 then file_error ~who:"private" path "no transactions";
    let rng = Rng.create ~seed () in
    let scheme, (reports, truth) =
      Pool.with_pool ~jobs (fun pool ->
          let scheme =
            scheme_of_spec ~run:(Pool.run pool) ~universe:(Db.universe db) spec
          in
          ( scheme,
            ( Parallel.randomize pool scheme rng db,
              Parallel.apriori_mine pool db ~min_support ~max_size ) ))
    in
    let mined =
      recoverable ~who:"private" (fun () ->
          Ppmining.mine_reports ~scheme ~reports ~min_support ~max_size ())
    in
    emit @@ fun () ->
    Printf.printf "operator: %s\n" (Randomizer.name scheme);
    Printf.printf "%d itemsets discovered privately (truth: %d)\n"
      (List.length mined.Ppmining.discovered) (List.length truth);
    List.iter
      (fun d ->
        Printf.printf "  %s  est %.4f (sigma %.4f)\n"
          (Itemset.to_string d.Ppmining.itemset) d.Ppmining.est_support d.Ppmining.sigma)
      mined.Ppmining.discovered;
    let acc = Ppmining.accuracy_vs ~truth ~mined in
    Printf.printf "accuracy: %d true positives, %d false positives, %d false drops\n"
      acc.Ppmining.true_positives acc.Ppmining.false_positives acc.Ppmining.false_drops
  in
  Cmd.v
    (Cmd.info "private"
       ~doc:"End-to-end demo: randomize, mine privately, compare to ground truth.")
    Term.(
      const run $ in_opt_term $ db_term
      $ operator_term ~who:"private"
      $ minsup_term $ maxsize_term $ seed_term $ jobs_term $ stats_term $ trace_term)

(* -------------------------------------------------------------- recover *)

(* A requested itemset is a usage error when it is empty or names an item
   outside the universe: recover checks it against its input's universe
   once the header is read, serve against --universe. *)
let check_itemset ~who ~universe items =
  if items = [] then usage_error ~who "--itemset: empty itemset";
  List.iter
    (fun item ->
      if item < 0 || item >= universe then
        usage_error ~who "--itemset: item %d outside the universe [0, %d)" item
          universe)
    items;
  Itemset.of_list items

let recover_cmd =
  let itemset_term =
    Arg.(required & opt (some (list int)) None & info [ "itemset" ] ~doc:"Comma-separated item ids.")
  in
  let scheme_file =
    Arg.(value & opt (some string) None
         & info [ "scheme" ] ~doc:"Operator parameter file written by randomize --scheme-out \
                                   (overrides --operator).")
  in
  let run input dbfile spec scheme_file items stats trace =
    let source = resolve_source ~who:"recover" input dbfile in
    match source with
    | `Columnar path ->
        (* the un-randomized columnar file: the itemset's support is a
           direct count, no estimator and no variance *)
        with_obs ~who:"recover" stats trace @@ fun () ->
        let vt = load_colfile ~who:"recover" path in
        let itemset =
          check_itemset ~who:"recover" ~universe:(Vertical.universe vt) items
        in
        let n = Vertical.length vt in
        let count = Vertical.support_count vt itemset in
        emit @@ fun () ->
        Printf.printf "exact support of %s: %.5f (sigma 0.00000, N = %d)\n"
          (Itemset.to_string itemset)
          (if n = 0 then 0. else float_of_int count /. float_of_int n)
          n
    | `Row input ->
    with_obs ~who:"recover" stats trace @@ fun () ->
    (* The header fixes the universe, so the scheme and the accumulator
       are built before the first row, and each row is folded as it is
       decoded: no row outlives the fold. *)
    let start (h : Io.stream_info) =
      if h.transactions = 0 then failwith "no transactions";
      let scheme =
        match scheme_file with
        | Some path ->
            let scheme = with_input ~who:"recover" path Scheme_io.read_file in
            if Randomizer.universe scheme <> h.universe then
              file_error ~who:"recover" path
                (Printf.sprintf "universe %d, but %s declares %d"
                   (Randomizer.universe scheme) input h.universe);
            scheme
        | None -> scheme_of_spec ~universe:h.universe spec
      in
      Stream.create ~scheme
        ~itemset:(check_itemset ~who:"recover" ~universe:h.universe items)
    in
    let acc, _ =
      with_input ~who:"recover" input (fun path ->
          Io.read_tagged path ~init:start ~f:(fun acc (size, y) ->
              Stream.observe acc ~size y;
              acc))
    in
    Ppdm_obs.Metrics.add "stream.observed" (Stream.observed acc);
    let e = recoverable ~who:"recover" @@ fun () -> Stream.estimate acc in
    emit @@ fun () ->
    Printf.printf "estimated support of %s: %.5f (sigma %.5f, N = %d)\n"
      (Itemset.to_string (Stream.itemset acc))
      e.Estimator.support e.Estimator.sigma e.Estimator.n_transactions
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Estimate an itemset's support from a tagged randomized file (or \
          count it exactly from a columnar $(b,--db) file).")
    Term.(
      const run $ in_opt_term $ db_term
      $ operator_term ~who:"recover"
      $ scheme_file
      $ itemset_term $ stats_term $ trace_term)

(* ---------------------------------------------------------------- stats *)

let stats_cmd =
  let fimi =
    Arg.(value & flag & info [ "fimi" ] ~doc:"Read the input in FIMI format.")
  in
  let run input fimi stats trace =
    with_obs ~who:"stats" stats trace @@ fun () ->
    let db =
      with_input ~who:"stats" input
        (if fimi then fun path -> Io.read_fimi path else Io.read_file)
    in
    emit @@ fun () ->
    Printf.printf "transactions:   %d\n" (Db.length db);
    Printf.printf "universe:       %d items\n" (Db.universe db);
    Printf.printf "average size:   %.2f\n" (Db.avg_size db);
    Printf.printf "density:        %.4f%%\n" (100. *. Db.density db);
    (match Db.size_histogram db with
    | [] -> ()
    | hist ->
        let lo = fst (List.hd hist) and hi = fst (List.nth hist (List.length hist - 1)) in
        Printf.printf "size range:     %d..%d over %d distinct sizes\n" lo hi
          (List.length hist));
    if Db.length db > 0 then begin
      let qs = [ 0.5; 0.9; 0.99; 1.0 ] in
      let vals = Db.item_frequency_quantiles db qs in
      Printf.printf "item support quantiles:";
      List.iter2
        (fun q v -> Printf.printf "  p%.0f %.4f" (100. *. q) v)
        qs vals;
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarize a transaction database file.")
    Term.(const run $ in_term $ fimi $ stats_term $ trace_term)

(* ----------------------------------------------------------- experiment *)

let experiment_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum
            [ ("t1", `T1); ("t2", `T2); ("f1", `F1); ("f5", `F5); ("a1", `A1);
              ("a4", `A4); ("e1", `E1) ])) None
      & info [] ~docv:"ID" ~doc:"Experiment id: t1, t2, f1, f5, a1, a4, or e1.")
  in
  let run which stats trace =
    with_obs ~who:"experiment" stats trace @@ fun () ->
    match which with
    | `T1 ->
        List.iter
          (fun (r : Experiment.t1_row) ->
            Printf.printf "%.2f %.2f %.2f\n" r.rho1 r.rho2 r.gamma_limit)
          (Experiment.t1_breach_limits ())
    | `T2 ->
        List.iter
          (fun (r : Experiment.t2_row) ->
            Printf.printf "%d %.2f %d %.3f %.3f %s\n" r.cutoff r.rho r.size
              r.kept_fraction r.worst_posterior
              (if r.gamma = infinity then "inf" else Printf.sprintf "%.2f" r.gamma))
          (Experiment.t2_cut_and_paste ())
    | `F1 ->
        List.iter
          (fun (p : Experiment.f1_point) ->
            Printf.printf "%d %.4f %.6f\n" p.k p.support p.sigma)
          (Experiment.f1_sigma_vs_support ())
    | `F5 ->
        List.iter
          (fun (p : Experiment.f5_point) ->
            Printf.printf "%.4f %.4f %.4f %.4f\n" p.prior p.analytic_posterior
              p.empirical_posterior p.bound)
          (Experiment.f5_bound_validation ())
    | `A1 ->
        List.iter
          (fun (r : Experiment.a1_row) ->
            Printf.printf "%d %.0f %.3f %.5f %.5f\n" r.size r.gamma r.rr_epsilon
              r.sas_sigma_k2 r.rr_sigma_k2)
          (Experiment.a1_rr_comparison ())
    | `A4 ->
        List.iter
          (fun (r : Experiment.a4_row) ->
            Printf.printf "%d %.5f %.5f %d\n" r.count r.inv_rmse r.em_rmse
              r.inv_infeasible)
          (Experiment.a4_inversion_vs_em ())
    | `E1 ->
        List.iter
          (fun (r : Experiment.e1_row) ->
            Printf.printf "%.3f %.2f %.3f %.3f %.5f\n" r.alpha r.gamma r.epsilon
              r.posterior_bound r.reconstruction_rmse)
          (Experiment.e1_channel_tradeoff ())
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Recompute one experiment of the reconstructed evaluation (raw rows).")
    Term.(const run $ which $ stats_term $ trace_term)

(* ------------------------------------------------------------- selftest *)

let selftest_cmd =
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Cases per property (statistical sample sizes scale along).  \
             Defaults to $(b,PPDM_CHECK_COUNT) or 100; 25 is a sub-second \
             smoke, 10000 a deep fuzz.")
  in
  let run count seed stats trace =
    (* exit would skip with_obs's finally: compute the verdict inside the
       instrumented region, report, then exit — a failing selftest still
       gets its stats and trace written. *)
    let ok =
      with_obs ~who:"selftest" stats trace @@ fun () ->
      let report = Ppdm_check.Selftest.run ?count ~seed ~log:print_endline () in
      Printf.printf "selftest: %d passed, %d failed\n"
        report.Ppdm_check.Selftest.passed report.Ppdm_check.Selftest.failed;
      Ppdm_check.Selftest.ok report
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Run the in-process verification suite (property, differential, \
          statistical, and fault-injection checks) and exit non-zero on any \
          failure.  Failures print a seed that replays them.")
    Term.(const run $ count $ seed_term $ stats_term $ trace_term)

(* ------------------------------------------------------------- serve *)

let port_term =
  Arg.(value & opt int 7171 & info [ "port" ] ~doc:"TCP port on 127.0.0.1.")

let serve_cmd =
  let universe =
    Arg.(value & opt int 1000 & info [ "universe" ] ~doc:"Item universe size.")
  in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Ingest shards (one folder domain each).")
  in
  let batch =
    Arg.(value & opt int 256 & info [ "batch" ] ~doc:"Max reports folded per batch.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 4096
      & info [ "queue-capacity" ]
          ~doc:"Per-shard queue bound; full queues stall sessions (backpressure).")
  in
  let max_frame =
    Arg.(
      value
      & opt int Ppdm_server.Framing.default_max_frame
      & info [ "max-frame" ] ~doc:"Frame payload cap in bytes.")
  in
  let itemsets =
    Arg.(
      value
      & opt_all (list int) []
      & info [ "itemset" ] ~docv:"ITEMS"
          ~doc:"Track this comma-separated itemset (repeatable).")
  in
  let singletons =
    Arg.(
      value & opt int 0
      & info [ "singletons" ] ~docv:"N"
          ~doc:"Also track the first N singleton itemsets.")
  in
  let admin_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "admin-port" ]
          ~doc:
            "Also serve the admin plane (GET /metrics, /healthz, /readyz \
             over HTTP/1.0) on this loopback port; 0 picks an ephemeral \
             one.  Enables metrics recording and the periodic sampler for \
             the server's lifetime.")
  in
  let sampler_period =
    Arg.(
      value & opt int 1000
      & info [ "sampler-period-ms" ]
          ~doc:"Admin sampler period in milliseconds (min 1).")
  in
  let run port jobs shards batch queue_capacity max_frame spec universe
      itemsets singletons admin_port sampler_period stats trace =
    let who = "serve" in
    check_at_least ~who "universe" 1 universe;
    check_at_least ~who "shards" 1 shards;
    check_at_least ~who "batch" 1 batch;
    check_at_least ~who "queue-capacity" 1 queue_capacity;
    check_at_least ~who "max-frame" Ppdm_server.Serve.min_max_frame max_frame;
    check_at_least ~who "singletons" 0 singletons;
    let explicit = List.map (check_itemset ~who ~universe) itemsets in
    with_obs ~who:"serve" stats trace @@ fun () ->
    let scheme = scheme_of_spec ~universe spec in
    let tracked =
      let singles =
        List.init (min singletons universe) (fun i -> Itemset.singleton i)
      in
      match explicit @ singles with
      | [] -> List.init (min 5 universe) (fun i -> Itemset.singleton i)
      | l -> l
    in
    let config =
      {
        (Ppdm_server.Serve.default_config ~scheme ~itemsets:tracked) with
        port;
        jobs = max 1 jobs;
        shards;
        batch;
        queue_capacity;
        max_frame;
        admin_port;
        sampler_period_ns = max 1 sampler_period * 1_000_000;
      }
    in
    let stats =
      match
        Ppdm_server.Serve.run config
          ~ready:(fun port ->
            Printf.printf
              "ppdm serve: listening on 127.0.0.1:%d (operator %s, %d itemsets, \
               jobs %d, shards %d, batch %d)\n\
               %!"
              port (Randomizer.name scheme) (List.length tracked) (max 1 jobs)
              shards batch)
          ~admin_ready:(fun port ->
            Printf.printf
              "ppdm serve: admin plane on 127.0.0.1:%d (/metrics /healthz \
               /readyz)\n\
               %!"
              port)
      with
      | stats -> stats
      | exception Unix.Unix_error (e, "bind", addr) ->
          (* A port that cannot be bound (in use, privileged) is
             "serve: 127.0.0.1:<port>: …" and exit 1, as load reports a
             server it cannot reach. *)
          Printf.eprintf "serve: %s: %s\n" addr (Unix.error_message e);
          exit 1
    in
    Printf.printf "ppdm serve: stopped after %d sessions, %d reports folded\n"
      stats.Ppdm_server.Serve.sessions stats.Ppdm_server.Serve.reports
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the ingest service: accept randomized-transaction reports \
          over loopback TCP (length-prefixed binary frames), fold them \
          into sharded accumulators, and answer snapshot requests with \
          live support estimates.  Stops when a client sends a shutdown \
          frame.")
    Term.(
      const run $ port_term $ jobs_term $ shards $ batch
      $ queue_capacity $ max_frame
      $ operator_term ~who:"serve"
      $ universe $ itemsets
      $ singletons $ admin_port $ sampler_period $ stats_term $ trace_term)

(* -------------------------------------------------------------- load *)

let load_cmd =
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Concurrent reporting connections.")
  in
  let do_shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown frame once done (stops the server).")
  in
  let run port clients input spec seed do_shutdown stats trace =
    let who = "load" in
    check_at_least ~who "clients" 1 clients;
    (* A server that cannot be reached or refuses the session is "load:
       127.0.0.1:<port>: …" and exit 1, as a bad input file is. *)
    let server_error msg =
      Printf.eprintf "load: 127.0.0.1:%d: %s\n" port msg;
      exit 1
    in
    let load () =
      with_obs ~who stats trace @@ fun () ->
      let db = with_input ~who input Io.read_file in
      (* The draw of [randomize] and [private]: the same seed and file
         give the same reports, whatever the route. *)
      let scheme = scheme_of_spec ~universe:(Db.universe db) spec in
      let rng = Rng.create ~seed () in
      let reports =
        Pool.with_pool ~jobs:1 (fun pool ->
            Parallel.randomize pool scheme rng db)
      in
      let sizes = Scheme_io.sizes_of_db db in
      let count = Reports.length reports in
      (* One domain per client, each owning a contiguous row range of the
         store and its whole connection lifecycle.  A server runs at most
         [jobs] sessions at once, so surplus clients wait for a free
         worker — progress needs every client to eventually disconnect on
         its own, which is why the connections must not be driven in
         lockstep from one thread.  Every client is joined before a
         failure is raised. *)
      let drive i () =
        let lo = i * count / clients and hi = (i + 1) * count / clients in
        let c = Ppdm_server.Client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Ppdm_server.Client.close c)
          (fun () ->
            ignore (Ppdm_server.Client.handshake c ~scheme ~sizes ());
            Reports.iter_rows ~lo ~hi reports (fun size items off len ->
                Ppdm_server.Client.report c ~size
                  (Itemset.of_sorted_array_unchecked
                     (Array.sub items off len)));
            (* A snapshot round-trip is a sync barrier: the server handles
               a session's frames in order, so replying proves every
               report above has been routed into the shard queues. *)
            ignore (Ppdm_server.Client.snapshot c ~flush:false))
      in
      Array.init clients (fun i ->
          Domain.spawn (fun () ->
              match drive i () with
              | () -> Ok ()
              | exception e -> Error e))
      |> Array.map Domain.join
      |> Array.iter (function Ok () -> () | Error e -> raise e);
      let ctl = Ppdm_server.Client.connect ~port () in
      ignore (Ppdm_server.Client.handshake ctl ~sizes:[] ());
      let json = Ppdm_server.Client.snapshot ctl ~flush:true in
      let parsed = Ppdm_obs.Json.parse json in
      (match parsed with
      | Ok _ -> print_endline json
      | Error e -> Printf.eprintf "load: snapshot JSON does not parse: %s\n" e);
      if do_shutdown then Ppdm_server.Client.shutdown ctl;
      Ppdm_server.Client.close ctl;
      Result.is_ok parsed
    in
    let ok =
      try load () with
      | Unix.Unix_error (e, _, _) -> server_error (Unix.error_message e)
      | Ppdm_server.Client.Server_error (code, detail) ->
          server_error
            (Printf.sprintf "%s: %s"
               (Ppdm_server.Wire.error_code_name code)
               detail)
      | Failure msg -> server_error msg
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Load-generate against a running ppdm serve: randomize a \
          database file client-side (the draw of $(b,randomize) at the \
          same seed), stream the reports over loopback connections, then \
          print the server's flushed snapshot JSON (exits non-zero if it \
          does not parse).")
    Term.(
      const run $ port_term $ clients $ in_term
      $ operator_term ~who:"load"
      $ seed_term $ do_shutdown $ stats_term $ trace_term)

(* ----------------------------------------------------------- top / stat *)

let admin_port_term =
  Arg.(
    value & opt int 7172
    & info [ "admin-port" ]
        ~doc:"Admin-plane port of the ppdm serve to scrape (on 127.0.0.1).")

let fetch_metrics port =
  match Ppdm_server.Admin.fetch ~port "/metrics" with
  | Error msg -> Error msg
  | Ok (200, body) -> (
      match Ppdm_obs.Exposition.parse body with
      | Ok samples -> Ok (body, samples)
      | Error e -> Error ("malformed exposition: " ^ e))
  | Ok (status, _) -> Error (Printf.sprintf "HTTP %d from /metrics" status)

let sample_value samples ?(labels = []) name =
  List.find_map
    (fun (s : Ppdm_obs.Exposition.sample) ->
      if
        s.Ppdm_obs.Exposition.name = name
        && List.for_all (fun kv -> List.mem kv s.Ppdm_obs.Exposition.labels) labels
      then Some s.Ppdm_obs.Exposition.value
      else None)
    samples

(* Every sample of family [name], keyed by its [key] label, sorted
   numerically when the label values are numbers. *)
let samples_by_label samples name key =
  List.filter_map
    (fun (s : Ppdm_obs.Exposition.sample) ->
      if s.Ppdm_obs.Exposition.name = name then
        Option.map
          (fun v -> (v, s.Ppdm_obs.Exposition.value))
          (List.assoc_opt key s.Ppdm_obs.Exposition.labels)
      else None)
    samples
  |> List.sort (fun (a, _) (b, _) ->
         match (int_of_string_opt a, int_of_string_opt b) with
         | Some a, Some b -> compare a b
         | _ -> compare a b)

let dash_pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let render_dashboard ~port ~scrape samples =
  let b = Buffer.create 1024 in
  let v ?labels name = sample_value samples ?labels name in
  let num ?labels name = Option.value (v ?labels name) ~default:0. in
  Buffer.add_string b
    (Printf.sprintf "ppdm top — 127.0.0.1:%d  (scrape #%d)\n\n" port scrape);
  Buffer.add_string b
    (Printf.sprintf
       "  ingest    %8.1f reports/s    reports %-10.0f sessions %-6.0f \
        accepted %.0f\n"
       (num "ppdm_server_ingest_rate")
       (num "ppdm_server_reports_total")
       (num "ppdm_server_sessions_total")
       (num "ppdm_server_accepted_total"));
  let lat suffix = num ("ppdm_server_fold_latency_ns" ^ suffix) in
  Buffer.add_string b
    (Printf.sprintf
       "  fold lat  min %-9s p50 %-9s p90 %-9s p99 %-9s max %s  (last %.0fs \
        window)\n"
       (dash_pretty_ns (lat "_min"))
       (dash_pretty_ns (lat "_p50"))
       (dash_pretty_ns (lat "_p90"))
       (dash_pretty_ns (lat "_p99"))
       (dash_pretty_ns (lat "_max"))
       60.);
  let depths = samples_by_label samples "ppdm_server_queue_depth" "shard" in
  if depths <> [] then begin
    Buffer.add_string b "\n  shard      depth     folded\n";
    List.iter
      (fun (shard, depth) ->
        Buffer.add_string b
          (Printf.sprintf "  %5s  %9.0f  %9.0f\n" shard depth
             (num ~labels:[ ("shard", shard) ] "ppdm_server_folded")))
      depths
  end;
  let busy = samples_by_label samples "ppdm_pool_busy_fraction" "worker" in
  if busy <> [] then begin
    Buffer.add_string b "\n  workers  ";
    List.iter
      (fun (w, frac) ->
        Buffer.add_string b (Printf.sprintf "w%s %3.0f%%  " w (frac *. 100.)))
      busy;
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b
    (Printf.sprintf
       "\n  gc        heap %.1f MiB   minor %.0f   major %.0f   sampler \
        ticks %.0f\n"
       (num "ppdm_gc_heap_words" *. 8. /. (1024. *. 1024.))
       (num "ppdm_gc_minor_collections")
       (num "ppdm_gc_major_collections")
       (num "ppdm_server_sampler_ticks_total"));
  Buffer.contents b

let top_cmd =
  let interval =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~doc:"Refresh period in milliseconds (min 50).")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after N refreshes (0: run until interrupted).")
  in
  let run port interval iterations =
    let interval = float_of_int (max 50 interval) /. 1000. in
    let rec go scrape =
      match fetch_metrics port with
      | Error msg ->
          Printf.eprintf "ppdm top: %s\n" msg;
          exit 1
      | Ok (_, samples) ->
          (* Clear screen + home, then one dashboard frame. *)
          Printf.printf "\027[2J\027[H%s%!"
            (render_dashboard ~port ~scrape samples);
          if iterations = 0 || scrape < iterations then begin
            Unix.sleepf interval;
            go (scrape + 1)
          end
    in
    go 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running ppdm serve admin plane: poll \
          /metrics and redraw ingest rate, report->fold latency \
          quantiles, per-shard queue depths, worker busy fractions, and \
          GC health on a single refreshing screen.")
    Term.(const run $ admin_port_term $ interval $ iterations)

let stat_cmd =
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Print the raw OpenMetrics exposition instead of the summary.")
  in
  let run port raw =
    match fetch_metrics port with
    | Error msg ->
        Printf.eprintf "ppdm stat: %s\n" msg;
        exit 1
    | Ok (body, samples) ->
        if raw then print_string body
        else print_string (render_dashboard ~port ~scrape:1 samples)
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "One-shot scrape of a running ppdm serve admin plane: print the \
          dashboard summary once (or the raw OpenMetrics text with \
          --raw) and exit.  Exits non-zero if the admin plane is \
          unreachable or the exposition does not parse.")
    Term.(const run $ admin_port_term $ raw)

(* ------------------------------------------------------------ bench-diff *)

let bench_diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline BENCH_*.json file.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current BENCH_*.json file to gate.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.5
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Allowed slowdown as a fraction: a measurement regresses when \
             its ns/op exceeds the baseline's by more than FRAC (0.5 = \
             fails beyond 1.5x).  Loose values gate on gross regressions \
             only, which is what a cross-machine CI baseline can support.")
  in
  let load path =
    match Ppdm_obs.Benchdata.read_file path with
    | Ok ms -> ms
    | Error e ->
        Printf.eprintf "bench-diff: %s: %s\n" path e;
        exit 2
  in
  let run baseline_path current_path tolerance =
    if tolerance < 0. then begin
      prerr_endline "bench-diff: negative tolerance";
      exit 2
    end;
    let baseline = load baseline_path and current = load current_path in
    let d = Ppdm_obs.Benchdata.diff ~tolerance ~baseline ~current in
    Printf.printf "bench-diff: %d measurement(s) compared at tolerance %.2f\n"
      d.Ppdm_obs.Benchdata.compared tolerance;
    List.iter
      (fun (m : Ppdm_obs.Benchdata.measurement) ->
        Printf.printf "  missing from current: %s\n" (Ppdm_obs.Benchdata.key m))
      d.Ppdm_obs.Benchdata.missing;
    List.iter
      (fun (m : Ppdm_obs.Benchdata.measurement) ->
        Printf.printf "  new in current:       %s\n" (Ppdm_obs.Benchdata.key m))
      d.Ppdm_obs.Benchdata.added;
    List.iter
      (fun (r : Ppdm_obs.Benchdata.regression) ->
        Printf.printf "  REGRESSION %-40s %.0f -> %.0f ns/op (%.2fx)\n"
          (Ppdm_obs.Benchdata.key r.Ppdm_obs.Benchdata.baseline)
          r.Ppdm_obs.Benchdata.baseline.Ppdm_obs.Benchdata.ns_per_op
          r.Ppdm_obs.Benchdata.current.Ppdm_obs.Benchdata.ns_per_op
          r.Ppdm_obs.Benchdata.ratio)
      d.Ppdm_obs.Benchdata.regressions;
    if d.Ppdm_obs.Benchdata.regressions <> [] then exit 1;
    print_endline "bench-diff: ok"
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two machine-readable benchmark files (written by the \
          bench harness as BENCH_<section>.json) and exit non-zero when \
          any shared measurement regresses beyond the tolerance.")
    Term.(const run $ baseline $ current $ tolerance)

(* -------------------------------------------------------------- convert *)

let convert_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SRC"
          ~doc:"Source transaction file (FIMI or header format, sniffed).")
  in
  let dst =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DST" ~doc:"Columnar output file (.ppdmc).")
  in
  let universe =
    Arg.(
      value
      & opt (some int) None
      & info [ "universe" ]
          ~doc:
            "Universe override for FIMI input (default: inferred as max \
             item + 1).  An item at or above it is an error, never \
             silently folded in.")
  in
  let run src dst universe stats trace =
    (match universe with
    | Some u when u < 1 ->
        usage_error ~who:"convert" "--universe %d must be positive" u
    | _ -> ());
    with_obs ~who:"convert" stats trace @@ fun () ->
    let s =
      with_input ~who:"convert" src (fun src ->
          match Colfile.convert ?universe ~src ~dst () with
          | s -> s
          | exception (Sys_error msg as e) -> (
              (* the output's failures name the output, not the source *)
              match strip_path dst msg with
              | Some msg -> file_error ~who:"convert" dst msg
              | None -> raise e))
    in
    emit @@ fun () ->
    Printf.printf "wrote %s: %d transactions over %d items, %d payload bytes\n"
      dst s.Colfile.cv_transactions s.Colfile.cv_universe
      s.Colfile.cv_payload_bytes
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Transpose a transaction file into the columnar format (.ppdmc): \
          each item's tid-set as the bitmap or tid array the in-RAM engine \
          counts on.  Two streaming passes over the source (count, then \
          fill) — the source database is never resident, only the output; \
          the source must not change between them, so it cannot be a \
          pipe.  The result feeds $(b,--db) on mine/private/recover.")
    Term.(const run $ src $ dst $ universe $ stats_term $ trace_term)

let main =
  Cmd.group
    (Cmd.info "ppdm" ~version:"1.0.0"
       ~doc:"Privacy-preserving data mining with amplification-bounded randomization.")
    [ gen_cmd; randomize_cmd; analyze_cmd; mine_cmd; private_cmd; recover_cmd;
      convert_cmd; stats_cmd; experiment_cmd; serve_cmd; load_cmd; top_cmd;
      stat_cmd; selftest_cmd; bench_diff_cmd ]

let () = exit (Cmd.eval main)
