(* End-to-end benchmark of ppdm (see README.md).

     main.exe [--workload W|all] [--seed S] [--seconds N] [--trace 0|1]
              [--out FILE] [--ppdm PATH]
     main.exe --smoke --ppdm PATH
     main.exe compare A.json... -- B.json...

   Untraced, every workload prints the end-to-end metrics of
   BENCHMARK.json, measured on the ppdm binary as a child process; traced
   (--trace 1, or --traced), the per-layer metrics.  The last line of
   stdout is one JSON object: correct, attempted, failed, metrics. *)

let workloads = [ "private-dense"; "private-wide"; "mine-dense"; "ingest" ]

(* Longest a single workload may run before its children are killed and
   the run fails. *)
let watchdog_s = 170

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir path =
  remove_tree path;
  if not (Sys.file_exists (Filename.dirname path)) then Sys.mkdir (Filename.dirname path) 0o755;
  Sys.mkdir path 0o755;
  path

let run_workload ~ppdm ~seed ~seconds ~traced ~smoke name =
  ignore (Unix.alarm watchdog_s);
  let dir = fresh_dir (Filename.concat "_e2e" name) in
  let setup_reps = if smoke then 1 else 3 in
  match name with
  | "ingest" ->
      if traced then Ingest.traced ~ppdm ~dir ~seed ~seconds ~smoke
      else Ingest.run ~ppdm ~seed ~seconds ~setup_reps ~smoke
  | _ ->
      let spec = List.find (fun s -> s.Batch.name = name) (Batch.specs ~smoke) in
      if traced then Batch.traced ~ppdm ~dir ~seed spec
      else Batch.run ~ppdm ~dir ~seed ~seconds ~setup_reps spec

(* With several workloads the contract line carries every metric as
   "workload.metric". *)
let combined results =
  match results with
  | [ r ] -> r
  | _ ->
      {
        Results.workload = "all";
        correct = List.for_all (fun r -> r.Results.correct) results;
        attempted = List.fold_left (fun acc r -> acc + r.Results.attempted) 0 results;
        failed = List.fold_left (fun acc r -> acc + r.Results.failed) 0 results;
        metrics =
          List.concat_map
            (fun r ->
              List.map (fun (n, v, u) -> (r.Results.workload ^ "." ^ n, v, u)) r.Results.metrics)
            results;
        extra = [];
      }

let write_out path ~seed ~traced results =
  let module J = Ppdm_obs.Json in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("seed", J.Int seed);
                ("traced", J.Bool traced);
                ( "workloads",
                  J.Obj
                    (List.map
                       (fun r -> (r.Results.workload, Results.to_json ~with_extra:true r))
                       results) );
              ]));
      output_char oc '\n')

let main () =
  let workload = ref "all" and seed = ref 42 and seconds = ref 25 in
  let trace = ref 0 and out = ref "" and smoke = ref false in
  let ppdm = ref "_build/default/bin/ppdm_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads ^ ", or all (default)");
      ("--seed", Arg.Set_int seed, "S  input and randomization seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "N  measuring time per workload (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  1: per-layer metrics from a traced run");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--out", Arg.Set_string out, "FILE  also write every result, with sample counts, as JSON");
      ("--smoke", Arg.Set smoke, " tiny sizes, every workload untraced and traced; checks only");
      ("--ppdm", Arg.Set_string ppdm, "PATH  the ppdm binary under test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]  |  main.exe compare A.json... -- B.json...";
  if not (Sys.file_exists !ppdm) then begin
    Printf.eprintf "e2e: no ppdm binary at %s\n" !ppdm;
    exit 2
  end;
  let selected =
    if !workload = "all" || !smoke then workloads
    else if List.mem !workload workloads then [ !workload ]
    else begin
      Printf.eprintf "e2e: unknown workload %s\n" !workload;
      exit 2
    end
  in
  let modes = if !smoke then [ false; true ] else [ !trace = 1 ] in
  let seconds = if !smoke then 1. else float_of_int !seconds in
  let results =
    List.concat_map
      (fun traced ->
        List.map
          (fun w ->
            let r = run_workload ~ppdm:!ppdm ~seed:!seed ~seconds ~traced ~smoke:!smoke w in
            if !smoke then
              Printf.printf "smoke %s%s: %s, %d attempted, %d failed\n%!" w
                (if traced then " traced" else "")
                (if r.Results.correct then "ok" else "FAILED")
                r.Results.attempted r.Results.failed
            else Results.print r;
            r)
          selected)
      modes
  in
  if !out <> "" then write_out !out ~seed:!seed ~traced:(!trace = 1) results;
  if not !smoke then print_endline (Ppdm_obs.Json.to_string (Results.to_json (combined results)));
  if not (List.for_all (fun r -> r.Results.correct) results) then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "e2e: workload exceeded its time limit";
         exit 3));
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest ->
      let rec split acc = function
        | "--" :: b -> (List.rev acc, b)
        | x :: xs -> split (x :: acc) xs
        | [] -> (List.rev acc, [])
      in
      let a, b = split [] rest in
      if a = [] || b = [] then begin
        prerr_endline "usage: main.exe compare A.json... -- B.json...";
        exit 2
      end;
      Compare.run a b
  | _ -> (
      try main ()
      with e ->
        Printf.eprintf "e2e: %s\n" (Printexc.to_string e);
        exit 1)
