(* `main.exe compare A.json... -- B.json...`: two sets of result files
   (written with --out) side by side, judged against the bounds in
   BENCHMARK.json.  Files pair up in the order given. *)

module J = Ppdm_obs.Json

type definition = { name : string; unit_ : string; lower : bool; bound : float option }

let load path =
  match J.parse (Proc.read_file path) with
  | Ok v -> v
  | Error e -> failwith (path ^ ": " ^ e)

let number = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let definitions () =
  let bench = load "BENCHMARK.json" in
  let entries key = match J.member key bench with Some (J.List l) -> l | _ -> [] in
  let text m k = match J.member k m with Some (J.String s) -> s | _ -> "" in
  List.map
    (fun m ->
      { name = text m "name"; unit_ = text m "unit"; lower = text m "better" = "lower";
        bound = number (J.member "bound" m) })
    (entries "end_to_end" @ entries "per_layer")

let ( >>= ) = Option.bind

let workload_result file w = J.member "workloads" file >>= J.member w

let value file w metric =
  number (workload_result file w >>= J.member "metrics" >>= J.member metric >>= J.member "value")

let int_field file w key =
  Option.value ~default:0 (Option.map int_of_float (number (workload_result file w >>= J.member key)))

let workloads file =
  match J.member "workloads" file with Some (J.Obj l) -> List.map fst l | _ -> []

(* Share of pairs in which B reads better than A; ties count for neither. *)
let win_share ~lower a b =
  let rec pairs = function x :: xs, y :: ys -> (x, y) :: pairs (xs, ys) | _ -> [] in
  let ps = pairs (a, b) in
  let wins = List.length (List.filter (fun (x, y) -> if lower then y < x else y > x) ps) in
  float_of_int wins /. float_of_int (max 1 (List.length ps))

let run files_a files_b =
  let defs = definitions () in
  let a = List.map load files_a and b = List.map load files_b in
  let failures = ref 0 in
  Printf.printf "%-14s %-28s %-30s %-30s %8s %6s %6s %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "B wins" "bound" "verdict";
  let side files w d =
    let vs = List.filter_map (fun f -> value f w d.name) files in
    let q1, q3 = Stats.quartiles vs in
    (vs, Stats.median vs, Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median vs) q1 q3)
  in
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          let va, ma, sa = side a w d and vb, mb, sb = side b w d in
          if va <> [] && vb <> [] then begin
            let change = (mb /. ma) -. 1. in
            let worse = if d.lower then change else -.change in
            let verdict, bound =
              match d.bound with
              | None -> ("-", "-")
              | Some bound when worse > bound ->
                  incr failures;
                  ("FAIL", Printf.sprintf "%g" bound)
              | Some bound -> ("pass", Printf.sprintf "%g" bound)
            in
            Printf.printf "%-14s %-28s %-30s %-30s %+7.1f%% %5.0f%% %6s %s\n" w
              (d.name ^ " " ^ d.unit_) sa sb (100. *. change)
              (100. *. win_share ~lower:d.lower va vb)
              bound verdict
          end)
        defs;
      let errors files =
        List.fold_left (fun (f, t) file -> (f + int_field file w "failed", t + int_field file w "attempted")) (0, 0) files
      in
      let fa, ta = errors a and fb, tb = errors b in
      if fa + fb > 0 then incr failures;
      Printf.printf "%-14s %-28s %-30s %-30s\n" w "failed / attempted"
        (Printf.sprintf "%d / %d" fa ta) (Printf.sprintf "%d / %d" fb tb))
    (match a with f :: _ -> workloads f | [] -> []);
  if !failures > 0 then begin
    Printf.printf "compare: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "compare: every metric within its bound"
