(* One transaction as a line of space-separated item ids. *)
let output_transaction oc tx =
  Array.iteri
    (fun i x ->
      if i > 0 then output_char oc ' ';
      output_string oc (string_of_int x))
    (Itemset.to_array tx);
  output_char oc '\n'

let write_channel oc db =
  Printf.fprintf oc "universe %d transactions %d\n" (Db.universe db)
    (Db.length db);
  Db.iter (output_transaction oc) db

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let write_file path db = with_out path (fun oc -> write_channel oc db)

(* --------------------------------------------------- fault injection *)

(* Test-only: simulate a truncated input by cutting the line stream short.
   All readers below go through the shadowed [input_line], so an armed
   truncation behaves exactly like a file whose tail was lost: the header
   format must fail with its documented exception rather than return a
   partial database. *)
let truncate_after : int option ref = ref None

let inject_read_truncation ~lines =
  if lines < 0 then invalid_arg "Io.inject_read_truncation: negative lines";
  truncate_after := Some lines

let clear_fault_injection () = truncate_after := None

let input_line ic =
  match !truncate_after with
  | None -> Stdlib.input_line ic
  | Some 0 -> raise End_of_file
  | Some k ->
      truncate_after := Some (k - 1);
      Stdlib.input_line ic

exception Item_out_of_universe of { item : int; universe : int }

let () =
  Printexc.register_printer (function
    | Item_out_of_universe { item; universe } ->
        Some
          (Printf.sprintf "Io.Item_out_of_universe (item %d, universe %d)" item
             universe)
    | _ -> None)

(* "<tag> <universe> transactions <count>": the header of both the plain
   and the tagged format. *)
let parse_header ~who ~tag line =
  match String.split_on_char ' ' (String.trim line) with
  | [ t; n; "transactions"; count ] when t = tag -> (
      match (int_of_string_opt n, int_of_string_opt count) with
      | Some n, Some count when n > 0 && count >= 0 -> (n, count)
      | _ -> failwith (who ^ ": malformed header values"))
  | _ -> failwith (who ^ ": malformed header")

(* The item-line parser every header-declared format shares: ids in
   [0, universe), space-separated.  A non-integer token is a [Failure];
   how an id outside the universe fails is the caller's choice. *)
let parse_items ~who ~out_of_universe ~universe line =
  let tokens =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  in
  Itemset.of_list
    (List.map
       (fun tok ->
         match int_of_string_opt tok with
         | Some x when x >= 0 && x < universe -> x
         | Some x -> out_of_universe x
         | None -> failwith (Printf.sprintf "%s: bad item %S" who tok))
       tokens)

let parse_transaction ~universe line =
  parse_items ~who:"Io.read" ~universe line ~out_of_universe:(fun _ ->
      failwith "Io.read: item outside the declared universe")

(* A corrupted header with too small a count would otherwise silently
   drop the tail of the file; only trailing blank lines are tolerated. *)
let rec check_trailing ~who ic =
  match input_line ic with
  | line ->
      if String.trim line <> "" then
        failwith (who ^ ": trailing content after the declared transactions");
      check_trailing ~who ic
  | exception End_of_file -> ()

(* Exactly [count] rows after the header, then nothing but blank lines:
   either direction of a count/body mismatch is an error. *)
let read_rows ~who ic ~count parse =
  let rows =
    Array.init count (fun _ ->
        match input_line ic with
        | line -> parse line
        | exception End_of_file ->
            failwith (who ^ ": fewer transactions than declared"))
  in
  check_trailing ~who ic;
  rows

let read_header ~who ~tag ic =
  match input_line ic with
  | line -> parse_header ~who ~tag line
  | exception End_of_file -> failwith (who ^ ": empty input")

let read_channel ic =
  let universe, count = read_header ~who:"Io.read" ~tag:"universe" ic in
  Db.create ~universe
    (read_rows ~who:"Io.read" ic ~count (parse_transaction ~universe))

let read_file path = with_in path read_channel

(* ------------------------------------------ tagged randomized data *)

let write_tagged path ~universe data =
  with_out path (fun oc ->
      Printf.fprintf oc "tagged %d transactions %d\n" universe
        (Array.length data);
      Array.iter
        (fun (size, items) ->
          Printf.fprintf oc "%d|" size;
          output_transaction oc items)
        data)

let parse_tagged_row ~universe line =
  let who = "Io.read_tagged" in
  match String.index_opt line '|' with
  | None -> failwith (who ^ ": row without a size|items separator")
  | Some bar -> (
      let size = String.sub line 0 bar in
      let items = String.sub line (bar + 1) (String.length line - bar - 1) in
      match int_of_string_opt (String.trim size) with
      | Some size when size >= 0 ->
          ( size,
            parse_items ~who ~universe items ~out_of_universe:(fun item ->
                raise (Item_out_of_universe { item; universe })) )
      | _ -> failwith (Printf.sprintf "%s: bad size %S" who size))

let read_tagged path =
  with_in path (fun ic ->
      let who = "Io.read_tagged" in
      let universe, count = read_header ~who ~tag:"tagged" ic in
      (universe, read_rows ~who ic ~count (parse_tagged_row ~universe)))

let write_fimi path db =
  with_out path (fun oc -> Db.iter (output_transaction oc) db)

(* One FIMI line: space-separated non-negative item ids.  When a universe
   is known the check happens per item, so an out-of-range id surfaces as
   the typed error the moment it streams past — never silently folded
   into a too-small universe, and never deferred to the end of the
   file. *)
let parse_fimi_line ?universe line =
  let tokens =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  in
  let max_item = ref (-1) in
  let items =
    List.map
      (fun tok ->
        match int_of_string_opt tok with
        | Some x when x >= 0 ->
            (match universe with
            | Some u when x >= u ->
                raise (Item_out_of_universe { item = x; universe = u })
            | _ -> ());
            if x > !max_item then max_item := x;
            x
        | _ -> failwith (Printf.sprintf "Io.read_fimi: bad item %S" tok))
      tokens
  in
  (Itemset.of_list items, !max_item)

let resolve_universe ~declared ~max_item =
  match declared with Some u -> u | None -> max 1 (max_item + 1)

let read_fimi ?universe path =
  with_in path (fun ic ->
      let transactions = ref [] in
      let max_item = ref (-1) in
      (try
         while true do
           let tx, m = parse_fimi_line ?universe (input_line ic) in
           if m > !max_item then max_item := m;
           transactions := tx :: !transactions
         done
       with End_of_file -> ());
      Db.create
        ~universe:(resolve_universe ~declared:universe ~max_item:!max_item)
        (Array.of_list (List.rev !transactions)))

(* --------------------------------------- streaming one-pass folding *)

type stream_info = { universe : int; transactions : int }

(* Sniff by the first line: the header format's first token is
   ["universe"], which can never begin a valid FIMI line (FIMI lines are
   integers only).  Header mode enforces the declared count exactly as
   {!read_channel}; FIMI mode streams to end of file. *)
let fold_transactions ?universe path ~init ~f =
  with_in path (fun ic ->
      match input_line ic with
      | exception End_of_file ->
          let universe = resolve_universe ~declared:universe ~max_item:(-1) in
          (init, { universe; transactions = 0 })
      | first ->
          let is_header =
            match String.split_on_char ' ' (String.trim first) with
            | "universe" :: _ -> true
            | _ -> false
          in
          if is_header then begin
            let declared, count =
              parse_header ~who:"Io.read" ~tag:"universe" first
            in
            (match universe with
            | Some u when u <> declared ->
                failwith
                  "Io.fold_transactions: universe override disagrees with the \
                   header"
            | _ -> ());
            let acc = ref init in
            for _ = 1 to count do
              let line =
                try input_line ic
                with End_of_file ->
                  failwith "Io.read: fewer transactions than declared"
              in
              acc := f !acc (parse_transaction ~universe:declared line)
            done;
            check_trailing ~who:"Io.read" ic;
            (!acc, { universe = declared; transactions = count })
          end
          else begin
            let acc = ref init in
            let max_item = ref (-1) in
            let count = ref 0 in
            let handle line =
              let tx, m = parse_fimi_line ?universe line in
              if m > !max_item then max_item := m;
              incr count;
              acc := f !acc tx
            in
            handle first;
            (try
               while true do
                 handle (input_line ic)
               done
             with End_of_file -> ());
            let universe =
              resolve_universe ~declared:universe ~max_item:!max_item
            in
            (!acc, { universe; transactions = !count })
          end)
