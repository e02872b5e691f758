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

let write_file path db = with_out path (fun oc -> write_channel oc db)

(* --------------------------------------------------- fault injection *)

(* Test-only: simulate a truncated input by cutting the line stream short.
   The line loop below reads through the shadowed [input_line], so an armed
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

let outside_universe universe item =
  raise (Item_out_of_universe { item; universe })

let () =
  Printexc.register_printer (function
    | Item_out_of_universe { item; universe } ->
        Some
          (Printf.sprintf "Io.Item_out_of_universe (item %d, universe %d)" item
             universe)
    | _ -> None)

(* ------------------------------------------------------- the decoder *)

(* One read's item buffer, reused by every row and grown geometrically,
   and the largest item seen (FIMI infers its universe from it). *)
type scan = { mutable buf : int array; mutable max_item : int }

(* The itemset on [line], trimmed and split on spaces.  A token of at
   most 18 decimal digits (which cannot overflow) is converted in the
   byte loop; any other token goes to [int_of_string_opt], so a sign, a
   radix prefix or an underscore reads exactly as the stdlib reads it.
   An id outside [0, universe) goes to [outside]; [negative_is_bad]
   (FIMI) makes a negative id a bad token instead.  An ascending row is
   adopted as read; any other row is sorted and deduplicated. *)
let decode s ~who ~universe ~negative_is_bad ~outside line =
  let line = String.trim line in
  let hi = String.length line and i = ref 0 in
  let n = ref 0 and ascending = ref true in
  while !i < hi do
    let start = !i and v = ref 0 in
    while !i < hi && String.unsafe_get line !i <> ' ' do
      let d = Char.code (String.unsafe_get line !i) - 48 in
      v := if d >= 0 && d <= 9 && !v >= 0 then (!v * 10) + d else -1;
      incr i
    done;
    if !i > start then begin
      let x =
        if !v >= 0 && !i - start <= 18 then !v
        else
          let tok = String.sub line start (!i - start) in
          match int_of_string_opt tok with
          | Some x when x >= 0 || not negative_is_bad -> x
          | _ -> failwith (Printf.sprintf "%s: bad item %S" who tok)
      in
      if x < 0 || x >= universe then outside x;
      if !n = Array.length s.buf then s.buf <- Array.append s.buf s.buf;
      if !n > 0 && s.buf.(!n - 1) >= x then ascending := false;
      s.buf.(!n) <- x;
      if x > s.max_item then s.max_item <- x;
      incr n
    end;
    incr i
  done;
  let row = Array.sub s.buf 0 !n in
  if !ascending then Itemset.of_sorted_array_unchecked row
  else Itemset.of_array row

(* ----------------------------------------------------- the line loop *)

type _ format =
  | Plain : Itemset.t format  (** "universe" header, one itemset a row *)
  | Tagged : (int * Itemset.t) format  (** "tagged" header, size|items rows *)
  | Fimi : Itemset.t format  (** no header, rows to end of file *)

type stream_info = { universe : int; transactions : int }

(* The one line loop: fold [f] over the rows of [ic] in [format], from
   [init n] with [n] the declared row count (0 for FIMI), after [first]
   if the caller has already read that line.  [universe] is FIMI's
   declared universe; a plain header must agree with it. *)
let fold_lines (type r) (format : r format) ?universe ?first ic ~init
    ~(f : 'a -> r -> 'a) =
  Ppdm_obs.Span.with_ ~name:"io.read" @@ fun () ->
  let s = { buf = Array.make 64 0; max_item = -1 } in
  let pending = ref first in
  let next () =
    match !pending with
    | Some line ->
        pending := None;
        line
    | None -> input_line ic
  in
  (* A "<tag> <universe> transactions <count>" header, then exactly
     [count] rows, then only blank lines: a corrupted count must not
     silently drop the tail of the file. *)
  let header_rows ~who ~tag (row : int -> string -> r) =
    let header =
      try next () with End_of_file -> failwith (who ^ ": empty input")
    in
    let declared, count =
      match String.split_on_char ' ' (String.trim header) with
      | [ t; n; "transactions"; count ] when t = tag -> (
          match (int_of_string_opt n, int_of_string_opt count) with
          | Some n, Some count when n > 0 && count >= 0 -> (n, count)
          | _ -> failwith (who ^ ": malformed header values"))
      | _ -> failwith (who ^ ": malformed header")
    in
    if universe <> None && universe <> Some declared then
      failwith
        "Io.fold_transactions: universe override disagrees with the header";
    let row = row declared and acc = ref (init count) in
    for _ = 1 to count do
      match input_line ic with
      | line -> acc := f !acc (row line)
      | exception End_of_file ->
          failwith (who ^ ": fewer transactions than declared")
    done;
    (try
       while true do
         if String.trim (input_line ic) <> "" then
           failwith (who ^ ": trailing content after the declared transactions")
       done
     with End_of_file -> ());
    (!acc, { universe = declared; transactions = count })
  in
  match format with
  | Plain ->
      let who = "Io.read" in
      let outside _ = failwith (who ^ ": item outside the declared universe") in
      header_rows ~who ~tag:"universe" (fun universe line ->
          decode s ~who ~universe ~negative_is_bad:false ~outside line)
  | Tagged ->
      let who = "Io.read_tagged" in
      header_rows ~who ~tag:"tagged" (fun universe ->
          let outside = outside_universe universe in
          fun line ->
            match String.index_opt line '|' with
            | None -> failwith (who ^ ": row without a size|items separator")
            | Some bar -> (
                let size = String.sub line 0 bar
                and items =
                  String.sub line (bar + 1) (String.length line - bar - 1)
                in
                match int_of_string_opt (String.trim size) with
                | Some size when size >= 0 ->
                    ( size,
                      decode s ~who ~universe ~negative_is_bad:false ~outside
                        items )
                | _ -> failwith (Printf.sprintf "%s: bad size %S" who size)))
  | Fimi ->
      (* with no declared universe only [max_int] is outside, and kept *)
      let bound = Option.value universe ~default:max_int in
      let outside = Option.fold universe ~none:ignore ~some:outside_universe in
      let who = "Io.read_fimi" in
      let row = decode s ~who ~universe:bound ~negative_is_bad:true ~outside in
      let rec rows acc n =
        match next () with
        | line -> rows (f acc (row line)) (n + 1)
        | exception End_of_file -> (acc, n)
      in
      let acc, transactions = rows (init 0) 0 in
      let universe = Option.value universe ~default:(max 1 (s.max_item + 1)) in
      (acc, { universe; transactions })

(* Every row, appended as read.  The declared count sizes the array only
   up to 2^20 rows, past which it doubles as rows arrive: a valid file
   gets one exact array, and a corrupt count allocates at most 8 MB
   before its short body fails it. *)
let read_all format ?universe ic =
  let rows = ref [||] and n = ref 0 and size = ref 0 in
  let init declared = size := max 64 (min declared (1 lsl 20)) in
  let (), info =
    fold_lines format ?universe ic ~init ~f:(fun () row ->
        if !n = Array.length !rows then begin
          let bigger = Array.make (max !size (2 * !n)) row in
          Array.blit !rows 0 bigger 0 !n;
          rows := bigger
        end;
        !rows.(!n) <- row;
        incr n)
  in
  let rows = if !n = Array.length !rows then !rows else Array.sub !rows 0 !n in
  (info.universe, rows)

let read_channel ic =
  let universe, rows = read_all Plain ic in
  Db.create ~universe rows

let read_file path = In_channel.with_open_text path read_channel

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

let read_tagged path = In_channel.with_open_text path (read_all Tagged)

let write_fimi path db =
  with_out path (fun oc -> Db.iter (output_transaction oc) db)

let read_fimi ?universe path =
  In_channel.with_open_text path (fun ic ->
      let universe, rows = read_all Fimi ?universe ic in
      Db.create ~universe rows)

(* --------------------------------------- streaming one-pass folding *)

(* Sniff by the first line: the header format's first token is
   ["universe"], which can never begin a valid FIMI line (FIMI lines are
   integers only). *)
let fold_transactions ?universe path ~init ~f =
  In_channel.with_open_text path (fun ic ->
      let first = try Some (input_line ic) with End_of_file -> None in
      let token l = List.hd (String.split_on_char ' ' (String.trim l)) in
      let header = Option.map token first = Some "universe" in
      fold_lines (if header then Plain else Fimi) ?universe ?first ic
        ~init:(fun _ -> init) ~f)
