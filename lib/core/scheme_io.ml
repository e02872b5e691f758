let write_lines ~out scheme ~sizes =
  let sizes = List.sort_uniq compare sizes in
  out (Printf.sprintf "ppdm-scheme 1\n");
  out (Printf.sprintf "universe %d\n" (Randomizer.universe scheme));
  out (Printf.sprintf "name %s\n" (Randomizer.name scheme));
  List.iter
    (fun size ->
      let r = Randomizer.resolve scheme ~size in
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Printf.sprintf "size %d rho %.17g keep" size r.Randomizer.rho);
      Array.iter
        (fun p -> Buffer.add_string buf (Printf.sprintf " %.17g" p))
        r.Randomizer.keep_dist;
      Buffer.add_char buf '\n';
      out (Buffer.contents buf))
    sizes

let to_string scheme ~sizes =
  let buf = Buffer.create 256 in
  write_lines ~out:(Buffer.add_string buf) scheme ~sizes;
  Buffer.contents buf

let write_file path scheme ~sizes =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_lines ~out:(output_string oc) scheme ~sizes)

let fail fmt = Printf.ksprintf failwith fmt

(* The parser is written against a line source so the file reader and
   the string reader (the wire handshake carries a scheme in-band) share
   one code path.  With [check], each operator is validated as its line
   is decoded; without, on first use ({!Randomizer.per_size}). *)
let read_lines ~check line =
  (match line () with
  | Some "ppdm-scheme 1" -> ()
  | _ -> fail "Scheme_io.read: bad magic");
  let universe =
    match line () with
    | Some l -> (
        match String.split_on_char ' ' l with
        | [ "universe"; n ] -> (
            match int_of_string_opt n with
            | Some n when n > 0 -> n
            | _ -> fail "Scheme_io.read: bad universe")
        | _ -> fail "Scheme_io.read: expected universe line")
    | None -> fail "Scheme_io.read: truncated"
  in
  let name =
    match line () with
    | Some l when String.length l >= 5 && String.sub l 0 5 = "name " ->
        String.sub l 5 (String.length l - 5)
    | _ -> fail "Scheme_io.read: expected name line"
  in
  let table = Hashtbl.create 8 in
  let rec read_sizes () =
    match line () with
    | None -> ()
    | Some l -> (
        match String.split_on_char ' ' (String.trim l) with
        | "size" :: m :: "rho" :: rho :: "keep" :: probs -> (
            match
              ( int_of_string_opt m,
                float_of_string_opt rho,
                List.map float_of_string_opt probs )
            with
            | Some m, Some rho, probs when List.for_all Option.is_some probs ->
                let keep_dist =
                  Array.of_list (List.map Option.get probs)
                in
                if Array.length keep_dist <> m + 1 then
                  fail "Scheme_io.read: keep_dist length mismatch at size %d" m;
                let r = { Randomizer.keep_dist; rho } in
                (if check then
                   match Randomizer.validate_resolved ~size:m r with
                   | () -> ()
                   | exception Invalid_argument msg ->
                       fail "Scheme_io.read: size %d: %s" m msg);
                Hashtbl.replace table m r;
                read_sizes ()
            | _ -> fail "Scheme_io.read: malformed size line")
        | [ "" ] -> read_sizes ()
        | _ -> fail "Scheme_io.read: malformed line %S" l)
  in
  read_sizes ();
  if Hashtbl.length table = 0 then fail "Scheme_io.read: no operators";
  Randomizer.per_size ~universe ~name (fun size ->
      match Hashtbl.find_opt table size with
      | Some r -> { r with Randomizer.keep_dist = Array.copy r.Randomizer.keep_dist }
      | None ->
          invalid_arg
            (Printf.sprintf
               "Scheme_io: deserialized scheme has no operator for size %d" size))

let of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  read_lines ~check:false (fun () ->
      match !lines with
      | [] -> None
      | l :: rest ->
          lines := rest;
          Some l)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      read_lines ~check:true (fun () ->
          try Some (input_line ic) with End_of_file -> None))

let sizes_of_db db =
  List.map fst (Ppdm_data.Db.size_histogram db)
