(* Value reach lint: every [val] of a [lib/*/*.mli] outside [lib/check]
   must be named by some implementation in lib/, bin/, bench/ or
   examples/ other than its own, so library surface that only its own
   tests reach cannot pile up.

   The names come from the typed trees in the [.cmt] and [.cmti] files
   of a build, so comments and strings do not count, and module
   aliases, opens and library-qualified paths resolve to the value
   they name: each [val] carries a unique id, and every identifier
   that names it from another compilation unit carries the same id.
   A module's own [.ml] names its own definitions, whose ids differ,
   so it never reaches its [.mli].

   Usage: value_lint BUILD_ROOT ALLOWLIST
   BUILD_ROOT holds the built lib/, bin/, bench/ and examples/ trees
   (their [.cmt]/[.cmti] files come from the [@check] alias).  Each
   ALLOWLIST line is [Module.value  reason]; [#] starts a comment.  An
   entry that names no flagged value is itself an error. *)

let rec files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.concat_map (fun name ->
             let path = Filename.concat dir name in
             if Sys.is_directory path then files path else [ path ])

(* Every value of a library interface, nested modules included, as
   (uid, "Module.value"). *)
let declared sourcefile = function
  | Cmt_format.Interface sg ->
      let rec values prefix (sg : Typedtree.signature) =
        List.concat_map
          (fun item ->
            match item.Typedtree.sig_desc with
            | Tsig_value vd ->
                [ (vd.val_val.val_uid, prefix ^ "." ^ Ident.name vd.val_id) ]
            | Tsig_module
                { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
                values (prefix ^ "." ^ name) sg
            | _ -> [])
          sg.sig_items
      in
      values
        (String.capitalize_ascii
           (Filename.remove_extension (Filename.basename sourcefile)))
        sg
  | _ -> []

(* The ids an implementation names outside its own compilation unit:
   ids count per unit from 0 in the [.ml] and the [.mli] alike, so the
   unit's own identifiers would collide with its interface's. *)
let named = Hashtbl.create 4096

let note_uses modname = function
  | Cmt_format.Implementation str ->
      let expr self (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ })
          when comp_unit <> modname ->
            Hashtbl.replace named uid ()
        | _ -> ());
        Tast_iterator.default_iterator.expr self e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it str
  | _ -> ()

let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] -> None
         | [ name ] ->
             Printf.eprintf "value lint: %s: %s has no reason\n" path name;
             exit 2
         | name :: _ -> Some name
         | [] -> None)

let () =
  let root = Sys.argv.(1) and allow_path = Sys.argv.(2) in
  let decls = ref [] in
  [ "lib"; "bin"; "bench"; "examples" ]
  |> List.concat_map (fun d -> files (Filename.concat root d))
  |> List.filter (fun f ->
         Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
  |> List.sort compare
  |> List.iter (fun f ->
         let cmt = Cmt_format.read_cmt f in
         match cmt.cmt_sourcefile with
         | None -> ()
         | Some src ->
             if
               Filename.check_suffix src ".mli"
               && String.starts_with ~prefix:"lib/" src
               && not (String.starts_with ~prefix:"lib/check/" src)
             then
               List.iter
                 (fun (uid, name) -> decls := (uid, name, src) :: !decls)
                 (declared src cmt.cmt_annots);
             note_uses cmt.cmt_modname cmt.cmt_annots);
  let allowed = read_allowlist allow_path in
  let decls = List.sort_uniq compare !decls in
  let unreached =
    List.filter (fun (uid, _, _) -> not (Hashtbl.mem named uid)) decls
  in
  let errors =
    List.filter_map
      (fun (_, name, src) ->
        if List.mem name allowed then None
        else
          Some
            (Printf.sprintf
               "value lint: %s: %s is named by nothing outside its own files"
               src name))
      unreached
    @ List.filter_map
        (fun name ->
          if List.exists (fun (_, n, _) -> n = name) unreached then None
          else
            Some
              (Printf.sprintf
                 "value lint: %s: %s is reached or gone; drop it from the list"
                 allow_path name))
        allowed
  in
  let errors =
    if decls = [] then
      [ Printf.sprintf "value lint: %s: no library interface found" root ]
    else errors
  in
  if errors <> [] then begin
    List.iter prerr_endline errors;
    Printf.eprintf "value lint: %d values, %d unreached, %d allowed\n"
      (List.length decls) (List.length unreached) (List.length allowed);
    exit 1
  end
