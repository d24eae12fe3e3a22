(* The typed-AST pass. Dune already emits a [.cmt] file (the typed tree,
   with resolved paths and inferred types) for every module it compiles;
   this engine reads them back with [Cmt_format], walks them with
   [Tast_iterator], and applies the rule families from [Finding]. Working
   on the typed tree rather than source text means [open]s, aliases, and
   operator sections cannot hide a banned identifier, and polymorphic
   comparisons can be judged by the type they were instantiated at. *)

open Types

type scope = {
  hot : bool;  (* hot-path hygiene rules apply *)
  artifact : bool;  (* output can reach an artifact or transcript *)
  float_emitter : bool;  (* the one module allowed to format floats *)
  toplevel_state : bool;  (* ds-toplevel-mutable applies *)
  sim_core : bool;  (* det-wallclock applies: no host clock reads *)
}

type config = { classify : string -> scope; skip_dir : string -> bool }

(* ------------------------------------------------------------------ *)
(* Repo policy                                                         *)

let path_has sub path =
  let n = String.length sub and m = String.length path in
  let rec go i =
    i + n <= m && (String.equal (String.sub path i n) sub || go (i + 1))
  in
  go 0

let repo_classify path =
  let has sub = path_has sub path in
  let base = String.lowercase_ascii (Filename.basename path) in
  {
    hot =
      has "lib/ccsim/" || has "lib/check/" || has "lib/refcache/"
      || has "lib/core/" || has "lib/locks/" || has "lib/radix/";
    artifact =
      has "lib/harness/" || has "lib/fuzz/" || has "bench/" || has "bin/";
    float_emitter = has "lib/harness/" && String.equal base "harness__json.cmt";
    (* Tests build per-run state in their drivers; module-level mutable
       state only endangers code the domain pool can reach. *)
    toplevel_state = not (has "test/");
    (* Everything under lib/ is the deterministic core or its support
       libraries: wall budgets belong to bin/ drivers, which pass any
       elapsed time in as plain data. *)
    sim_core = has "lib/";
  }

let repo_config =
  {
    classify = repo_classify;
    skip_dir = (fun name -> String.equal name "lint_fixtures");
  }

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* "Stdlib__Hashtbl.replace" and "Stdlib.Hashtbl.replace" both become
   "Hashtbl.replace"; a bare "Stdlib.compare" becomes "compare". *)
let normalize name =
  if starts_with ~prefix:"Stdlib__" name then
    String.sub name 8 (String.length name - 8)
  else if starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let is_stdlib name =
  starts_with ~prefix:"Stdlib." name || starts_with ~prefix:"Stdlib__" name

let entropy_idents =
  [
    "Random.self_init"; "Random.State.make_self_init"; "Sys.time";
    "Unix.gettimeofday"; "Unix.time";
  ]

(* The subset of [entropy_idents] that reads the host wall clock. In a
   sim-core module these additionally fire [det-wallclock] — a separate
   id, so a [det-entropy] pin granted to a driver can never be copied
   onto a lib/ module without a second, deliberate pin. *)
let wallclock_idents = [ "Unix.gettimeofday"; "Unix.time" ]

(* Environment variables are configuration that never appears in a
   transcript, a seed, or a command line: two runs of "the same" command
   can behave differently depending on ambient shell state. Every knob
   must be an explicit flag threaded from the driver. *)
let getenv_idents =
  [
    "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.environment";
    "Unix.unsafe_environment";
  ]

let order_idents =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let float_idents = [ "string_of_float"; "Float.to_string" ]
let poly_idents = [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

(* ------------------------------------------------------------------ *)
(* Type queries                                                        *)

(* Environments stored in a cmt are summaries; [Envaux] rebuilds a real
   one (needed to expand abbreviations and look up declarations), which
   in turn needs the load path the module was compiled with. Both
   reconstructions can fail on a partial load path — every user below
   degrades gracefully when they do. *)
let real_env env = try Envaux.env_of_only_summary env with _ -> env
let expand env ty = try Ctype.expand_head env ty with _ -> ty
let find_type_decl env p = try Some (Env.find_type p env) with _ -> None

(* Unboxed (immediate) types: comparisons are single instructions and
   [Hashtbl.hash] stays cheap. Type variables are immediate by fiat: at
   a [Tvar] the surrounding function is itself polymorphic and the
   instantiation happens at its callers, which are checked separately. *)
let immediate env ty =
  let ty = expand env ty in
  match get_desc ty with
  | Tvar _ | Tunivar _ -> true
  | Tconstr (p, _, _) -> (
      Path.same p Predef.path_int || Path.same p Predef.path_bool
      || Path.same p Predef.path_char
      || Path.same p Predef.path_unit
      ||
      match find_type_decl env p with
      | Some d -> (
          match d.type_immediate with
          | Type_immediacy.Always | Type_immediacy.Always_on_64bits -> true
          | Type_immediacy.Unknown -> false)
      | None -> false)
  | _ -> false

(* Types at which the native compiler specializes a polymorphic
   comparison away from [caml_compare]: immediates compile to an integer
   compare, and floats/strings/bytes/boxed ints to their dedicated
   primitives. Anything else — options, lists, records, tuples, variant
   payloads — walks the heap through [caml_compare]. *)
let specialized_compare env ty =
  let ty = expand env ty in
  immediate env ty
  ||
  match get_desc ty with
  | Tconstr (p, _, _) ->
      Path.same p Predef.path_float
      || Path.same p Predef.path_string
      || Path.same p Predef.path_bytes
      || Path.same p Predef.path_int32
      || Path.same p Predef.path_int64
      || Path.same p Predef.path_nativeint
  | _ -> false

let type_to_string ty =
  (* One line, bounded: findings are grep fodder, not documentation. *)
  let s = Format.asprintf "%a" Printtyp.type_expr ty in
  let s = String.map (fun c -> if c = '\n' then ' ' else c) s in
  if String.length s > 60 then String.sub s 0 57 ^ "..." else s

(* The mutable containers rule 1 recognizes by head constructor, even
   when the declaration itself cannot be looked up. *)
let mutable_heads =
  [
    ("ref", "a ref cell");
    ("Hashtbl.t", "a Hashtbl.t");
    ("Buffer.t", "a Buffer.t");
    ("Queue.t", "a Queue.t");
    ("Stack.t", "a Stack.t");
    ("bytes", "mutable bytes");
    ("Bytes.t", "mutable bytes");
  ]

let rec mutable_value env ty ~depth =
  let ty = expand env ty in
  match get_desc ty with
  | Tarrow _ -> None
  | Ttuple tys when depth = 0 ->
      List.fold_left
        (fun acc t ->
          match acc with Some _ -> acc | None -> mutable_value env t ~depth:1)
        None tys
  | Tconstr (p, _, _) -> (
      let n = normalize (Path.name p) in
      if String.equal n "Atomic.t" then None
      else if Path.same p Predef.path_array then Some "an array"
      else
        match List.assoc_opt n mutable_heads with
        | Some what -> Some what
        | None -> (
            match find_type_decl env p with
            | Some { type_kind = Type_record (lbls, _); _ }
              when List.exists (fun l -> l.ld_mutable = Mutable) lbls ->
                Some (Printf.sprintf "a record with mutable fields (%s)" n)
            | _ -> None))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)

let collect scope modname file_fallback str =
  let findings = ref [] in
  (* Innermost-first stack of enclosing binding names under [modname]. *)
  let site_stack = ref [] in
  let site () = String.concat "." (modname :: List.rev !site_stack) in
  let push name = site_stack := name :: !site_stack in
  let pop () = site_stack := List.tl !site_stack in
  let emit rule (loc : Location.t) msg =
    let p = loc.loc_start in
    let file =
      if String.equal p.pos_fname "" then file_fallback else p.pos_fname
    in
    findings :=
      Finding.v ~rule ~file ~line:p.pos_lnum ~site:(site ()) msg :: !findings
  in
  let check_poly_instantiation env loc name (ty : type_expr) =
    (* [Hashtbl.hash] is never specialized, so only immediate arguments
       are cheap there; comparisons get the compiler's full
       specialization set. [min]/[max] are plain polymorphic functions,
       never specialized: even at [int] they reach [compare_val]. *)
    let cheap env arg =
      match name with
      | "Hashtbl.hash" -> immediate env arg
      | "min" | "max" -> false
      | _ -> specialized_compare env arg
    in
    match get_desc (expand env ty) with
    | Tarrow (_, arg, _, _) ->
        if not (cheap env arg) then
          emit Finding.Hot_polycompare loc
            (Printf.sprintf
               "polymorphic %s instantiated at %s — goes through \
                caml_compare; use a monomorphic comparison"
               (match name with
               | "compare" | "min" | "max" -> name
               | op -> "(" ^ op ^ ")")
               (type_to_string arg))
    | _ -> ()
  in
  let on_ident env loc path ty =
    (* Expand module aliases first: `module U = Unix` must not turn
       Unix.gettimeofday into an unrecognized U.gettimeofday. Degrades
       to the raw path when the rebuilt env can't resolve the alias. *)
    let path =
      match path with
      | Path.Pdot (p, s) -> (
          try Path.Pdot (Env.normalize_module_path None env p, s)
          with _ -> path)
      | _ -> path
    in
    let raw = Path.name path in
    let n = normalize raw in
    if List.exists (String.equal n) entropy_idents then
      emit Finding.Det_entropy loc
        (Printf.sprintf
           "%s is run-to-run nondeterminism; thread a seed or take the clock \
            outside the deterministic core" n);
    if scope.sim_core && List.exists (String.equal n) wallclock_idents then
      emit Finding.Det_wallclock loc
        (Printf.sprintf
           "%s reads the host wall clock inside the simulator core (lib/); \
            budget wall time in the bin/ driver and pass elapsed seconds in \
            as data" n);
    if List.exists (String.equal n) getenv_idents then
      emit Finding.Det_getenv loc
        (Printf.sprintf
           "%s reads ambient environment state no transcript records; thread \
            an explicit flag from the driver instead" n);
    if scope.artifact && List.exists (String.equal n) order_idents then
      emit Finding.Det_hashtbl_order loc
        (Printf.sprintf
           "%s iterates in bucket order in an artifact-reaching module; sort \
            the keys (or use Int_table) before anything ordered escapes" n);
    if
      scope.artifact
      && (not scope.float_emitter)
      && List.exists (String.equal n) float_idents
    then
      emit Finding.Det_float_format loc
        (Printf.sprintf
           "%s formats floats outside Harness.Json's deterministic emitter" n);
    if scope.hot then begin
      if
        is_stdlib raw
        && starts_with ~prefix:"Hashtbl." n
        && not (String.equal n "Hashtbl.hash")
      then
        emit Finding.Hot_hashtbl loc
          (Printf.sprintf
             "stdlib %s in a hot module — it hashes, boxes and allocates per \
              probe; use Int_table/Bitset" n);
      if starts_with ~prefix:"Marshal." n then
        emit Finding.Hot_marshal loc (Printf.sprintf "%s in a hot module" n);
      if
        is_stdlib raw
        && (List.exists (String.equal n) poly_idents
           || String.equal n "Hashtbl.hash")
      then
        check_poly_instantiation env loc n ty
    end
  in
  let super = Tast_iterator.default_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, lid, _) ->
        let env = real_env e.exp_env in
        on_ident env lid.loc p e.exp_type
    | Texp_construct (lid, cd, _) when scope.artifact && not scope.float_emitter
      -> (
        (* The type-checker lowers a "%f"-style literal into a
           CamlinternalFormatBasics tree before we ever see it; a [Float]
           constructor there is exactly a float conversion in some format
           string of this module. *)
        match get_desc cd.cstr_res with
        | Tconstr (p, _, _)
          when String.equal cd.cstr_name "Float"
               && path_has "CamlinternalFormatBasics" (Path.name p) ->
            emit Finding.Det_float_format lid.loc
              "float conversion in a format string outside Harness.Json's \
               deterministic emitter"
        | _ -> ())
    | _ -> ());
    super.Tast_iterator.expr self e
  in
  let value_binding self (vb : Typedtree.value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
        push (Ident.name id);
        super.Tast_iterator.value_binding self vb;
        pop ()
    | _ -> super.Tast_iterator.value_binding self vb
  in
  let module_binding self (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id ->
        push (Ident.name id);
        super.Tast_iterator.module_binding self mb;
        pop ()
    | None -> super.Tast_iterator.module_binding self mb
  in
  let iterator =
    { super with Tast_iterator.expr; value_binding; module_binding }
  in
  (* Rule 1 walks structure items by hand: [Tstr_value] only occurs at
     module level, which is exactly the scope where mutable state is
     reachable from every domain. *)
  let rec toplevel_item (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let env = real_env vb.vb_pat.pat_env in
            match mutable_value env vb.vb_pat.pat_type ~depth:0 with
            | None -> ()
            | Some what ->
                let name =
                  match Typedtree.pat_bound_idents vb.vb_pat with
                  | id :: _ -> Ident.name id
                  | [] -> "_"
                in
                push name;
                emit Finding.Ds_toplevel_mutable vb.vb_pat.pat_loc
                  (Printf.sprintf
                     "top-level mutable state (%s) shared by every domain; \
                      make it Atomic.t, create it per run, or allowlist it \
                      with a reason" what);
                pop ())
          vbs
    | Tstr_module mb -> toplevel_module_binding mb
    | Tstr_recmodule mbs -> List.iter toplevel_module_binding mbs
    | Tstr_include incl -> toplevel_module_expr None incl.incl_mod
    | _ -> ()
  and toplevel_module_binding (mb : Typedtree.module_binding) =
    let name =
      match mb.mb_id with Some id -> Some (Ident.name id) | None -> None
    in
    toplevel_module_expr name mb.mb_expr
  and toplevel_module_expr name (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure s ->
        (match name with Some n -> push n | None -> ());
        List.iter toplevel_item s.str_items;
        (match name with Some _ -> pop () | None -> ())
    | Tmod_constraint (inner, _, _, _) -> toplevel_module_expr name inner
    | _ -> ()
  in
  if scope.toplevel_state then List.iter toplevel_item str.Typedtree.str_items;
  site_stack := [];
  iterator.Tast_iterator.structure iterator str;
  !findings

(* ------------------------------------------------------------------ *)
(* cmt plumbing                                                        *)

(* "Ccsim__Int_table" / "Dune__exe__Simlint" -> "Int_table" / "Simlint":
   the dune wrapping prefix is a build detail, not a name anyone writes
   in an allowlist. *)
let display_modname m =
  let rec last_sep i acc =
    if i + 1 >= String.length m then acc
    else if m.[i] = '_' && m.[i + 1] = '_' then last_sep (i + 2) (i + 2)
    else last_sep (i + 1) acc
  in
  let i = last_sep 0 0 in
  String.capitalize_ascii (String.sub m i (String.length m - i))

let scan_cmt config path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
      let scope = config.classify path in
      (* Give [Envaux] its best shot at rebuilding environments: the load
         path recorded at compile time (valid relative to the build root),
         the cmt's own directory, and the stdlib. *)
      Load_path.init ~auto_include:Load_path.no_auto_include
        ((Filename.dirname path :: cmt.Cmt_format.cmt_loadpath)
        @ [ Config.standard_library ]);
      Envaux.reset_cache ();
      let file_fallback =
        match cmt.Cmt_format.cmt_sourcefile with Some f -> f | None -> path
      in
      let modname = display_modname cmt.Cmt_format.cmt_modname in
      collect scope modname file_fallback str
  | _ -> []

let find_cmts config roots =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        let entries = List.sort String.compare (Array.to_list entries) in
        List.iter
          (fun name ->
            let path = Filename.concat dir name in
            if Sys.is_directory path then begin
              if not (config.skip_dir name) then walk path
            end
            else if Filename.check_suffix name ".cmt" then acc := path :: !acc)
          entries
  in
  List.iter (fun root -> if Sys.file_exists root then walk root) roots;
  List.sort String.compare !acc

let run config ~allow ~roots =
  let cmts = find_cmts config roots in
  let findings = List.concat_map (scan_cmt config) cmts in
  let findings = Allowlist.apply allow findings in
  List.sort_uniq Finding.compare findings
