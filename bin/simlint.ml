(* simlint: the static half of the repo's invariant enforcement (the
   dynamic half is lib/check). Scans the .cmt files dune emitted under
   the given roots, applies the rule families in Lint.Finding against
   the committed allowlist, and prints machine-readable findings:

     file:line: [rule-id] Module.site: message

   Exit status: 0 clean, 1 findings, 2 operational failure. Run from the
   build context root (dune build @lint does) so cmt load paths resolve.

   --out-dir D additionally writes a BENCH_meta.json recording the lint
   wall clock, shaped so bench/validate.exe accepts it like the other
   gated targets' metadata. *)

module Json = Harness.Json

let usage () =
  prerr_endline
    "usage: simlint.exe [--allow FILE] [--out-dir D] [--all-scopes] [roots...]";
  exit 2

(* Wall clock for BENCH_meta.json only; never inside the scanned logic.
   (simlint lints itself — this use is covered by lint.allow.) *)
let now () = Unix.gettimeofday ()

let is_dir d = Sys.file_exists d && Sys.is_directory d

let () =
  let allow_file = ref None
  and out_dir = ref None
  and all_scopes = ref false
  and roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allow" :: f :: rest ->
        allow_file := Some f;
        parse rest
    | "--out-dir" :: d :: rest ->
        if not (is_dir d) then begin
          Printf.eprintf "simlint.exe: --out-dir %s is not a directory\n" d;
          usage ()
        end;
        out_dir := Some d;
        parse rest
    | "--all-scopes" :: rest ->
        all_scopes := true;
        parse rest
    | ("--allow" | "--out-dir") :: [] -> usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest ->
        roots := a :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev !roots with
    | [] -> [ "lib"; "bin"; "bench"; "test" ]
    | rs -> rs
  in
  (* A missing root would otherwise scan nothing and pass. *)
  List.iter
    (fun r ->
      if not (is_dir r) then begin
        Printf.eprintf "simlint.exe: root %s is not a directory\n" r;
        usage ()
      end)
    roots;
  let config =
    if !all_scopes then
      (* Fixture mode: every rule family applies everywhere. *)
      {
        Lint.Engine.classify =
          (fun _ ->
            {
              Lint.Engine.hot = true;
              artifact = true;
              float_emitter = false;
              toplevel_state = true;
              sim_core = true;
            });
        skip_dir = (fun _ -> false);
      }
    else Lint.Engine.repo_config
  in
  let t0 = now () in
  let allow, malformed =
    match !allow_file with
    | None -> (Lint.Allowlist.empty, [])
    | Some f -> (
        try Lint.Allowlist.load f
        with Sys_error m ->
          Printf.eprintf "simlint: cannot read allowlist: %s\n" m;
          exit 2)
  in
  let scanned = Lint.Engine.find_cmts config roots in
  let findings =
    try Lint.Engine.run config ~allow ~roots
    with e ->
      Printf.eprintf "simlint: scan failed: %s\n" (Printexc.to_string e);
      exit 2
  in
  let findings = List.sort_uniq Lint.Finding.compare (malformed @ findings) in
  List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
  let wall = now () -. t0 in
  (match !out_dir with
  | None -> ()
  | Some dir ->
      Json.to_file ~pretty:true
        (Filename.concat dir "BENCH_meta.json")
        (Json.Obj
           [
             ("schema_version", Json.Int 1);
             ("targets", Json.List [ Json.String "lint" ]);
             ("quick", Json.Bool false);
             ("check", Json.Bool false);
             ("jobs", Json.Int 1);
             ("wall_clock_seconds", Json.Float wall);
             ( "target_wall_clock_seconds",
               Json.Obj [ ("lint", Json.Float wall) ] );
             ("generated_at", Json.Float t0);
             ("commit", Json.String (Harness.Git.commit ()));
             ("modules_scanned", Json.Int (List.length scanned));
             ("findings", Json.Int (List.length findings));
           ]));
  Printf.printf "simlint: %d modules scanned under %s, %d findings\n"
    (List.length scanned) (String.concat " " roots) (List.length findings);
  exit (if findings = [] then 0 else 1)
