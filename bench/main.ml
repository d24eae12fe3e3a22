(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 5). Run with no arguments for everything, or pass
   target names (see usage for the list). Every name is checked before
   any target runs.

   Flags:
     --quick      shrink sweeps for smoke testing
     --check      attach the dynamic checker to every instrumented run and
                  print a verdict summary after each figure
     --strict     exit nonzero if any checker verdict is not clean
     --jobs N     run the per-(system, core-count) simulations on N host
                  domains (default: Domain.recommended_domain_count; 1 =
                  serial). Results are deterministic and identically
                  ordered for any N.
     --shards N   widest execution width for the shard target's worlds
                  (default 4). Combined with --jobs, the pool width is
                  clamped so jobs x shards never oversubscribes the host.
     --out-dir D  where to write the BENCH_*.json artifacts (default .)

   Every selected target writes a machine-readable artifact
   (BENCH_<target>.json) next to a BENCH_meta.json that records
   wall-clock, job count, and the git commit, so perf trajectories can be
   tracked run over run. *)

module Json = Harness.Json

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--check] [--strict] [--jobs N] [--shards N] [--out-dir D] [targets...]\n\
     targets: %s\n"
    (String.concat " " Figures.target_names);
  exit 1

(* The commit the artifacts were generated from, for BENCH_meta.json.
   Read straight from .git so the harness needs no subprocess and no
   libraries; "unknown" outside a work tree (e.g. a dune sandbox). *)
let git_commit () =
  let read_line path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        (match read_line (Filename.concat ".git" r) with
        | Some hash -> hash
        | None -> "unknown")
      else head

let () =
  let quick = ref false
  and check = ref false
  and strict = ref false
  and jobs = ref 0
  and shards = ref 4
  and out_dir = ref "." in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--check" :: rest ->
        check := true;
        parse acc rest
    | "--strict" :: rest ->
        strict := true;
        parse acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse acc rest
        | _ -> usage ())
    | "--shards" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            shards := n;
            parse acc rest
        | _ -> usage ())
    | "--out-dir" :: d :: rest ->
        if not (Sys.file_exists d && Sys.is_directory d) then begin
          Printf.eprintf "main.exe: --out-dir %s is not a directory\n" d;
          usage ()
        end;
        out_dir := d;
        parse acc rest
    | ("--jobs" | "--shards" | "--out-dir") :: [] -> usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with [] | [ "all" ] -> Figures.target_names | names -> names
  in
  let targets =
    List.map
      (fun name ->
        match Figures.find_target name with
        | Some t -> t
        | None ->
            Printf.eprintf "unknown target %s; available: %s\n" name
              (String.concat " " Figures.target_names);
            exit 1)
      selected
  in
  (* A shard-figure world already runs up to --shards domains of its own,
     so when the shard target is part of the run an explicit --jobs is
     clamped to jobs x shards <= the host's parallelism
     (Pool.clamp_jobs); other targets keep the requested width. *)
  let per_job = if List.mem "shard" selected then !shards else 1 in
  let jobs =
    if !jobs = 0 then Harness.Pool.default_jobs ()
    else Harness.Pool.clamp_jobs ~per_job !jobs
  in
  let ctx =
    {
      Figures.quick = !quick;
      check = !check;
      jobs;
      shards = !shards;
      ppf = Format.std_formatter;
    }
  in
  let t0 = Unix.gettimeofday () in
  let all_checks = ref [] in
  let target_walls = ref [] in
  List.iter
    (fun (t : Figures.target) ->
      let t_target = Unix.gettimeofday () in
      let out = t.run ctx in
      all_checks := !all_checks @ out.Figures.checks;
      target_walls :=
        (t.name, Unix.gettimeofday () -. t_target) :: !target_walls;
      Json.to_file ~pretty:true
        (Filename.concat !out_dir (Figures.artifact_name t.name))
        out.Figures.json)
    targets;
  let wall = Unix.gettimeofday () -. t0 in
  Json.to_file ~pretty:true
    (Filename.concat !out_dir "BENCH_meta.json")
    (Json.Obj
       [
         ("schema_version", Json.Int 1);
         ("targets", Json.List (List.map (fun t -> Json.String t) selected));
         ("quick", Json.Bool !quick);
         ("check", Json.Bool !check);
         ("jobs", Json.Int jobs);
         ("host_domains", Json.Int (Harness.Pool.default_jobs ()));
         ("wall_clock_seconds", Json.Float wall);
         ( "target_wall_clock_seconds",
           Json.Obj
             (List.rev_map
                (fun (name, s) -> (name, Json.Float s))
                !target_walls) );
         ("generated_at", Json.Float t0);
         ("commit", Json.String (git_commit ()));
         ( "instrumented_runs",
           Json.List
             (List.map
                (fun (v : Figures.verdict) ->
                  Json.Obj
                    [
                      ("name", Json.String v.check_name);
                      ("clean", Json.Bool v.clean);
                    ])
                !all_checks) );
       ]);
  if !strict then begin
    let bad =
      List.filter (fun (v : Figures.verdict) -> not v.clean) !all_checks
    in
    if bad <> [] then begin
      Printf.eprintf "strict: %d instrumented runs with findings\n"
        (List.length bad);
      exit 1
    end
  end
