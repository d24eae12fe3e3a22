(* Tests for the benchmark harness: the Domains worker pool, the
   hand-rolled JSON layer, the .git/HEAD reader behind BENCH_meta.json,
   and the end-to-end guarantee that a parallel sweep produces
   byte-identical artifacts to a serial one. *)

module Pool = Harness.Pool
module Json = Harness.Json

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_preserves_order () =
  (* Job i sleeps inversely to its index, so completion order is the
     reverse of submission order; results must come back in submission
     order anyway. *)
  let n = 12 in
  let jobs =
    List.init n (fun i ->
        Pool.job ~name:(string_of_int i) (fun () ->
            Unix.sleepf (0.001 *. float_of_int (n - i));
            i))
  in
  List.iter
    (fun jobs_n ->
      Alcotest.(check (list int))
        (Printf.sprintf "order with jobs=%d" jobs_n)
        (List.init n Fun.id)
        (Pool.run ~jobs:jobs_n jobs))
    [ 1; 2; 4; 32 ]

let test_pool_serial_runs_in_caller () =
  (* jobs=1 must not spawn domains: the jobs run in the calling domain,
     in order, observable through plain (unsynchronized) state. *)
  let self = Domain.self () in
  let trace = ref [] in
  let jobs =
    List.init 5 (fun i ->
        Pool.job ~name:(string_of_int i) (fun () ->
            Alcotest.(check bool) "same domain" true (Domain.self () = self);
            trace := i :: !trace;
            i * i))
  in
  let results = Pool.run ~jobs:1 jobs in
  Alcotest.(check (list int)) "results" [ 0; 1; 4; 9; 16 ] results;
  Alcotest.(check (list int)) "executed in order" [ 4; 3; 2; 1; 0 ] !trace

let test_pool_propagates_failure () =
  let jobs =
    List.init 8 (fun i ->
        Pool.job ~name:(Printf.sprintf "job%d" i) (fun () ->
            if i = 3 || i = 6 then failwith "boom";
            i))
  in
  List.iter
    (fun jobs_n ->
      match Pool.run ~jobs:jobs_n jobs with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Pool.Job_failed (name, Failure m) ->
          (* The first failure in submission order wins, at any width. *)
          Alcotest.(check string) "failing job" "job3" name;
          Alcotest.(check string) "original exn" "boom" m
      | exception e -> raise e)
    [ 1; 4 ]

(* A worker dying on a simulator exception (e.g. an injected fault that
   escaped a buggy handler) must surface as Job_failed with the original
   exception intact, not crash or hang the pool. *)
let test_pool_propagates_injected_abort () =
  let jobs =
    List.init 4 (fun i ->
        Pool.job ~name:(Printf.sprintf "fz%d" i) (fun () ->
            if i = 2 then
              raise (Ccsim.Fault.Injected_abort { op = "mmap"; point = "locked" });
            i))
  in
  match Pool.run ~jobs:2 jobs with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception
      Pool.Job_failed (name, Ccsim.Fault.Injected_abort { op; point }) ->
      Alcotest.(check string) "failing job" "fz2" name;
      Alcotest.(check string) "op" "mmap" op;
      Alcotest.(check string) "point" "locked" point

let test_pool_clamps_width () =
  (* More workers than jobs, zero workers, empty job list: all legal. *)
  Alcotest.(check (list int))
    "more workers than jobs" [ 7 ]
    (Pool.run ~jobs:64 [ Pool.job ~name:"one" (fun () -> 7) ]);
  Alcotest.(check (list int))
    "non-positive width" [ 1; 2 ]
    (Pool.run ~jobs:0
       [ Pool.job ~name:"a" (fun () -> 1); Pool.job ~name:"b" (fun () -> 2) ]);
  Alcotest.(check (list int)) "empty" [] (Pool.run ~jobs:4 [])

let test_pool_clamp_jobs () =
  let host = Domain.recommended_domain_count () in
  Alcotest.(check int) "plain default" (max 1 host) (Pool.default_jobs ());
  (* An explicit request is only ever reduced, never raised, and never
     below one. *)
  Alcotest.(check int) "one stays one" 1 (Pool.clamp_jobs 1);
  List.iter
    (fun jobs ->
      let c = Pool.clamp_jobs jobs in
      Alcotest.(check bool)
        (Printf.sprintf "clamp %d in range" jobs)
        true
        (c >= 1 && c <= jobs && c <= max 1 host))
    [ 1024; 8; 3; 2 ]

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let sample =
  Json.Obj
    [
      ("name", Json.String "fig5 \"quick\"\n");
      ("cores", Json.List [ Json.Int 1; Json.Int 4; Json.Int 16 ]);
      ("rate", Json.Float 582_000.0);
      ("ratio", Json.Float 3.25);
      ("clean", Json.Bool true);
      ("missing", Json.Null);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
    ]

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> x = y
  | Json.String x, Json.String y -> x = y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
           x y
  | _ -> false

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample) with
      | Ok parsed ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip pretty=%b" pretty)
            true (json_equal sample parsed)
      | Error m -> Alcotest.failf "parse failed: %s" m)
    [ false; true ]

let test_json_float_repr () =
  (* Whole floats must not print as the invalid-JSON "1."; non-finite
     values have no JSON spelling and degrade to null. *)
  Alcotest.(check string) "whole float" "582000.0"
    (Json.to_string (Json.Float 582_000.0));
  Alcotest.(check string) "fractional" "3.25" (Json.to_string (Json.Float 3.25));
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted invalid input %S" bad
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2";
      "{\"a\":1,}"; "[1 2]"; "nulll";
    ]

let test_json_member () =
  Alcotest.(check bool) "present" true
    (Json.member "cores" sample <> None);
  Alcotest.(check bool) "absent" true (Json.member "nope" sample = None);
  Alcotest.(check bool) "non-object" true (Json.member "x" Json.Null = None)

(* ------------------------------------------------------------------ *)
(* Git: the commit BENCH_meta.json records                             *)

(* [Git.commit] reads the working directory's .git, so each case lays
   out [files] in a fresh directory, runs [f] there and removes it. *)
let in_tree files f =
  let root = Filename.temp_dir "harness_git" "" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then (
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755)
  in
  let rec remove p =
    if Sys.is_directory p then (
      Array.iter (fun e -> remove (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      remove root)
    (fun () ->
      List.iter
        (fun (path, contents) ->
          let file = Filename.concat root path in
          mkdir_p (Filename.dirname file);
          Out_channel.with_open_text file (fun oc -> output_string oc contents))
        files;
      Sys.chdir root;
      f ())

let hash = "0123456789abcdef0123456789abcdef01234567"

let test_git_branch () =
  in_tree
    [
      (".git/HEAD", "ref: refs/heads/main\n");
      (".git/refs/heads/main", hash ^ "\n");
    ]
    (fun () ->
      Alcotest.(check string) "branch tip" hash (Harness.Git.commit ()))

let test_git_detached () =
  in_tree
    [ (".git/HEAD", hash ^ "\n") ]
    (fun () -> Alcotest.(check string) "detached" hash (Harness.Git.commit ()))

let test_git_unknown () =
  in_tree [] (fun () ->
      Alcotest.(check string) "no .git" "unknown" (Harness.Git.commit ()));
  in_tree
    [ (".git/HEAD", "") ]
    (fun () ->
      Alcotest.(check string) "empty HEAD" "unknown" (Harness.Git.commit ()))

(* ------------------------------------------------------------------ *)
(* End to end: a parallel sweep must be indistinguishable from a serial
   one. Render the quick Figure 5 sweep (with the checker attached) at
   jobs=1 and jobs=4 and require byte-identical JSON. *)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_fig5_deterministic_across_jobs () =
  let run jobs =
    let ctx = { Figures.quick = true; check = true; jobs; ppf = null_ppf } in
    match Figures.run_target ctx "fig5" with
    | Some out -> Json.to_string ~pretty:true out.Figures.json
    | None -> Alcotest.fail "fig5 target missing"
  in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check string) "serial = 4-domain sweep" serial parallel

(* A non-clean verdict carries the full checker report for the driver to
   print under its findings line. Linux-like runs share one address-space
   lock, so a local run that claims zero sharing must fail and name it. *)
let test_checked_renders_report () =
  let module MB = Workloads.Microbench.Make (Baselines.Linux_vm) in
  let ctx = { Figures.quick = true; check = true; jobs = 1; ppf = null_ppf } in
  let _, verdict =
    Figures.checked ~ctx ~name:"Linux local 4 cores" ~allow:[]
      ~race_allow:[ "pt:shared" ] ~zero_sharing:true
      (fun ~on_machine ~on_measure ->
        MB.local ~warmup:200_000 ~on_machine ~on_measure ~ncores:4
          ~duration:200_000 Baselines.Linux_vm.create)
  in
  match verdict with
  | None -> Alcotest.fail "no verdict under check = true"
  | Some v ->
      Alcotest.(check bool) "not clean" false v.Figures.clean;
      let mentions needle hay =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay
          && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "report names linux:aslock" true
        (mentions "linux:aslock" v.Figures.report)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "harness"
    [
      ( "pool",
        [
          tc "submission order" `Quick test_pool_preserves_order;
          tc "serial path" `Quick test_pool_serial_runs_in_caller;
          tc "failure propagation" `Quick test_pool_propagates_failure;
          tc "injected abort" `Quick test_pool_propagates_injected_abort;
          tc "width clamping" `Quick test_pool_clamps_width;
          tc "clamp_jobs" `Quick test_pool_clamp_jobs;
        ] );
      ( "json",
        [
          tc "roundtrip" `Quick test_json_roundtrip;
          tc "float repr" `Quick test_json_float_repr;
          tc "parse errors" `Quick test_json_parse_errors;
          tc "member" `Quick test_json_member;
        ] );
      ( "git",
        [
          tc "branch HEAD" `Quick test_git_branch;
          tc "detached HEAD" `Quick test_git_detached;
          tc "outside a work tree" `Quick test_git_unknown;
        ] );
      ( "determinism",
        [ tc "fig5 serial = parallel" `Quick test_fig5_deterministic_across_jobs ] );
      ( "checker",
        [
          tc "non-clean verdict renders report" `Quick
            test_checked_renders_report;
        ] );
    ]
