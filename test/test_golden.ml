(* Golden-artifact differential test: the byte-exact contract that host
   performance work must not move the simulation.

   Regenerates, in-process, the artifacts of a `--quick --jobs 2` sweep
   of every deterministic bench target, the transcript of the seed-42
   checked fuzz session, and the model-checked cache-serve sessions,
   digests each, and compares against the digests committed in
   test/golden/digests.txt.
   Any drift in the cost model or operation semantics — including from
   host-side optimization of the simulator's hot paths — changes the
   simulated cycle counts and therefore the bytes, and fails tier-1
   loudly.

   When a change is *meant* to move the numbers (a new cost parameter, a
   semantic fix), refresh the goldens from the repo root with:

     dune exec test/test_golden.exe -- --regen

   and commit the updated test/golden/digests.txt together with the
   change that explains it. *)

let golden_paths = [ "golden/digests.txt"; "test/golden/digests.txt" ]

let digest s = Digest.to_hex (Digest.string s)

let null_ppf =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* The exact configuration of the committed goldens: quick sweep, two
   worker domains (PR 3 guarantees byte-identity at any width; using two
   exercises the pool), no checker (verdict fields would change the
   artifact shape, and the checked configurations are covered by
   @bench-smoke). *)
let ctx = { Figures.quick = true; check = false; jobs = 2; ppf = null_ppf }

let render ctx target =
  match Figures.run_target ctx target with
  | Some out ->
      (* Same bytes Json.to_file writes: pretty document + newline. *)
      Harness.Json.to_string ~pretty:true out.Figures.json ^ "\n"
  | None -> failwith ("unknown bench target " ^ target)

(* [render jobs] at widths 1, 2 and 4 must give the same bytes; the
   width-1 rendering is the digest subject. *)
let same_at_widths what render =
  let reference = render 1 in
  List.iter
    (fun jobs ->
      if render jobs <> reference then
        failwith
          (Printf.sprintf "%s differs between --jobs 1 and --jobs %d" what
             jobs))
    [ 2; 4 ];
  reference

(* The cacheserve artifact varies the pool width: its rows mix generic,
   page-cache and multi-process runs, and neither row values nor row
   order may depend on how many worker domains ran the sweep. *)
let cacheserve_bytes () =
  same_at_widths "BENCH_cacheserve.json" (fun jobs ->
      render { ctx with Figures.jobs } "cacheserve")

let fuzz_bytes () =
  let outcome = Fuzz.run_session { Fuzz.default with Fuzz.seed = 42 } in
  if not outcome.Fuzz.passed then
    failwith
      ("golden fuzz session failed:\n"
      ^ String.concat "\n" outcome.Fuzz.failures);
  outcome.Fuzz.transcript

(* The model-checked cache-serve session (4 cores, 3 forked processes, 64
   slots, fault plan seed 11). The history alone is too weak a subject:
   several crash rules leave the same history over different simulated
   states, so every outcome counter, the machine's final Stats and every
   core's clock ride along. *)
module CS = Workloads.Cache_serve

let clocks m =
  String.concat " "
    (Array.to_list
       (Array.map
          (fun c -> string_of_int (Ccsim.Core.now c))
          (Ccsim.Machine.cores m)))

let session_bytes ~via_kernel ~compact_every ~ops ~arm () =
  let mref = ref None and plan = ref None in
  let o =
    CS.Session.run ~procs:3 ~slots:64 ~ops ~via_kernel ~compact_every
      ~on_machine:(fun m ->
        let p = Ccsim.Fault.create ~seed:11 () in
        Ccsim.Machine.set_fault m (Some p);
        mref := Some m;
        plan := Some p)
      ~arm:(fun () -> arm (Option.get !plan) (Option.get !mref))
      ()
  in
  let m = Option.get !mref in
  Format.asprintf
    "%sops=%d gets=%d hits=%d misses=%d sets=%d dels=%d evictions=%d \
     writebacks=%d compactions=%d resizes=%d enomem=%d aborts=%d crashes=%d \
     served_after_crash=%b@.divergences:@.%s@.%a@.clocks %s@."
    o.CS.Session.history o.ops_done o.gets o.hits o.misses o.sets o.dels
    o.evictions o.writebacks o.compactions o.resizes o.enomem o.aborts
    o.crashes_reaped o.served_after_crash
    (String.concat "\n" o.divergences)
    Ccsim.Stats.pp (Ccsim.Machine.stats m) (clocks m)

let session ?(via_kernel = false) ?(compact_every = 0) ?(ops = 10_000)
    ?(arm = fun _ _ -> ()) name =
  ("session_" ^ name, session_bytes ~via_kernel ~compact_every ~ops ~arm)

let session_subjects =
  [
    session "direct";
    session ~via_kernel:true "kernel";
    session ~compact_every:4_000 "compact";
    session ~ops:4_000 "budget" ~arm:(fun plan m ->
        let live = Ccsim.Physmem.live_frames (Ccsim.Machine.physmem m) in
        Ccsim.Fault.set_frame_budget plan (Some (live + 8)));
  ]
  @ List.map
      (fun (op, point, prob) ->
        session ~ops:3_000
          (Printf.sprintf "crash_%s@%s" op point)
          ~arm:(fun plan _ -> Ccsim.Fault.crash_ops plan ~op ~point ~prob ()))
      [
        ("mmap", "locked", 0.05);
        ("munmap", "locked", 0.05);
        ("munmap", "cleared", 0.05);
        ("mprotect", "locked", 1.0);
        ("pagefault", "locked", 0.02);
      ]

(* The benchmark's widths, which the quick sweeps stop short of (16 cores,
   64 slots): the file-backed serving loop at 32 cores over 256 slots, so
   Zipf draws over 512 ranks, and the local microbenchmark at 80 cores.
   Each digest covers the result record, the final Stats and every core's
   clock. *)
module R = Vm.Radixvm.Default

let serve_32_bytes () =
  let module S = CS.Make (R) in
  let mref = ref None in
  let r =
    S.serve ~warmup:1_000_000 ~slots:256 ~seed:1 ~file:3
      ~cache_ops:(CS.radixvm_cache_ops ~file:3)
      ~on_machine:(fun m -> mref := Some m)
      ~ncores:32 ~duration:8_000_000 R.create
  in
  let m = Option.get !mref in
  Format.asprintf
    "ncores=%d ops=%d gets=%d sets=%d dels=%d lost=%d evictions=%d \
     writebacks=%d resizes=%d ops_per_sec=%h ops_per_core=%h cycles=%d \
     ipis=%d shootdown_events=%d lock_wait=%d shootdown_wait=%d \
     line_stall=%d@.%a@.clocks %s@."
    r.CS.ncores r.ops r.gets r.sets r.dels r.lost r.evictions r.writebacks
    r.resizes r.ops_per_sec r.ops_per_core r.cycles r.ipis r.shootdown_events
    r.lock_wait r.shootdown_wait r.line_stall Ccsim.Stats.pp
    (Ccsim.Machine.stats m) (clocks m)

let local_80_bytes () =
  let module M = Workloads.Microbench.Make (R) in
  let mref = ref None in
  let r =
    M.local ~warmup:1_000_000 ~on_machine:(fun m -> mref := Some m)
      ~ncores:80 ~duration:4_000_000 R.create
  in
  let m = Option.get !mref in
  Format.asprintf
    "name=%s ncores=%d page_writes=%d cycles=%d writes_per_sec=%h ipis=%d \
     shootdown_events=%d transfers=%d lock_wait=%d shootdown_wait=%d \
     line_stall=%d@.%a@.clocks %s@."
    r.Workloads.Microbench.name r.ncores r.page_writes r.cycles
    r.writes_per_sec r.ipis r.shootdown_events r.transfers r.lock_wait
    r.shootdown_wait r.line_stall Ccsim.Stats.pp (Ccsim.Machine.stats m)
    (clocks m)

let subjects =
  [
    ("BENCH_fig5.json", fun () -> render ctx "fig5");
    ("BENCH_fig9.json", fun () -> render ctx "fig9");
    ("BENCH_table2.json", fun () -> render ctx "table2");
    ("BENCH_cacheserve.json", cacheserve_bytes);
    ("fuzz_seed42.transcript", fuzz_bytes);
  ]
  (* Every other deterministic quick target: table1 and wallclock count
     source lines or time the host, so they stay unpinned. *)
  @ List.map
      (fun target ->
        (Figures.artifact_name target, fun () -> render ctx target))
      [
        "fig4"; "fig6"; "fig7"; "fig8"; "rangelock"; "ablations"; "pt-overhead";
      ]
  @ session_subjects
  @ [ ("serve_32", serve_32_bytes); ("local_80", local_80_bytes) ]

let read_goldens () =
  match List.find_opt Sys.file_exists golden_paths with
  | None ->
      Alcotest.failf "no golden digest file found (looked for %s)"
        (String.concat ", " golden_paths)
  | Some path ->
      let ic = open_in path in
      let entries = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match String.index_opt line ' ' with
             | Some i ->
                 entries :=
                   ( String.sub line 0 i,
                     String.trim
                       (String.sub line (i + 1) (String.length line - i - 1))
                   )
                   :: !entries
             | None -> failwith ("malformed golden line: " ^ line)
         done
       with End_of_file -> close_in ic);
      List.rev !entries

let regen () =
  let path =
    match List.find_opt Sys.file_exists golden_paths with
    | Some p -> p
    | None -> "test/golden/digests.txt"
  in
  let oc = open_out path in
  output_string oc
    "# MD5 digests of the golden artifacts (see test/test_golden.ml).\n\
     # Refresh with: dune exec test/test_golden.exe -- --regen\n";
  List.iter
    (fun (name, make) ->
      let d = digest (make ()) in
      Printf.fprintf oc "%s %s\n" name d;
      Printf.printf "%s %s\n" name d)
    subjects;
  close_out oc;
  Printf.printf "wrote %s\n" path

let check_subject goldens (name, make) () =
  match List.assoc_opt name goldens with
  | None -> Alcotest.failf "no golden digest recorded for %s" name
  | Some expected ->
      let actual = digest (make ()) in
      if actual <> expected then
        Alcotest.failf
          "%s drifted from the golden artifact:\n\
          \  expected %s\n\
          \  actual   %s\n\
           The simulated numbers changed. If this is intentional, refresh \
           with `dune exec test/test_golden.exe -- --regen` from the repo \
           root and commit test/golden/digests.txt; otherwise the change \
           altered the cost model or operation semantics."
          name expected actual

(* A digest line that names no subject pins nothing, and would hide a
   subject deleted by mistake: fail on it, as simlint fails on a stale
   lint.allow entry. *)
let check_no_stale goldens () =
  match
    List.filter (fun (name, _) -> not (List.mem_assoc name subjects)) goldens
  with
  | [] -> ()
  | stale ->
      Alcotest.failf "digest lines that name no subject (delete them): %s"
        (String.concat ", " (List.map fst stale))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--regen" then regen ()
  else
    let goldens = read_goldens () in
    Alcotest.run "golden"
      [
        ( "byte-identity",
          List.map
            (fun subject ->
              Alcotest.test_case (fst subject) `Slow
                (check_subject goldens subject))
            subjects );
        ( "digest file",
          [
            Alcotest.test_case "no stale digest lines" `Quick
              (check_no_stale goldens);
          ] );
      ]
