(* radixvm-selfbench: how fast is the simulator itself on this host?
   Times the workloads a developer actually waits on — a quick fig5
   sweep, one checked fuzz session — plus the Bechamel micro-op figures,
   and writes them as a flat metric list (BENCH_selfperf.json) that
   bench/compare.exe can diff against a committed baseline.

   All metrics are host wall-clock, so they are noisy by nature; the
   comparison gate applies tolerance bands, not byte-identity (that is
   the golden test's job). Run with --out-dir to choose where the
   artifact lands; everything else is fixed so baselines stay
   comparable across runs. *)

module Json = Harness.Json

let usage () =
  prerr_endline "usage: radixvm_selfbench.exe [--out-dir D]";
  exit 1

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Lower-is-better seconds / ns metrics and higher-is-better rates carry
   their direction so the comparator needs no name heuristics. *)
let metric ?(better = "lower") name value unit_ =
  Json.Obj
    [
      ("name", Json.String name);
      ("value", value);
      ("unit", Json.String unit_);
      ("better", Json.String better);
    ]

let () =
  let out_dir = ref "." in
  let rec parse = function
    | [] -> ()
    | "--out-dir" :: d :: rest ->
        if not (Sys.file_exists d && Sys.is_directory d) then begin
          Printf.eprintf
            "radixvm_selfbench.exe: --out-dir %s is not a directory\n" d;
          usage ()
        end;
        out_dir := d;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* 1. The quick fig5 sweep, serial: the dominant edit-compile-measure
     loop of this repo. [--jobs 1] so the number means the same thing on
     any host core count. *)
  let ctx = { Figures.quick = true; check = false; jobs = 1; ppf = null_ppf } in
  let fig5, fig5_s =
    time (fun () -> Figures.run_target ctx "fig5")
  in
  (match fig5 with
  | Some _ -> ()
  | None ->
      prerr_endline "selfbench: fig5 target missing";
      exit 1);
  Printf.printf "fig5 --quick --jobs 1:     %7.2f s\n%!" fig5_s;
  (* 2. One checked 600-op fuzz session — the soak path, checker attached. *)
  let fuzz_cfg =
    { Fuzz.default with Fuzz.seed = 42; ops = 600; ncores = 4; check = true }
  in
  let outcome, fuzz_s = time (fun () -> Fuzz.run_session fuzz_cfg) in
  if not outcome.Fuzz.passed then begin
    prerr_endline "selfbench: checked fuzz session FAILED; timings meaningless";
    print_string outcome.Fuzz.transcript;
    exit 1
  end;
  let ops_per_sec = float_of_int fuzz_cfg.Fuzz.ops /. fuzz_s in
  Printf.printf "fuzz 600 ops (checked):    %7.2f s  (%.0f ops/s)\n%!" fuzz_s
    ops_per_sec;
  (* 2b. A sharded fuzz world: 4 coupled node sessions on up to 4 host
     domains (at most the host's count). *)
  let world_cfg =
    { Fuzz.default with Fuzz.seed = 42; ops = 300; ncores = 4; check = true }
  in
  let world, world_s =
    time (fun () ->
        Fuzz.run_world ~jobs:(Harness.Pool.clamp_jobs 4) ~nodes:4 world_cfg)
  in
  if not world.Fuzz.w_passed then begin
    prerr_endline "selfbench: sharded fuzz world FAILED; timings meaningless";
    print_string world.Fuzz.w_transcript;
    exit 1
  end;
  Printf.printf "fuzz world 4x300 (checked):%7.2f s\n%!" world_s;
  (* 2c. The quick cacheserve sweep, serial: the heaviest figure target
     (seven systems x three core counts, page-cache rows disk-bound), so
     its wall time is worth gating on its own. *)
  let cacheserve, cacheserve_s =
    time (fun () -> Figures.run_target ctx "cacheserve")
  in
  (match cacheserve with
  | Some _ -> ()
  | None ->
      prerr_endline "selfbench: cacheserve target missing";
      exit 1);
  Printf.printf "cacheserve --quick --jobs 1:%6.2f s\n%!" cacheserve_s;
  (* 3. Micro-op figures through the existing Bechamel wiring. *)
  let micro =
    match Figures.run_target { ctx with ppf = null_ppf } "wallclock" with
    | Some out -> (
        match out.Figures.json with
        | Json.List rows ->
            List.filter_map
              (fun row ->
                match (Json.member "name" row, Json.member "ns_per_op" row) with
                | Some (Json.String name), Some v ->
                    (match v with
                    | Json.Float ns ->
                        Printf.printf "%-26s %9.1f ns/op\n%!" name ns
                    | _ -> ());
                    Some (metric ("micro " ^ name) v "ns/op")
                | _ -> None)
              rows
        | _ -> [])
    | None -> []
  in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ( "metrics",
          Json.List
            ([
               metric "fig5_quick_wall" (Json.Float fig5_s) "s";
               metric "fuzz600_checked_wall" (Json.Float fuzz_s) "s";
               metric "fuzz_sharded_wall" (Json.Float world_s) "s";
               metric "cacheserve_wall" (Json.Float cacheserve_s) "s";
               metric ~better:"higher" "fuzz_ops_per_sec"
                 (Json.Float ops_per_sec) "ops/s";
             ]
            @ micro) );
      ]
  in
  let path = Filename.concat !out_dir "BENCH_selfperf.json" in
  Json.to_file ~pretty:true path doc;
  Printf.printf "wrote %s\n" path
