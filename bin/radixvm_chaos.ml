(* radixvm-chaos: wall-clock-budgeted chaos soak for the VM stack.

   Runs fuzz sessions back to back until a host time budget is spent,
   each under a randomly drawn fault palette — frame budgets, IPI delays
   and stalls, mid-operation aborts, mid-critical-section crashes (with
   verified recovery) — cycling through all three range-lock backends,
   with the dynamic checkers attached and the livelock watchdog armed.
   Per-session palettes derive from --seed, so a given (seed,
   session-index) pair is exactly reproducible even though the number of
   sessions depends on the host's speed.

   Results land in BENCH_chaos.json (validated by bench/validate.exe).
   A failing session writes a replayable repro artifact and the run exits
   nonzero:

     radixvm-chaos --seconds 60 --seed 1 --out-dir .
     radixvm-fuzz --repro chaos_repro_<seed>.txt --shrink   # minimize *)

open Cmdliner
module Json = Harness.Json

(* No operation under the heaviest palette (IPI retry storms included)
   legitimately runs this many simulated cycles without retiring. *)
let watchdog_horizon = 100_000_000

let seconds_arg =
  Arg.(
    value
    & opt (Cli.seconds "--seconds") 30.0
    & info [ "seconds" ]
        ~doc:"Wall-clock budget: keep starting sessions until this much \
              host time has elapsed (at least one session always runs).")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~doc:"Base seed; session $(i,i) uses seed + i and a \
                            palette drawn from (seed, i).")

let max_sessions_arg =
  Arg.(
    value
    & opt (Cli.count ~min:0 "--max-sessions") 0
    & info [ "max-sessions" ]
        ~doc:"Hard cap on sessions regardless of remaining budget \
              (0 = no cap).")

let out_dir_arg =
  Arg.(
    value & opt dir "."
    & info [ "out-dir" ] ~doc:"Directory for BENCH_chaos.json and any \
                               repro artifacts.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Print every session's transcript, not just failing ones.")

(* The per-session fault palette. Independent of execution timing: only
   (base seed, session index) feed the draw, so a reported failure is
   reproducible with --seed/--max-sessions regardless of host speed. *)
let palette ~seed ~index =
  let rng = Random.State.make [| 0xc4a05; seed; index |] in
  let backends = Locks.Range_lock.all in
  let backend = List.nth backends (index mod List.length backends) in
  let ncores = 2 + Random.State.int rng 5 in
  let ops = 200 + Random.State.int rng 601 in
  {
    Fuzz.seed = seed + index;
    ops;
    ncores;
    check = true;
    verbose = false;
    broken = false;
    rangelock = backend;
    crash = true;
    watchdog = Some watchdog_horizon;
  }

let main seconds seed max_sessions out_dir verbose =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let rows = ref [] in
  let failures = ref [] in
  let n = ref 0 in
  let total_crashes = ref 0 in
  let total_livelocks = ref 0 in
  while
    (!n = 0 || elapsed () < seconds)
    && (max_sessions = 0 || !n < max_sessions)
  do
    let index = !n in
    incr n;
    let cfg = palette ~seed ~index in
    let s0 = Unix.gettimeofday () in
    let o = Fuzz.run_session cfg in
    let { Fuzz.passed; crashes; livelocked; _ } = o in
    let wall = Unix.gettimeofday () -. s0 in
    total_crashes := !total_crashes + crashes;
    if livelocked then incr total_livelocks;
    Printf.printf "chaos: session %d seed=%d backend=%s cores=%d ops=%d -> \
                   %s (%d reaped%s, %.2fs)\n%!"
      index cfg.Fuzz.seed
      (Locks.Range_lock.name cfg.Fuzz.rangelock)
      cfg.Fuzz.ncores cfg.Fuzz.ops
      (if passed then "PASS" else "FAIL")
      crashes
      (if livelocked then ", LIVELOCK" else "")
      wall;
    if verbose || not passed then print_string o.Fuzz.transcript;
    if not passed then begin
      let artifact =
        Filename.concat out_dir
          (Printf.sprintf "chaos_repro_%d.txt" cfg.Fuzz.seed)
      in
      Fuzz.write_artifact artifact o;
      Printf.printf
        "chaos: repro written to %s\n  replay: radixvm-fuzz --repro %s\n%!"
        artifact artifact;
      failures := cfg.Fuzz.seed :: !failures
    end;
    rows :=
      Json.Obj
        [
          ("seed", Json.Int cfg.Fuzz.seed);
          ("backend", Json.String (Locks.Range_lock.name cfg.Fuzz.rangelock));
          ("cores", Json.Int cfg.Fuzz.ncores);
          ("ops", Json.Int cfg.Fuzz.ops);
          ("passed", Json.Bool passed);
          ("crashes", Json.Int crashes);
          ("livelocked", Json.Bool livelocked);
          ("wall_clock_seconds", Json.Float wall);
        ]
      :: !rows
  done;
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Int 1);
        ("seed", Json.Int seed);
        ("budget_seconds", Json.Float seconds);
        ("wall_clock_seconds", Json.Float (elapsed ()));
        ("sessions", Json.Int !n);
        ("passed", Json.Int (!n - List.length !failures));
        ("failed", Json.Int (List.length !failures));
        ("crashes_injected", Json.Int !total_crashes);
        ("livelocks", Json.Int !total_livelocks);
        ("rows", Json.List (List.rev !rows));
      ]
  in
  let out = Filename.concat out_dir "BENCH_chaos.json" in
  Json.to_file ~pretty:true out doc;
  Printf.printf "chaos: %d/%d sessions passed, %d processes crashed and \
                 reaped, %d livelocks -> %s\n"
    (!n - List.length !failures)
    !n !total_crashes !total_livelocks out;
  if !failures <> [] then exit 1

let cmd =
  let doc = "wall-clock-budgeted chaos soak for the RadixVM stack" in
  Cmd.v
    (Cmd.info "radixvm-chaos" ~doc)
    Term.(
      const main $ seconds_arg $ seed_arg $ max_sessions_arg $ out_dir_arg
      $ verbose_arg)

let () = exit (Cmd.eval cmd)
