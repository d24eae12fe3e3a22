(* radixvm-fuzz: seeded fault-injection fuzzer / soak harness for the VM
   stack.

   Each run is a batch of independent sessions (seeds seed .. seed+runs-1)
   executed on a worker pool; transcripts are printed in seed order, so
   the output is byte-identical for any --jobs. A failing session writes
   a self-contained repro artifact (the reified program plus the failing
   transcript) and prints the command that replays it:

     radixvm-fuzz --seed 42 --ops 600 --cores 4 --runs 2 --jobs 2
     radixvm-fuzz --repro fuzz_repro_1337.txt        # replay an artifact
     radixvm-fuzz --repro fuzz_repro_1337.txt --shrink   # minimize it *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed; session $(i,i) uses seed + i.")

let ops_arg =
  Arg.(
    value
    & opt (Cli.count "--ops") 600
    & info [ "ops" ] ~doc:"Operations per session (at least 1).")

let cores_arg =
  Arg.(
    value
    & opt (Cli.count "--cores") 4
    & info [ "cores" ] ~doc:"Simulated cores per session (minimum 2; 1 is raised to 2).")

let runs_arg =
  Arg.(
    value
    & opt (Cli.count "--runs") 1
    & info [ "runs" ] ~doc:"Number of sessions (consecutive seeds, at least 1).")

let jobs_arg =
  Arg.(
    value
    & opt (Cli.count "--jobs") (Harness.Pool.default_jobs ())
    & info [ "jobs" ]
        ~doc:
          "Worker domains, at most the host's count. Sessions are \
           independent and results are printed in seed order, so the \
           output does not depend on this.")

let check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Attach the dynamic checkers (stale TLB, Refcache ledger, leaked locks, lock order) to every session.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Print one transcript line per operation.")

let broken_arg =
  Arg.(
    value & flag
    & info [ "broken" ]
        ~doc:
          "Known-bad mode: skip rollback on injected aborts. Sessions are \
           expected to FAIL — use this to confirm the oracle and checkers \
           have teeth.")

let crash_arg =
  Arg.(
    value & flag
    & info [ "crash" ]
        ~doc:
          "Draw crash rules into the fault plan: operations occasionally \
           die mid-critical-section without unwinding, and the session \
           verifies the kernel-side recovery (reap) leaves survivors \
           intact.")

let watchdog_arg =
  Arg.(
    value
    & opt (some (Cli.count "--watchdog")) None
    & info [ "watchdog" ]
        ~doc:
          "Livelock horizon in simulated cycles: fail any session where \
           no operation retires for this long (requires $(b,--check)).")

let rangelock_conv =
  let parse s =
    match Locks.Range_lock.of_string s with
    | Ok k -> Ok k
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Locks.Range_lock.name k))

let rangelock_arg =
  Arg.(
    value
    & opt rangelock_conv Locks.Range_lock.Radix_embedded
    & info [ "rangelock" ]
        ~doc:
          "Range-lock backend for every address space: $(b,radix) (the \
           paper's embedded slot locks, default), $(b,list) (ordered list \
           of locked ranges), or $(b,global) (one whole-address-space \
           lock).")

let repro_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "repro" ] ~docv:"FILE"
        ~doc:
          "Replay a recorded repro artifact instead of generating \
           sessions ($(b,--seed)/$(b,--ops)/$(b,--runs) are ignored).")

let shrink_arg =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:
          "Delta-debug the failing session to a minimal reproducer and \
           write it as $(i,<artifact>).min.txt. With $(b,--repro), \
           shrinks that artifact; otherwise shrinks the first failing \
           generated session.")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let do_shrink ~artifact (o : Fuzz.outcome) =
  match Fuzz.shrink ~log:prerr_endline o.Fuzz.program with
  | Error msg ->
      Printf.eprintf "shrink: %s\n" msg;
      false
  | Ok minimal ->
      let min_path = artifact ^ ".min.txt" in
      let mo = Fuzz.run_program minimal in
      Fuzz.write_artifact min_path mo;
      Printf.printf
        "shrink: minimized to %d ops, %d cores -> %s\n  replay: \
         radixvm-fuzz --repro %s\n"
        (List.length minimal.Fuzz.pr_ops)
        minimal.Fuzz.pr_ncores min_path min_path;
      true

(* The first failing session writes the repro artifact. *)
let report_failure ~shrink (o : Fuzz.outcome) =
  let artifact =
    Printf.sprintf "fuzz_repro_%d.txt" o.Fuzz.program.Fuzz.pr_seed
  in
  Fuzz.write_artifact artifact o;
  Printf.printf "repro: written to %s\n  replay: radixvm-fuzz --repro %s\n"
    artifact artifact;
  if shrink then ignore (do_shrink ~artifact o)

let replay_main path shrink verbose =
  match Fuzz.program_of_string (read_file path) with
  | Error msg ->
      Printf.eprintf "radixvm-fuzz: cannot parse %s: %s\n" path msg;
      exit 2
  | Ok prog ->
      let o = Fuzz.run_program ~verbose prog in
      print_string o.Fuzz.transcript;
      if o.Fuzz.passed then print_string "fuzz: replay passed\n"
      else begin
        print_string "fuzz: replay FAILED\n";
        if shrink then ignore (do_shrink ~artifact:path o);
        exit 1
      end

let main seed ops cores runs jobs check verbose broken crash watchdog
    rangelock repro shrink =
  match repro with
  | Some path -> replay_main path shrink verbose
  | None ->
      let jobs = Harness.Pool.clamp_jobs jobs in
      let outcomes =
        Harness.Pool.run ~jobs
          (List.init runs (fun i ->
               Harness.Pool.job
                 ~name:(Printf.sprintf "fuzz-%d" (seed + i))
                 (fun () ->
                   Fuzz.run_session
                     { Fuzz.seed = seed + i; ops; ncores = cores; check;
                       verbose; broken; rangelock; crash; watchdog })))
      in
      List.iter (fun (o : Fuzz.outcome) -> print_string o.transcript) outcomes;
      let failing =
        List.filter (fun (o : Fuzz.outcome) -> not o.passed) outcomes
      in
      Printf.printf "fuzz: %d/%d sessions passed\n"
        (runs - List.length failing) runs;
      match failing with
      | o :: _ ->
          report_failure ~shrink o;
          exit 1
      | [] -> ()

let cmd =
  let doc = "seeded fault-injection fuzzer for the RadixVM stack" in
  Cmd.v
    (Cmd.info "radixvm-fuzz" ~doc)
    Term.(
      const main $ seed_arg $ ops_arg $ cores_arg $ runs_arg $ jobs_arg
      $ check_arg $ verbose_arg $ broken_arg $ crash_arg $ watchdog_arg
      $ rangelock_arg $ repro_arg $ shrink_arg)

let () = exit (Cmd.eval cmd)
