open Ccsim
module R = Vm.Radixvm.Default
module T = Vm.Vm_types

type config = {
  seed : int;
  ops : int;
  ncores : int;
  check : bool;
  verbose : bool;
  broken : bool;
  rangelock : Locks.Range_lock.kind;
      (* every process's address space uses this backend; the default
         keeps the seed-42 golden transcript byte-identical *)
  crash : bool;
      (* draw crash rules (Injected_crash) into the fault plan; off by
         default so the golden transcript's rng sequence is untouched *)
  watchdog : int option;
      (* livelock horizon in simulated cycles (requires [check]) *)
}

let default =
  { seed = 0; ops = 600; ncores = 4; check = true; verbose = false;
    broken = false; rangelock = Locks.Range_lock.Radix_embedded;
    crash = false; watchdog = None }

(* --- the reified session: an explicit, replayable program --- *)

type op =
  | Nop  (* a generated iteration that took no action (fork table full,
            exit with one process); recorded so replay drains and checks
            invariants at the same operation indices *)
  | Mmap of { p : int; c : int; lo : int; len : int; ro : bool }
  | Munmap of { p : int; c : int; lo : int; len : int }
  | Mprotect of { p : int; c : int; lo : int; len : int; ro : bool }
  | Store of { p : int; c : int; vpn : int; value : int }
  | Load of { p : int; c : int; vpn : int }
  | Touch of { p : int; c : int; vpn : int }
  | Discard of { p : int; c : int }
  | Fork of { p : int; c : int; child : int }
  | Exit of { c : int; victim : int }
  | Spawn of { id : int }

type rule_spec = { rs_op : string; rs_point : string option; rs_prob : float }

type plan_spec = {
  ps_budget : int option;
  ps_delayed : (int * int) list;
  ps_stalled : int list;
  ps_aborts : rule_spec list;
  ps_crashes : rule_spec list;
}

type program = {
  pr_seed : int;
  pr_ncores : int;
  pr_check : bool;
  pr_broken : bool;
  pr_rangelock : Locks.Range_lock.kind;
  pr_watchdog : int option;
  pr_plan : plan_spec;
  pr_ops : op list;
}

type outcome = {
  transcript : string;
  passed : bool;
  failures : string list;
  crashes : int;
  livelocked : bool;
  program : program;
}

(* The oracle: per process, a map vpn -> (protection, expected word). A
   page that was mmapped but never stored reads as 0 (demand-zero), and a
   failed operation must leave the map — and the real tree — untouched. *)
type opage = { mutable o_prot : T.prot; mutable o_value : int }
type proc = { id : int; vm : R.t; pages : (int, opage) Hashtbl.t }

let region = 1024 (* fuzzed vpn range per address space *)
let max_procs = 6
let epoch = 50_000

(* Audited for iteration-order leaks (simlint det-hashtbl-order): the
   copy's insertion order — hence the copy's own iteration order in
   [rand_vpn] — follows [src]'s bucket order, which is a pure function of
   the operation history for a fixed seed. The seed-42 golden digest
   freezes it; migrating to a sorted copy would move those bytes, so the
   site is pinned in lint.allow instead. *)
let copy_pages src =
  let dst = Hashtbl.create (2 * Hashtbl.length src) in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace dst k { o_prot = v.o_prot; o_value = v.o_value })
    src;
  dst

let pp_result = function
  | Stdlib.Ok () -> "ok"
  | Stdlib.Error e -> Format.asprintf "%a" T.pp_vm_error e

let counted_op = function Spawn _ -> false | _ -> true

let op_actor = function
  | Mmap { p; c; _ }
  | Munmap { p; c; _ }
  | Mprotect { p; c; _ }
  | Store { p; c; _ }
  | Load { p; c; _ }
  | Touch { p; c; _ }
  | Discard { p; c }
  | Fork { p; c; _ } ->
      Some (p, c)
  | Nop | Exit _ | Spawn _ -> None

type src =
  | Gen of config
  | Rep of { prog : program; verbose : bool; fail_fast : bool }

(* Abandon the op stream at the first failure (shrinker candidate runs:
   only the pass/fail bit matters, and a failing 600-op broken-rollback
   session can cost quadratic checker work if run to completion). *)
exception Failed_fast

let session ?(inject = fun (_ : int) -> []) src =
  let cfg =
    match src with
    | Gen cfg -> { cfg with ncores = max 2 cfg.ncores; ops = max 1 cfg.ops }
    | Rep { prog; verbose; _ } ->
        {
          seed = prog.pr_seed;
          ops = List.length (List.filter counted_op prog.pr_ops);
          ncores = max 2 prog.pr_ncores;
          check = prog.pr_check;
          verbose;
          broken = prog.pr_broken;
          rangelock = prog.pr_rangelock;
          crash = prog.pr_plan.ps_crashes <> [];
          watchdog = prog.pr_watchdog;
        }
  in
  let buf = Buffer.create 4096 in
  let out fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let trace fmt =
    Printf.ksprintf (fun s -> if cfg.verbose then out "%s" s) fmt
  in
  let failures = ref [] in
  let ff_armed = ref false in
  let failed fmt =
    Printf.ksprintf
      (fun s ->
        let s = Printf.sprintf "seed=%d: %s" cfg.seed s in
        failures := s :: !failures;
        out "FAIL %s" s;
        if !ff_armed then raise Failed_fast)
      fmt
  in
  let rng = Random.State.make [| 0x5eed; cfg.seed |] in
  let machine =
    Machine.create (Params.default ~ncores:cfg.ncores ~epoch_cycles:epoch ())
  in
  let checker = if cfg.check then Some (Check.attach machine) else None in
  (* The fault plan is drawn from the session rng, except that core 1 is
     always configured to acknowledge IPIs late enough (past
     ipi_ack_timeout) to force at least one sender-side retry — together
     with the frame budget and the abort rules this guarantees every
     session exercises frame exhaustion, IPI delay, and mid-op aborts.
     When replaying, the drawn plan is replaced by the program's explicit
     plan spec; generation reifies its draws into the same spec type so
     both modes configure the plan through one code path. *)
  let plan = Fault.create ~seed:cfg.seed () in
  let spec =
    match src with
    | Rep { prog; _ } ->
        (* Shrunk or hand-edited programs may reference cores that no
           longer exist after core reduction: drop those plan entries. *)
        let pl = prog.pr_plan in
        {
          pl with
          ps_delayed =
            List.filter (fun (c, _) -> c >= 0 && c < cfg.ncores) pl.ps_delayed;
          ps_stalled =
            List.filter (fun c -> c >= 0 && c < cfg.ncores) pl.ps_stalled;
        }
    | Gen _ ->
        let budget = 10 + Random.State.int rng 16 in
        let delayed =
          ref [ (1, 300_000 + Random.State.int rng 150_000) ]
        and stalled = ref [] in
        for c = 2 to cfg.ncores - 1 do
          match Random.State.int rng 10 with
          | 0 -> stalled := c :: !stalled
          | 1 | 2 ->
              delayed := (c, 5_000 + Random.State.int rng 400_000) :: !delayed
          | _ -> ()
        done;
        let aborts =
          List.map
            (fun op ->
              { rs_op = op; rs_point = None;
                rs_prob = 0.02 +. Random.State.float rng 0.10 })
            [ "mmap"; "munmap"; "mprotect"; "pagefault" ]
        in
        (* Crash probabilities are drawn after every legacy draw, and only
           when asked for, so crash-free configs keep the frozen rng
           sequence (golden digest). *)
        let crashes =
          if cfg.crash then
            List.map
              (fun op ->
                { rs_op = op; rs_point = None;
                  rs_prob = 0.0005 +. Random.State.float rng 0.0045 })
              [ "mmap"; "munmap"; "mprotect"; "pagefault"; "fork" ]
          else []
        in
        {
          ps_budget = Some budget;
          ps_delayed = List.rev !delayed;
          ps_stalled = List.rev !stalled;
          ps_aborts = aborts;
          ps_crashes = crashes;
        }
  in
  Fault.set_frame_budget plan spec.ps_budget;
  List.iter
    (fun (c, cycles) -> Fault.delay_ipi plan ~core:c ~cycles)
    spec.ps_delayed;
  List.iter (fun c -> Fault.stall_ipi plan ~core:c) spec.ps_stalled;
  List.iter
    (fun r -> Fault.abort_ops plan ~op:r.rs_op ?point:r.rs_point ~prob:r.rs_prob ())
    spec.ps_aborts;
  List.iter
    (fun r -> Fault.crash_ops plan ~op:r.rs_op ?point:r.rs_point ~prob:r.rs_prob ())
    spec.ps_crashes;
  if cfg.broken then Fault.set_break_rollback plan true;
  Machine.set_fault machine (Some plan);
  (match (checker, cfg.watchdog) with
  | Some ck, Some horizon -> Check.arm_watchdog ck ~horizon
  | _ -> ());
  let budget_str =
    match spec.ps_budget with Some b -> string_of_int b | None -> "none"
  in
  out "fuzz: seed=%d ops=%d cores=%d budget=%s%s%s%s%s" cfg.seed cfg.ops
    cfg.ncores budget_str
    (* Every suffix is empty at the defaults, keeping golden bytes. *)
    (match cfg.rangelock with
    | Locks.Range_lock.Radix_embedded -> ""
    | k -> " rangelock=" ^ Locks.Range_lock.name k)
    (if cfg.broken then " BROKEN-ROLLBACK" else "")
    (if spec.ps_crashes <> [] then " crash" else "")
    (match cfg.watchdog with
    | Some h -> Printf.sprintf " watchdog=%d" h
    | None -> "");
  let rule_str r =
    (* %.3f over plan constants, not computed values: fixed-point
       rendering of exact config floats is stable across platforms and
       frozen by the golden digest (pinned in lint.allow). *)
    Printf.sprintf "%s%s:%.3f" r.rs_op
      (match r.rs_point with None -> "" | Some pt -> "@" ^ pt)
      r.rs_prob
  in
  out "plan: delayed=[%s] stalled=[%s] aborts=[%s]%s"
    (String.concat ","
       (List.map (fun (c, _) -> string_of_int c) spec.ps_delayed))
    (String.concat "," (List.map string_of_int spec.ps_stalled))
    (String.concat " " (List.map rule_str spec.ps_aborts))
    (if spec.ps_crashes = [] then ""
     else
       Printf.sprintf " crashes=[%s]"
         (String.concat " " (List.map rule_str spec.ps_crashes)));
  (* --- processes --- *)
  let next_id = ref 0 in
  let new_proc ?id vm pages =
    let id =
      match id with
      | Some i ->
          next_id := max !next_id (i + 1);
          i
      | None ->
          let i = !next_id in
          incr next_id;
          i
    in
    { id; vm; pages }
  in
  let procs =
    ref
      [
        new_proc
          (R.create_with ~rangelock:cfg.rangelock machine)
          (Hashtbl.create 64);
      ]
  in
  let find_proc id = List.find_opt (fun q -> q.id = id) !procs in
  let n_ok = ref 0
  and n_segv = ref 0
  and n_enomem = ref 0
  and n_aborted = ref 0
  and n_oomr = ref 0
  and n_crashed = ref 0
  and n_skipped = ref 0 in
  let count_err = function
    | T.Enomem -> incr n_enomem
    | T.Aborted _ -> incr n_aborted
  in
  let skip () = incr n_skipped in
  let norm_core c = abs c mod cfg.ncores in
  let core_of c = Machine.core machine (norm_core c) in
  let rand_core () = Machine.core machine (Random.State.int rng cfg.ncores) in
  let rand_proc () =
    List.nth !procs (Random.State.int rng (List.length !procs))
  in
  let rand_range () =
    let lo = Random.State.int rng region in
    let len = 1 + Random.State.int rng 12 in
    (lo, min len (region - lo))
  in
  let oracle_mapped p vpn = Hashtbl.mem p.pages vpn in
  (* Page accesses aim at mapped pages most of the time: mmap ranges are a
     dozen pages in a 1024-page space, so uniform vpns almost always
     segfault and the frame budget is never even approached. (Hashtbl
     iteration order is deterministic for a given operation history, so
     this keeps transcripts reproducible; the seed-42 golden digest
     freezes the exact pick order, so this audited site is pinned in
     lint.allow rather than sorted — sorting would change the bytes.) *)
  let rand_vpn p =
    let n = Hashtbl.length p.pages in
    if n > 0 && Random.State.int rng 100 < 60 then begin
      let k = Random.State.int rng n in
      let i = ref 0 and pick = ref 0 in
      Hashtbl.iter
        (fun v _ ->
          if !i = k then pick := v;
          incr i)
        p.pages;
      !pick
    end
    else Random.State.int rng region
  in
  (* A failed operation is required to be a no-op: spot-check that the
     tree still agrees with the oracle at the range's endpoints. *)
  let check_noop label p lo hi =
    List.iter
      (fun v ->
        let m = R.mapped p.vm ~vpn:v and o = oracle_mapped p v in
        if m <> o then
          failed "failed %s was not a no-op: p%d vpn %d is %s, oracle says %s"
            label p.id v
            (if m then "mapped" else "unmapped")
            (if o then "mapped" else "unmapped"))
      [ lo; hi ]
  in
  (* --- operations (explicit, resolved parameters — shared between
     generation and replay; the generator draws the parameters, the
     replayer reads them from the program) --- *)
  let do_mmap core p lo len ro =
    let prot = if ro then T.Read_only else T.Read_write in
    let r = T.trap (fun () -> R.mmap p.vm core ~vpn:lo ~npages:len ~prot ()) in
    trace "  c%d p%d mmap [%d,%d) %s -> %s" core.Core.id p.id lo (lo + len)
      (if prot = T.Read_only then "r-" else "rw")
      (pp_result r);
    match r with
    | Ok () ->
        incr n_ok;
        for v = lo to lo + len - 1 do
          Hashtbl.replace p.pages v { o_prot = prot; o_value = 0 }
        done;
        if not (R.mapped p.vm ~vpn:lo && R.mapped p.vm ~vpn:(lo + len - 1))
        then failed "mmap ok but p%d [%d,%d) is not mapped" p.id lo (lo + len)
    | Error e ->
        count_err e;
        check_noop "mmap" p lo (lo + len - 1)
  in
  let do_munmap core p lo len =
    let r = T.trap (fun () -> R.munmap p.vm core ~vpn:lo ~npages:len) in
    trace "  c%d p%d munmap [%d,%d) -> %s" core.Core.id p.id lo (lo + len)
      (pp_result r);
    match r with
    | Ok () ->
        incr n_ok;
        for v = lo to lo + len - 1 do
          Hashtbl.remove p.pages v
        done;
        if R.mapped p.vm ~vpn:lo || R.mapped p.vm ~vpn:(lo + len - 1) then
          failed "munmap ok but p%d [%d,%d) still mapped" p.id lo (lo + len)
    | Error e ->
        count_err e;
        check_noop "munmap" p lo (lo + len - 1)
  in
  let do_mprotect core p lo len ro =
    let prot = if ro then T.Read_only else T.Read_write in
    let r = T.trap (fun () -> R.mprotect p.vm core ~vpn:lo ~npages:len prot) in
    trace "  c%d p%d mprotect [%d,%d) %s -> %s" core.Core.id p.id lo (lo + len)
      (if prot = T.Read_only then "r-" else "rw")
      (pp_result r);
    match r with
    | Ok () ->
        incr n_ok;
        for v = lo to lo + len - 1 do
          match Hashtbl.find_opt p.pages v with
          | Some pg -> pg.o_prot <- prot
          | None -> ()
        done
    | Error e -> count_err e
  in
  let do_store core p vpn value =
    let r = T.trap (fun () -> R.store p.vm core ~vpn value) in
    trace "  c%d p%d store %d<-%d -> %s" core.Core.id p.id vpn value
      (match r with
      | Ok a -> Format.asprintf "%a" T.pp_access_result a
      | Error e -> Format.asprintf "%a" T.pp_vm_error e);
    match r with
    | Ok T.Ok -> (
        incr n_ok;
        match Hashtbl.find_opt p.pages vpn with
        | Some pg when pg.o_prot = T.Read_write -> pg.o_value <- value
        | Some _ -> failed "store to read-only p%d vpn %d succeeded" p.id vpn
        | None -> failed "store to unmapped p%d vpn %d succeeded" p.id vpn)
    | Ok T.Segfault -> (
        incr n_segv;
        match Hashtbl.find_opt p.pages vpn with
        | Some { o_prot = T.Read_write; _ } ->
            failed "store to mapped rw p%d vpn %d segfaulted" p.id vpn
        | Some _ | None -> ())
    | Ok T.Oom -> incr n_oomr
    | Error e -> count_err e
  in
  let do_load core p vpn =
    let r = T.trap (fun () -> R.load p.vm core ~vpn) in
    trace "  c%d p%d load %d -> %s" core.Core.id p.id vpn
      (match r with
      | Ok (Some v) -> string_of_int v
      | Ok None -> "fault"
      | Error e -> Format.asprintf "%a" T.pp_vm_error e);
    match r with
    | Ok (Some v) -> (
        incr n_ok;
        match Hashtbl.find_opt p.pages vpn with
        | Some pg when pg.o_value = v -> ()
        | Some pg ->
            failed "load p%d vpn %d returned %d, oracle expects %d" p.id vpn v
              pg.o_value
        | None -> failed "load of unmapped p%d vpn %d returned %d" p.id vpn v)
    | Ok None ->
        incr n_segv;
        if oracle_mapped p vpn then
          failed "load of mapped p%d vpn %d faulted" p.id vpn
    | Error e -> count_err e
  in
  let do_touch core p vpn =
    let r = T.trap (fun () -> R.touch p.vm core ~vpn) in
    trace "  c%d p%d touch %d -> %s" core.Core.id p.id vpn
      (match r with
      | Ok a -> Format.asprintf "%a" T.pp_access_result a
      | Error e -> Format.asprintf "%a" T.pp_vm_error e);
    match r with
    | Ok T.Ok -> (
        incr n_ok;
        match Hashtbl.find_opt p.pages vpn with
        | Some { o_prot = T.Read_write; _ } -> ()
        | Some _ -> failed "touch of read-only p%d vpn %d succeeded" p.id vpn
        | None -> failed "touch of unmapped p%d vpn %d succeeded" p.id vpn)
    | Ok T.Segfault -> (
        incr n_segv;
        match Hashtbl.find_opt p.pages vpn with
        | Some { o_prot = T.Read_write; _ } ->
            failed "touch of mapped rw p%d vpn %d segfaulted" p.id vpn
        | Some _ | None -> ())
    | Ok T.Oom -> incr n_oomr
    | Error e -> count_err e
  in
  let do_discard core p =
    R.discard_page_tables p.vm core;
    incr n_ok;
    trace "  c%d p%d discard page tables" core.Core.id p.id
  in
  let do_fork core p child =
    if List.length !procs >= max_procs then skip ()
    else
      match T.trap (fun () -> R.fork p.vm core) with
      | Ok vm ->
          let q = new_proc ~id:child vm (copy_pages p.pages) in
          procs := !procs @ [ q ];
          incr n_ok;
          trace "  c%d p%d fork -> p%d" core.Core.id p.id q.id
      | Error e ->
          count_err e;
          trace "  c%d p%d fork -> %s" core.Core.id p.id
            (pp_result (Error e))
  in
  let do_exit core victim =
    match List.partition (fun q -> q.id = victim) !procs with
    | [ v ], rest when rest <> [] ->
        procs := rest;
        R.destroy v.vm core;
        incr n_ok;
        trace "  c%d exit p%d" core.Core.id v.id
    | _ -> skip ()
  in
  let do_spawn id =
    match find_proc id with
    | Some _ -> skip ()
    | None ->
        let q =
          new_proc ~id
            (R.create_with ~rangelock:cfg.rangelock machine)
            (Hashtbl.create 64)
        in
        procs := !procs @ [ q ];
        out "spawn: p%d (no survivors)" id
  in
  let with_proc p f = match find_proc p with Some q -> f q | None -> skip () in
  let exec = function
    | Nop -> ()
    | Mmap { p; c; lo; len; ro } ->
        with_proc p (fun q -> do_mmap (core_of c) q lo len ro)
    | Munmap { p; c; lo; len } ->
        with_proc p (fun q -> do_munmap (core_of c) q lo len)
    | Mprotect { p; c; lo; len; ro } ->
        with_proc p (fun q -> do_mprotect (core_of c) q lo len ro)
    | Store { p; c; vpn; value } ->
        with_proc p (fun q -> do_store (core_of c) q vpn value)
    | Load { p; c; vpn } -> with_proc p (fun q -> do_load (core_of c) q vpn)
    | Touch { p; c; vpn } -> with_proc p (fun q -> do_touch (core_of c) q vpn)
    | Discard { p; c } -> with_proc p (fun q -> do_discard (core_of c) q)
    | Fork { p; c; child } ->
        with_proc p (fun q -> do_fork (core_of c) q child)
    | Exit { c; victim } -> do_exit (core_of c) victim
    | Spawn { id } -> do_spawn id
  in
  (* Every live process's tree against its invariants; [prefix] tells the
     periodic, post-reap and final sweeps apart. *)
  let check_invariants prefix =
    List.iter
      (fun q ->
        try R.check_invariants q.vm
        with T.Invariant_violation { subsystem; detail } ->
          failed "%sinvariant violation in %s (p%d): %s" prefix subsystem q.id
            detail)
      !procs
  in
  (* One failure line per non-empty checker finding list: its length and
     its first finding. *)
  let findings prefix what pp = function
    | [] -> ()
    | v :: _ as l ->
        failed "%s%d %s, first: %s" prefix (List.length l) what
          (Format.asprintf "%a" pp v)
  in
  (* A crashed operation does not unwind the VM's critical section: the
     process is dead mid-mutation with range locks held. The kernel-side
     recovery ([R.reap] on the crashed core) backs out the half-done
     mutation, force-releases the dead process's locks, and reclaims its
     frames; siblings must come through untouched, which is asserted
     right here, at the most adversarial moment. *)
  let run_op op =
    match exec op with
    | () -> ()
    | exception Fault.Injected_crash { op = fop; point } -> (
        match op_actor op with
        | None -> ()
        | Some (pid, cid) -> (
            incr n_crashed;
            out "crash: c%d p%d died in %s@%s; reaped" (norm_core cid) pid fop
              point;
            match find_proc pid with
            | None -> ()
            | Some p ->
                procs := List.filter (fun q -> q.id <> pid) !procs;
                R.reap p.vm (core_of cid);
                (match checker with
                | None -> ()
                | Some ck ->
                    findings (Printf.sprintf "reap of p%d left " pid)
                      "leaked locks" Check.pp_leaked_lock
                      (Check.leaked_locks ck));
                check_invariants "post-reap "))
  in
  (* --- the stream --- *)
  let ops_acc = ref [] in
  let record op = ops_acc := op :: !ops_acc in
  let gen_op () =
    let core = rand_core () in
    let p = rand_proc () in
    let c = core.Core.id and pid = p.id in
    match Random.State.int rng 100 with
    | r when r < 18 ->
        let lo, len = rand_range () in
        Mmap { p = pid; c; lo; len; ro = Random.State.int rng 100 < 15 }
    | r when r < 32 ->
        let lo, len = rand_range () in
        Munmap { p = pid; c; lo; len }
    | r when r < 40 ->
        let lo, len = rand_range () in
        Mprotect { p = pid; c; lo; len; ro = Random.State.int rng 2 = 0 }
    | r when r < 62 ->
        let vpn = rand_vpn p in
        let value = 1 + Random.State.int rng 1_000_000 in
        Store { p = pid; c; vpn; value }
    | r when r < 76 -> Load { p = pid; c; vpn = rand_vpn p }
    | r when r < 84 -> Touch { p = pid; c; vpn = rand_vpn p }
    | r when r < 88 -> Discard { p = pid; c }
    | r when r < 94 ->
        if List.length !procs < max_procs then begin
          let child = !next_id in
          incr next_id;
          Fork { p = pid; c; child }
        end
        else Nop
    | _ -> (
        match !procs with
        | _ :: rest when rest <> [] ->
            let idx = 1 + Random.State.int rng (List.length rest) in
            let victim = List.nth !procs idx in
            Exit { c; victim = victim.id }
        | _ -> Nop)
  in
  let counted = ref 0 in
  let generating = match src with Gen _ -> true | Rep _ -> false in
  let step op =
    if generating then record op;
    run_op op;
    (match checker with Some ck -> Check.feed_watchdog ck | None -> ());
    if counted_op op then begin
      incr counted;
      if !counted mod 97 = 0 then begin
        Machine.drain machine ~cycles:epoch;
        (* Cross-node spawn injections land here, right after the drain:
           the fuzzer's barrier points. Replay needs no hook — injected
           ops are recorded like any other, at exactly this position. *)
        List.iter
          (fun sp ->
            if generating then record sp;
            run_op sp)
          (inject (!counted / 97))
      end;
      if !counted mod 128 = 0 then check_invariants ""
    end;
    (* A crash that killed the last process leaves nothing to fuzz:
       spawn a fresh one and record it so replay recreates it at exactly
       this position (Spawn does not advance the drain counter). *)
    if generating && !procs = [] then begin
      let id = !next_id in
      incr next_id;
      let sp = Spawn { id } in
      record sp;
      run_op sp
    end
  in
  let livelocked = ref false in
  let abandoned = ref false in
  (match src with
  | Rep { fail_fast = true; _ } -> ff_armed := true
  | _ -> ());
  (try
     match src with
     | Gen _ ->
         for _ = 1 to cfg.ops do
           step (gen_op ())
         done
     | Rep { prog; _ } -> List.iter step prog.pr_ops
   with
  | Failed_fast ->
      ff_armed := false;
      abandoned := true;
      out "abandoned: fail-fast after first failure"
  | Check.Livelock { elapsed; horizon; dump } ->
      ff_armed := false;
      livelocked := true;
      failed "livelock: no operation retired within %d simulated cycles \
              (elapsed %d)" horizon elapsed;
      out "held locks at livelock:";
      out "%s"
        (let n = String.length dump in
         if n > 0 && dump.[n - 1] = '\n' then String.sub dump 0 (n - 1)
         else dump));
  ff_armed := false;
  (match checker with Some ck -> Check.disarm_watchdog ck | None -> ());
  (* --- teardown: everything must come back --- *)
  if (not !livelocked) && not !abandoned then begin
    check_invariants "final ";
    let core0 = Machine.core machine 0 in
    List.iter (fun q -> R.destroy q.vm core0) !procs;
    procs := [];
    Machine.drain machine ~cycles:(8 * epoch);
    Machine.drain machine ~cycles:(8 * epoch);
    let live = Physmem.live_frames (Machine.physmem machine) in
    if live <> 0 then failed "%d frames leaked after teardown" live;
    match checker with
    | None -> ()
    | Some ck ->
        out "checker: %d line accesses observed" (Check.accesses ck);
        findings "" "stale-TLB violations" Check.pp_tlb_violation
          (Check.tlb_violations ck);
        findings "" "refcount violations" Check.pp_rc_violation
          (Check.rc_violations ck);
        findings "" "leaked locks" Check.pp_leaked_lock (Check.leaked_locks ck);
        findings "" "lock-order cycles" Check.pp_cycle (Check.cycles ck)
  end;
  out "summary: ok=%d segv=%d enomem=%d aborted=%d oom=%d%s%s" !n_ok !n_segv
    !n_enomem !n_aborted !n_oomr
    (if spec.ps_crashes <> [] then Printf.sprintf " reaped=%d" !n_crashed
     else "")
    (if !n_skipped > 0 then Printf.sprintf " skipped=%d" !n_skipped else "");
  out "injected: oom=%d aborts=%d ipi_delays=%d ipi_abandoned=%d \
       shootdown_retries=%d%s"
    (Fault.injected_oom plan)
    (Fault.injected_aborts plan)
    (Fault.ipi_delays plan) (Fault.ipi_abandoned plan)
    (Machine.stats machine).Stats.shootdown_retries
    (if spec.ps_crashes <> [] then
       Printf.sprintf " crashes=%d" (Fault.injected_crashes plan)
     else "");
  out "frames: live=%d (budget %s)"
    (Physmem.live_frames (Machine.physmem machine))
    budget_str;
  let failures = List.rev !failures in
  out "verdict: %s" (if failures = [] then "PASS" else "FAIL");
  let program =
    match src with
    | Rep { prog; _ } -> prog
    | Gen _ ->
        {
          pr_seed = cfg.seed;
          pr_ncores = cfg.ncores;
          pr_check = cfg.check;
          pr_broken = cfg.broken;
          pr_rangelock = cfg.rangelock;
          pr_watchdog = cfg.watchdog;
          pr_plan = spec;
          pr_ops = List.rev !ops_acc;
        }
  in
  {
    transcript = Buffer.contents buf;
    passed = failures = [];
    failures;
    crashes = !n_crashed;
    livelocked = !livelocked;
    program;
  }

let run_session cfg = session (Gen cfg)

let run_program ?(verbose = false) prog =
  session (Rep { prog; verbose; fail_fast = false })

(* --- sharded worlds: [nodes] per-node sessions coupled by a static
   cross-node spawn schedule (the fuzzer's analogue of the epoch-batched
   fork/reap traffic in Harness.Shard). The schedule is drawn from
   dedicated per-node rngs before any session runs, so it — and
   therefore every node's transcript — is a pure function of the world
   seed and node count. [jobs] only maps node sessions onto host
   domains; no byte of the outcome depends on it. --- *)

type world_outcome = {
  w_transcript : string;
  w_passed : bool;
  w_failures : string list;
  w_spawns : int;
  w_outcomes : outcome list;
}

let node_seed ~seed n = seed + (7919 * n)

(* Each node's rng decides, per barrier index, whether it asks the next
   node to spawn a fresh process there — executed on the destination as
   an ordinary [Spawn] op at that barrier, which replay reproduces from
   the recorded program alone. *)
let world_schedule ~seed ~nodes ~ops =
  let barriers = ops / 97 in
  let per_dst = Array.make nodes [] in
  let all = ref [] in
  for n = 0 to nodes - 1 do
    let rng = Random.State.make [| 0x5a7d; seed; n |] in
    for b = 1 to barriers do
      if nodes > 1 && Random.State.int rng 3 = 0 then begin
        let dst = (n + 1) mod nodes in
        let id = 1000 + (100 * n) + b in
        per_dst.(dst) <- (b, id, n) :: per_dst.(dst);
        all := (b, n, dst, id) :: !all
      end
    done
  done;
  (Array.map List.rev per_dst, List.sort compare !all)

let run_world ?jobs ~nodes cfg =
  if nodes < 1 then invalid_arg "Fuzz.run_world: nodes must be at least 1";
  let cfg = { cfg with ops = max 1 cfg.ops; ncores = max 2 cfg.ncores } in
  let per_dst, all = world_schedule ~seed:cfg.seed ~nodes ~ops:cfg.ops in
  let outcomes =
    Harness.Pool.run ?jobs
      (List.init nodes (fun n ->
           let sched = per_dst.(n) in
           let inject b =
             List.filter_map
               (fun (bb, id, _src) ->
                 if bb = b then Some (Spawn { id }) else None)
               sched
           in
           Harness.Pool.job
             ~name:(Printf.sprintf "fuzz-node-%d" n)
             (fun () ->
               session ~inject
                 (Gen { cfg with seed = node_seed ~seed:cfg.seed n }))))
  in
  (* The world transcript deliberately never mentions the pool width:
     widths 1/2/4 must render the same bytes (golden-pinned). *)
  let buf = Buffer.create 8192 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "world: seed=%d nodes=%d ops=%d cores=%d xspawns=%d" cfg.seed nodes
    cfg.ops cfg.ncores (List.length all);
  List.iter
    (fun (b, src, dst, id) ->
      line "xshard: @%d node%d -> node%d spawn p%d" b src dst id)
    all;
  let failures = ref [] in
  List.iteri
    (fun n (o : outcome) ->
      line "--- node %d seed=%d ---" n (node_seed ~seed:cfg.seed n);
      Buffer.add_string buf o.transcript;
      failures :=
        !failures @ List.map (Printf.sprintf "node %d: %s" n) o.failures)
    outcomes;
  let passed = !failures = [] in
  line "world verdict: %s (%d/%d nodes)"
    (if passed then "PASS" else "FAIL")
    (List.length (List.filter (fun (o : outcome) -> o.passed) outcomes))
    nodes;
  {
    w_transcript = Buffer.contents buf;
    w_passed = passed;
    w_failures = !failures;
    w_spawns = List.length all;
    w_outcomes = outcomes;
  }

(* --- serialization: a repro file is a line-oriented program, terminated
   by "end" so a transcript can ride along after it --- *)

let op_line = function
  | Nop -> "op nop"
  | Mmap { p; c; lo; len; ro } ->
      Printf.sprintf "op mmap %d %d %d %d %b" p c lo len ro
  | Munmap { p; c; lo; len } ->
      Printf.sprintf "op munmap %d %d %d %d" p c lo len
  | Mprotect { p; c; lo; len; ro } ->
      Printf.sprintf "op mprotect %d %d %d %d %b" p c lo len ro
  | Store { p; c; vpn; value } ->
      Printf.sprintf "op store %d %d %d %d" p c vpn value
  | Load { p; c; vpn } -> Printf.sprintf "op load %d %d %d" p c vpn
  | Touch { p; c; vpn } -> Printf.sprintf "op touch %d %d %d" p c vpn
  | Discard { p; c } -> Printf.sprintf "op discard %d %d" p c
  | Fork { p; c; child } -> Printf.sprintf "op fork %d %d %d" p c child
  | Exit { c; victim } -> Printf.sprintf "op exit %d %d" c victim
  | Spawn { id } -> Printf.sprintf "op spawn %d" id

(* %h hex floats round-trip probabilities losslessly (float_of_string
   reads them back bit-exact), so serializing a program never perturbs
   the plan's rng-driven firing decisions. Pinned in lint.allow as an
   audited float-format site. *)
let rule_line kw r =
  Printf.sprintf "%s %s %s %h" kw r.rs_op
    (match r.rs_point with None -> "*" | Some pt -> pt)
    r.rs_prob

let program_to_string prog =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# radixvm-fuzz repro v1";
  line "seed %d" prog.pr_seed;
  line "cores %d" prog.pr_ncores;
  line "check %b" prog.pr_check;
  line "broken %b" prog.pr_broken;
  line "rangelock %s" (Locks.Range_lock.name prog.pr_rangelock);
  (match prog.pr_watchdog with
  | Some h -> line "watchdog %d" h
  | None -> ());
  (match prog.pr_plan.ps_budget with
  | Some n -> line "budget %d" n
  | None -> ());
  List.iter (fun (c, cy) -> line "delay %d %d" c cy) prog.pr_plan.ps_delayed;
  List.iter (fun c -> line "stall %d" c) prog.pr_plan.ps_stalled;
  List.iter (fun r -> line "%s" (rule_line "abort" r)) prog.pr_plan.ps_aborts;
  List.iter (fun r -> line "%s" (rule_line "crash" r)) prog.pr_plan.ps_crashes;
  List.iter (fun op -> line "%s" (op_line op)) prog.pr_ops;
  line "end";
  Buffer.contents b

exception Parse_error of string

let program_of_string s =
  let seed = ref 0
  and cores = ref 2
  and check = ref true
  and broken = ref false in
  let rangelock = ref Locks.Range_lock.Radix_embedded in
  let watchdog = ref None
  and budget = ref None in
  let delayed = ref []
  and stalled = ref []
  and aborts = ref []
  and crashes = ref []
  and ops = ref [] in
  let seen_end = ref false in
  let ln = ref 0 in
  try
    List.iter
      (fun raw ->
        incr ln;
        if not !seen_end then begin
          let lineTxt = String.trim raw in
          if lineTxt = "" || lineTxt.[0] = '#' then ()
          else begin
            let fail msg =
              raise (Parse_error (Printf.sprintf "line %d: %s" !ln msg))
            in
            let int w =
              match int_of_string_opt w with
              | Some v -> v
              | None -> fail ("bad integer " ^ w)
            in
            let bool w =
              match bool_of_string_opt w with
              | Some v -> v
              | None -> fail ("bad boolean " ^ w)
            in
            let prob w =
              match float_of_string_opt w with
              | Some v when v >= 0.0 && v <= 1.0 -> v
              | Some _ -> fail ("probability out of [0,1]: " ^ w)
              | None -> fail ("bad probability " ^ w)
            in
            let point = function "*" -> None | pt -> Some pt in
            let parse_op = function
              | [ "nop" ] -> Nop
              | [ "mmap"; p; c; lo; len; ro ] ->
                  Mmap
                    { p = int p; c = int c; lo = int lo; len = int len;
                      ro = bool ro }
              | [ "munmap"; p; c; lo; len ] ->
                  Munmap { p = int p; c = int c; lo = int lo; len = int len }
              | [ "mprotect"; p; c; lo; len; ro ] ->
                  Mprotect
                    { p = int p; c = int c; lo = int lo; len = int len;
                      ro = bool ro }
              | [ "store"; p; c; vpn; value ] ->
                  Store { p = int p; c = int c; vpn = int vpn;
                          value = int value }
              | [ "load"; p; c; vpn ] ->
                  Load { p = int p; c = int c; vpn = int vpn }
              | [ "touch"; p; c; vpn ] ->
                  Touch { p = int p; c = int c; vpn = int vpn }
              | [ "discard"; p; c ] -> Discard { p = int p; c = int c }
              | [ "fork"; p; c; child ] ->
                  Fork { p = int p; c = int c; child = int child }
              | [ "exit"; c; victim ] ->
                  Exit { c = int c; victim = int victim }
              | [ "spawn"; id ] -> Spawn { id = int id }
              | w :: _ -> fail ("unknown op " ^ w)
              | [] -> fail "empty op"
            in
            let words =
              List.filter (fun w -> w <> "")
                (String.split_on_char ' ' lineTxt)
            in
            match words with
            | [ "end" ] -> seen_end := true
            | [ "seed"; v ] -> seed := int v
            | [ "cores"; v ] -> cores := int v
            | [ "check"; v ] -> check := bool v
            | [ "broken"; v ] -> broken := bool v
            | [ "rangelock"; v ] -> (
                match Locks.Range_lock.of_string v with
                | Ok k -> rangelock := k
                | Error e -> fail e)
            | [ "watchdog"; v ] -> watchdog := Some (int v)
            | [ "budget"; v ] -> budget := Some (int v)
            | [ "delay"; c; cy ] -> delayed := (int c, int cy) :: !delayed
            | [ "stall"; c ] -> stalled := int c :: !stalled
            | [ "abort"; op; pt; pr ] ->
                aborts :=
                  { rs_op = op; rs_point = point pt; rs_prob = prob pr }
                  :: !aborts
            | [ "crash"; op; pt; pr ] ->
                crashes :=
                  { rs_op = op; rs_point = point pt; rs_prob = prob pr }
                  :: !crashes
            | "op" :: rest -> ops := parse_op rest :: !ops
            | _ -> fail ("unrecognized line: " ^ lineTxt)
          end
        end)
      (String.split_on_char '\n' s);
    if not !seen_end then raise (Parse_error "missing \"end\" line");
    Ok
      {
        pr_seed = !seed;
        pr_ncores = !cores;
        pr_check = !check;
        pr_broken = !broken;
        pr_rangelock = !rangelock;
        pr_watchdog = !watchdog;
        pr_plan =
          {
            ps_budget = !budget;
            ps_delayed = List.rev !delayed;
            ps_stalled = List.rev !stalled;
            ps_aborts = List.rev !aborts;
            ps_crashes = List.rev !crashes;
          };
        pr_ops = List.rev !ops;
      }
  with Parse_error msg -> Error msg

(* The parser stops at "end", so the failing transcript rides along as a
   human-readable appendix. *)
let write_artifact path o =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (program_to_string o.program);
      output_string oc "\n# --- failing transcript ---\n";
      String.split_on_char '\n' o.transcript
      |> List.iter (fun l -> output_string oc ("# " ^ l ^ "\n")))

(* --- the shrinker: delta-debug a failing program to a minimal
   reproducer. Every candidate is judged by actually replaying it
   ([run_program]), so the result is guaranteed to still fail; every
   reduction pass is a deterministic function of the input program, so
   shrinking the same failure twice yields the same reproducer. --- *)

let known_points = [ "locked"; "cleared"; "filled" ]

let shrink ?(log = fun (_ : string) -> ()) prog0 =
  (* Candidate runs abandon the op stream at the first failure: whether a
     candidate fails is unchanged (the failure is recorded before the
     abandon, and a candidate that reaches teardown runs it in full), but
     pathological candidates — e.g. probability-1.0 abort rules under
     broken rollback, whose leaked locks make the checker's lock-order
     graph quadratic — stop costing a full session each. *)
  let fails p =
    not (session (Rep { prog = p; verbose = false; fail_fast = true })).passed
  in
  if not (fails prog0) then
    Error "program does not fail; nothing to shrink"
  else begin
    let current = ref prog0 in
    let try_keep cand =
      if fails cand then begin
        current := cand;
        true
      end
      else false
    in
    (* 1. Strip fault-plan entries the failure does not depend on: the
       budget, then each entry of the original plan's lists, in order. *)
    let strip_plan () =
      let with_plan p pl = { p with pr_plan = pl } in
      (match !current.pr_plan.ps_budget with
      | None -> ()
      | Some _ ->
          let p = !current in
          ignore
            (try_keep (with_plan p { p.pr_plan with ps_budget = None })));
      let strip get set =
        List.iter
          (fun x ->
            let p = !current in
            if List.mem x (get p.pr_plan) then
              ignore
                (try_keep
                   (with_plan p
                      (set p.pr_plan
                         (List.filter (fun y -> y <> x) (get p.pr_plan))))))
          (get prog0.pr_plan)
      in
      strip (fun pl -> pl.ps_delayed) (fun pl l -> { pl with ps_delayed = l });
      strip (fun pl -> pl.ps_stalled) (fun pl l -> { pl with ps_stalled = l });
      strip (fun pl -> pl.ps_aborts) (fun pl l -> { pl with ps_aborts = l });
      strip (fun pl -> pl.ps_crashes) (fun pl l -> { pl with ps_crashes = l })
    in
    (* 2. Pin surviving probabilistic rules to a deterministic form:
       point-specific, probability 1.0. Once a rule is certain, the
       failure no longer depends on the plan rng's mood and the op-level
       ddmin below converges to a tiny stream. *)
    let pin_rules () =
      let pin get set =
        let n = List.length (get !current.pr_plan) in
        for idx = 0 to n - 1 do
          let r = List.nth (get !current.pr_plan) idx in
          if r.rs_prob < 1.0 || r.rs_point = None then begin
            let candidates =
              List.map
                (fun pt -> { r with rs_point = Some pt; rs_prob = 1.0 })
                (match r.rs_point with
                | Some pt -> [ pt ]
                | None -> known_points)
              @ [ { r with rs_prob = 1.0 } ]
            in
            ignore
              (List.exists
                 (fun r' ->
                   let p = !current in
                   let rules =
                     List.mapi
                       (fun i x -> if i = idx then r' else x)
                       (get p.pr_plan)
                   in
                   try_keep { p with pr_plan = set p.pr_plan rules })
                 candidates)
          end
        done
      in
      pin (fun pl -> pl.ps_aborts) (fun pl rs -> { pl with ps_aborts = rs });
      pin (fun pl -> pl.ps_crashes) (fun pl rs -> { pl with ps_crashes = rs })
    in
    (* 3. ddmin over the op stream (complement reduction): drop chunks of
       ops while the program still fails; terminates 1-minimal. *)
    let ddmin_ops () =
      let test ops = fails { !current with pr_ops = ops } in
      let rec go ops n =
        let len = List.length ops in
        if len <= 1 then ops
        else begin
          let n = min n len in
          let complement i =
            List.filteri
              (fun j _ -> j < i * len / n || j >= (i + 1) * len / n)
              ops
          in
          let rec first i =
            if i >= n then None
            else
              let c = complement i in
              if List.length c < len && test c then Some c else first (i + 1)
          in
          match first 0 with
          | Some c -> go c (max (n - 1) 2)
          | None -> if n < len then go ops (min (2 * n) len) else ops
        end
      in
      let reduced = go !current.pr_ops 2 in
      if List.length reduced < List.length !current.pr_ops then
        current := { !current with pr_ops = reduced }
    in
    (* 4. Fewer cores: op core ids are taken mod the core count at
       execution time, so only the plan's per-core entries need
       filtering. *)
    let reduce_cores () =
      let p = !current in
      let rec try_n k =
        if k >= p.pr_ncores then ()
        else if
          try_keep
            {
              p with
              pr_ncores = k;
              pr_plan =
                {
                  p.pr_plan with
                  ps_delayed =
                    List.filter (fun (c, _) -> c < k) p.pr_plan.ps_delayed;
                  ps_stalled =
                    List.filter (fun c -> c < k) p.pr_plan.ps_stalled;
                };
            }
        then ()
        else try_n (k + 1)
      in
      try_n 2
    in
    let describe p =
      Printf.sprintf "%d ops, %d plan entries, %d cores"
        (List.length p.pr_ops)
        ((match p.pr_plan.ps_budget with Some _ -> 1 | None -> 0)
        + List.length p.pr_plan.ps_delayed
        + List.length p.pr_plan.ps_stalled
        + List.length p.pr_plan.ps_aborts
        + List.length p.pr_plan.ps_crashes)
        p.pr_ncores
    in
    log (Printf.sprintf "shrink: start: %s" (describe prog0));
    let rec rounds i =
      let before = !current in
      strip_plan ();
      pin_rules ();
      ddmin_ops ();
      reduce_cores ();
      log (Printf.sprintf "shrink: round %d: %s" i (describe !current));
      if i < 5 && !current <> before then rounds (i + 1)
    in
    rounds 1;
    Ok !current
  end
