(* Tests for the fault-injection layer: each injected fault kind at its
   source (frame budget, perturbed IPI acknowledgment, mid-operation
   aborts), graceful degradation through the VM stack and the kernel's
   errno surface, the known-bad rollback escape hatch (the leak checkers
   must catch it), and the fuzzer's determinism and oracle. *)

open Ccsim
module T = Vm.Vm_types
module R = Vm.Radixvm.Default
module K = Os.Kernel

let epoch = 10_000

let machine ?(ncores = 4) () =
  Machine.create (Params.default ~ncores ~epoch_cycles:epoch ())

let plan_on ?(seed = 0) m =
  let p = Fault.create ~seed () in
  Machine.set_fault m (Some p);
  p

let live m = Physmem.live_frames (Machine.physmem m)

let access_t = Alcotest.testable T.pp_access_result ( = )
let vm_error_t = Alcotest.testable T.pp_vm_error ( = )
let result_vm = Alcotest.(result access_t vm_error_t)

let pp_result_vm ppf = function
  | Ok a -> T.pp_access_result ppf a
  | Error e -> T.pp_vm_error ppf e

(* ------------------------------------------------------------------ *)
(* Physmem: frame budget and double-free                               *)

let test_frame_budget () =
  let m = machine () in
  let plan = plan_on m in
  let pm = Machine.physmem m and c0 = Machine.core m 0 in
  Fault.set_frame_budget plan (Some 2);
  let f0 = Physmem.alloc pm c0 in
  let f1 = Physmem.alloc pm c0 in
  (match Physmem.alloc pm c0 with
  | _ -> Alcotest.fail "third alloc under a budget of 2 succeeded"
  | exception Physmem.Out_of_frames -> ());
  Alcotest.(check (option int)) "try_alloc refuses" None (Physmem.try_alloc pm c0);
  Alcotest.(check int) "refusals counted" 2 (Fault.injected_oom plan);
  (* The budget caps live frames, not total allocations: freeing makes
     room. *)
  Physmem.free pm c0 f0;
  let f2 = Physmem.alloc pm c0 in
  Alcotest.(check int) "still two live" 2 (live m);
  (* Lifting the budget restores unbounded memory. *)
  Fault.set_frame_budget plan None;
  let f3 = Physmem.alloc pm c0 in
  List.iter (Physmem.free pm c0) [ f1; f2; f3 ];
  Alcotest.(check int) "all returned" 0 (live m)

let test_double_free_detected () =
  let m = machine () in
  let pm = Machine.physmem m and c0 = Machine.core m 0 in
  let f = Physmem.alloc pm c0 in
  Physmem.free pm c0 f;
  (match Physmem.free pm c0 f with
  | () -> Alcotest.fail "double free not detected"
  | exception Physmem.Double_free g ->
      Alcotest.(check int) "names the frame" f g);
  match Physmem.free pm c0 424242 with
  | () -> Alcotest.fail "free of never-allocated frame not detected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* IPI delay / stall under shootdowns                                  *)

(* Map a page, touch it on two cores (so both TLBs hold the translation),
   then unmap on core 0 — the shootdown must interrupt core 1. *)
let shootdown_under plan_cfg =
  let m = machine ~ncores:2 () in
  let chk = Check.attach m in
  let plan = plan_on m in
  plan_cfg plan;
  let vm = R.create m in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  (match T.trap (fun () -> R.mmap vm c0 ~vpn:5 ~npages:1 ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "mmap failed");
  Alcotest.(check result_vm) "touch c0" (Ok T.Ok)
    (T.trap (fun () -> R.touch vm c0 ~vpn:5));
  Alcotest.(check result_vm) "touch c1" (Ok T.Ok)
    (T.trap (fun () -> R.touch vm c1 ~vpn:5));
  (match T.trap (fun () -> R.munmap vm c0 ~vpn:5 ~npages:1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "munmap failed");
  Alcotest.(check bool) "unmapped" false (R.mapped vm ~vpn:5);
  R.destroy vm c0;
  Machine.drain m ~cycles:(4 * epoch);
  (* Perturbed acknowledgment is a timing fault only: the invalidations
     happened synchronously before the IPI, so the TLB mirror must stay
     coherent no matter how late (or never) the ack arrives. *)
  Alcotest.(check int) "no stale TLB entries" 0
    (List.length (Check.tlb_violations chk));
  Alcotest.(check int) "no leaked frames" 0 (live m);
  (m, plan)

let test_ipi_delay_forces_retry () =
  let m, plan =
    shootdown_under (fun plan ->
        (* Past ipi_ack_timeout (250k), within the retry budget. *)
        Fault.delay_ipi plan ~core:1 ~cycles:600_000)
  in
  Alcotest.(check bool) "delays recorded" true (Fault.ipi_delays plan > 0);
  Alcotest.(check bool)
    "sender retried" true
    ((Machine.stats m).Stats.shootdown_retries > 0);
  Alcotest.(check int) "nobody abandoned" 0 (Fault.ipi_abandoned plan)

(* The retry-exhaustion path: a stalled core exhausts the sender's retry
   budget, [ipi_abandoned] records the give-up, and — because the
   invalidations happened synchronously before the IPI — the abandoned
   target's TLB mirror stays coherent and no frame is stranded
   ([shootdown_under] asserts both after the drain). *)
let test_ipi_stall_abandoned () =
  let m, plan = shootdown_under (fun plan -> Fault.stall_ipi plan ~core:1) in
  Alcotest.(check bool)
    "sender retried before giving up" true
    ((Machine.stats m).Stats.shootdown_retries > 0);
  Alcotest.(check bool)
    "stalled target abandoned after the retry budget" true
    (Fault.ipi_abandoned plan > 0)

let test_ipi_prompt_keeps_legacy_timing () =
  let m, plan = shootdown_under (fun _ -> ()) in
  Alcotest.(check int) "no retries" 0 (Machine.stats m).Stats.shootdown_retries;
  Alcotest.(check int) "no delays" 0 (Fault.ipi_delays plan)

(* ------------------------------------------------------------------ *)
(* Mid-operation aborts: rollback makes the operation a no-op          *)

(* Every injection point each operation actually passes through. The
   graceful-abort test below runs the non-fork pairs (fork has its own),
   the crash-reap test further down all of them. *)
let crash_matrix =
  [
    ("mmap", [ "locked"; "cleared"; "filled" ]);
    ("munmap", [ "locked"; "cleared" ]);
    ("mprotect", [ "locked" ]);
    ("pagefault", [ "locked" ]);
    ("fork", [ "locked"; "demoted"; "copy"; "copied" ]);
  ]

(* Run the operation that reaches [op]'s injection points, against the
   setup both tests build ([10, 14) mapped, 11 stored): mmap maps over
   that range, so rolling it back must reinstate the displaced pages.
   [T.trap] catches aborts and Enomem only — a crash must propagate to
   the caller (the session driver playing kernel). *)
let run_victim op vm c0 =
  match op with
  | "mmap" -> T.trap (fun () -> R.mmap vm c0 ~vpn:10 ~npages:4 ())
  | "munmap" -> T.trap (fun () -> R.munmap vm c0 ~vpn:10 ~npages:4)
  | "mprotect" ->
      T.trap (fun () -> R.mprotect vm c0 ~vpn:10 ~npages:4 T.Read_only)
  | "pagefault" -> (
      match T.trap (fun () -> R.touch vm c0 ~vpn:13) with
      | Ok T.Ok -> Ok ()
      | Ok a -> Alcotest.failf "pagefault victim: %a" T.pp_access_result a
      | Error e -> Error e)
  | "fork" -> (
      match T.trap (fun () -> R.fork vm c0) with
      | Ok child -> Ok (R.destroy child c0)
      | Error e -> Error e)
  | _ -> assert false

let test_abort_rolls_back () =
  List.iter
    (fun (op, point) ->
      let name = op ^ "@" ^ point in
      let m = machine () in
      let chk = Check.attach m in
      let plan = plan_on m in
      let vm = R.create m in
      let c0 = Machine.core m 0 in
      (match T.trap (fun () -> R.mmap vm c0 ~vpn:10 ~npages:4 ()) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail (name ^ ": setup mmap failed"));
      Alcotest.(check result_vm) (name ^ ": store") (Ok T.Ok)
        (T.trap (fun () -> R.store vm c0 ~vpn:11 7));
      let frames_before = live m in
      Fault.abort_ops plan ~op ~point ~prob:1.0 ();
      (match run_victim op vm c0 with
      | Error (T.Aborted { op = o; point = p }) ->
          Alcotest.(check (pair string string)) (name ^ ": typed abort")
            (op, point) (o, p)
      | Error e -> Alcotest.failf "[%s] wrong error: %a" name T.pp_vm_error e
      | Ok () ->
          Alcotest.failf "[%s] abort at probability 1.0 did not fire" name);
      Machine.set_fault m None;
      (* The failed operation must be a perfect no-op: the range still
         mapped and writable, the value intact, no frame leaked or
         dropped, the tree consistent and every range lock released. *)
      for vpn = 10 to 13 do
        Alcotest.(check bool) (Printf.sprintf "%s: %d still mapped" name vpn)
          true (R.mapped vm ~vpn)
      done;
      Alcotest.(check (result (option int) vm_error_t))
        (name ^ ": value survived")
        (Ok (Some 7))
        (T.trap (fun () -> R.load vm c0 ~vpn:11));
      Alcotest.(check result_vm) (name ^ ": still writable") (Ok T.Ok)
        (T.trap (fun () -> R.store vm c0 ~vpn:11 7));
      Alcotest.(check int) (name ^ ": no frames leaked or dropped")
        frames_before (live m);
      R.check_invariants vm;
      Alcotest.(check int) (name ^ ": range locks released") 0
        (List.length (Check.leaked_locks chk));
      (* With the plan detached the same operation goes through and takes
         effect. *)
      (match run_victim op vm c0 with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "[%s] retry after detach failed: %a" name
            T.pp_vm_error e);
      let load vpn = T.trap (fun () -> R.load vm c0 ~vpn) in
      let value_t = Alcotest.(result (option int) vm_error_t) in
      match op with
      | "mmap" ->
          for vpn = 10 to 13 do
            Alcotest.(check bool) (Printf.sprintf "%s: %d remapped" name vpn)
              true (R.mapped vm ~vpn)
          done;
          Alcotest.(check value_t) (name ^ ": fresh page reads zero")
            (Ok (Some 0)) (load 11)
      | "munmap" ->
          for vpn = 10 to 13 do
            Alcotest.(check bool) (Printf.sprintf "%s: %d now unmapped" name vpn)
              false (R.mapped vm ~vpn)
          done
      | "mprotect" ->
          Alcotest.(check value_t) (name ^ ": still readable") (Ok (Some 7))
            (load 11);
          Alcotest.(check result_vm) (name ^ ": now read-only")
            (Ok T.Segfault)
            (T.trap (fun () -> R.store vm c0 ~vpn:11 9))
      | "pagefault" ->
          Alcotest.(check int) (name ^ ": fault took a frame")
            (frames_before + 1) (live m);
          Alcotest.(check value_t) (name ^ ": faulted page loadable")
            (Ok (Some 0)) (load 13)
      | _ -> assert false)
    (List.concat_map
       (fun (op, points) ->
         if op = "fork" then [] else List.map (fun p -> (op, p)) points)
       crash_matrix)

(* fork has the longest failure path in the VM: by the time it aborts it
   may have demoted the parent's writable pages to COW, taken per-page
   frame references for the child, and built part of the child's tree.
   Abort at each point and require a perfect no-op on the parent — COW
   demotions undone (a write must not fault a copy), both trees' range
   locks released, the half-built child torn down with its frame
   references returned — and that the same fork succeeds once the plan
   is detached. *)
let test_fork_abort_rolls_back () =
  List.iter
    (fun point ->
      let m = machine () in
      let chk = Check.attach m in
      let plan = plan_on m in
      let vm = R.create m in
      let c0 = Machine.core m 0 in
      (match T.trap (fun () -> R.mmap vm c0 ~vpn:10 ~npages:4 ()) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "setup mmap failed");
      (* Populate two pages so the demote pass has real work to undo. *)
      Alcotest.(check result_vm) "store" (Ok T.Ok)
        (T.trap (fun () -> R.store vm c0 ~vpn:11 7));
      Alcotest.(check result_vm) "touch" (Ok T.Ok)
        (T.trap (fun () -> R.touch vm c0 ~vpn:12));
      let frames_before = live m in
      Fault.abort_ops plan ~op:"fork" ~point ~prob:1.0 ();
      (match T.trap (fun () -> R.fork vm c0) with
      | Error (T.Aborted { op = "fork"; point = p }) ->
          Alcotest.(check string) (point ^ ": typed abort") point p
      | Error e -> Alcotest.failf "[%s] wrong error: %a" point T.pp_vm_error e
      | Ok _ -> Alcotest.failf "[%s] abort at probability 1.0 did not fire" point);
      Alcotest.(check bool) (point ^ ": still mapped") true (R.mapped vm ~vpn:10);
      Alcotest.(check (result (option int) vm_error_t))
        (point ^ ": value survived")
        (Ok (Some 7))
        (T.trap (fun () -> R.load vm c0 ~vpn:11));
      (* The COW rollback check: were a demotion left behind, this write
         would fault a private copy and shift the frame count. *)
      Alcotest.(check result_vm) (point ^ ": write-after-rollback") (Ok T.Ok)
        (T.trap (fun () -> R.store vm c0 ~vpn:12 9));
      Alcotest.(check int) (point ^ ": frames balanced") frames_before (live m);
      R.check_invariants vm;
      Alcotest.(check int) (point ^ ": range locks released") 0
        (List.length (Check.leaked_locks chk));
      (* With the plan detached the same fork goes through, and the child
         really shares the parent's pages. *)
      Machine.set_fault m None;
      (match T.trap (fun () -> R.fork vm c0) with
      | Ok child ->
          Alcotest.(check (result (option int) vm_error_t))
            (point ^ ": child sees value")
            (Ok (Some 7))
            (T.trap (fun () -> R.load child c0 ~vpn:11));
          R.destroy child c0
      | Error e ->
          Alcotest.failf "[%s] fork after detach failed: %a" point
            T.pp_vm_error e);
      R.destroy vm c0;
      Machine.drain m ~cycles:(4 * epoch);
      Alcotest.(check int) (point ^ ": all frames freed") 0 (live m);
      Alcotest.(check int) (point ^ ": refcount ledger clean") 0
        (List.length (Check.rc_violations chk)))
    [ "locked"; "demoted"; "copy"; "copied" ]

let test_frame_exhaustion_degrades () =
  let m = machine () in
  let plan = plan_on m in
  let vm = R.create m in
  let c0 = Machine.core m 0 in
  (match T.trap (fun () -> R.mmap vm c0 ~vpn:0 ~npages:8 ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "setup mmap failed");
  (* Demand-zero pages allocate on first touch: freeze the budget at the
     current live count and every populate path must degrade, typed. *)
  Fault.set_frame_budget plan (Some (live m));
  (match T.trap (fun () -> R.touch vm c0 ~vpn:3) with
  | Error T.Enomem -> ()
  | r -> Alcotest.failf "touch: expected Enomem, got %a" pp_result_vm r);
  (match T.trap (fun () -> R.store vm c0 ~vpn:4 9) with
  | Error T.Enomem -> ()
  | r -> Alcotest.failf "store: expected Enomem, got %a" pp_result_vm r);
  R.check_invariants vm;
  (* Pressure relieved: the same accesses succeed. *)
  Fault.set_frame_budget plan None;
  Alcotest.(check result_vm) "touch after relief" (Ok T.Ok)
    (T.trap (fun () -> R.touch vm c0 ~vpn:3));
  Alcotest.(check result_vm) "store after relief" (Ok T.Ok)
    (T.trap (fun () -> R.store vm c0 ~vpn:4 9))

(* ------------------------------------------------------------------ *)
(* Kernel errno surface                                                *)

let test_kernel_enomem () =
  let m = machine () in
  let k = K.boot m in
  let p = K.init_process k in
  let c0 = Machine.core m 0 in
  let plan = plan_on m in
  Fault.set_frame_budget plan (Some (live m));
  (match
     K.sys_mmap k c0 p ~vpn:K.heap_base ~npages:4 ~populate:true ()
   with
  | Error K.ENOMEM -> ()
  | Ok () -> Alcotest.fail "populate under exhausted budget succeeded"
  | Error e -> Alcotest.failf "expected ENOMEM, got %s" (K.errno_to_string e));
  (* A user load the budget refuses is not a fatal fault. *)
  (match K.sys_mmap k c0 p ~vpn:K.heap_base ~npages:1 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lazy mmap failed: %s" (K.errno_to_string e));
  (match K.load_result k c0 p ~vpn:K.heap_base with
  | Error K.ENOMEM -> ()
  | Ok _ -> Alcotest.fail "load under exhausted budget did not report ENOMEM"
  | Error e -> Alcotest.failf "expected ENOMEM, got %s" (K.errno_to_string e));
  (match K.load_result k c0 p ~vpn:(K.heap_base + 1) with
  | Ok None -> ()
  | _ -> Alcotest.fail "load of an unmapped page is not a fatal fault");
  Fault.set_frame_budget plan None;
  match K.sys_mmap k c0 p ~vpn:K.heap_base ~npages:4 ~populate:true () with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "mmap after relief failed: %s" (K.errno_to_string e)

let test_kernel_efault_and_einval () =
  let m = machine () in
  let k = K.boot m in
  let p = K.init_process k in
  let c0 = Machine.core m 0 in
  (* Validation comes before mutation — and before fault injection. *)
  (match K.sys_mmap k c0 p ~vpn:(-3) ~npages:2 () with
  | Error K.EINVAL -> ()
  | _ -> Alcotest.fail "negative vpn accepted");
  let plan = plan_on m in
  Fault.abort_ops plan ~op:"mmap" ~prob:1.0 ();
  (match K.sys_mmap k c0 p ~vpn:K.heap_base ~npages:2 () with
  | Error K.EFAULT -> ()
  | Ok () -> Alcotest.fail "aborted mmap reported success"
  | Error e -> Alcotest.failf "expected EFAULT, got %s" (K.errno_to_string e));
  Alcotest.(check bool)
    "rolled back: range not mapped" false
    (R.mapped (K.vm p) ~vpn:K.heap_base)

let test_errno_to_string_total () =
  List.iter
    (fun e -> Alcotest.(check bool) "nonempty" true (K.errno_to_string e <> ""))
    [ K.EINVAL; K.ENOENT; K.ESRCH; K.ECHILD; K.ENOMEM; K.EFAULT ]

(* ------------------------------------------------------------------ *)
(* Known-bad mode: a skipped rollback must be caught                   *)

let test_broken_rollback_is_caught () =
  let m = machine () in
  let chk = Check.attach m in
  let plan = plan_on m in
  let vm = R.create m in
  let c0 = Machine.core m 0 in
  Fault.set_break_rollback plan true;
  Fault.abort_ops plan ~op:"mmap" ~point:"locked" ~prob:1.0 ();
  (match T.trap (fun () -> R.mmap vm c0 ~vpn:20 ~npages:3 ()) with
  | Error (T.Aborted _) -> ()
  | Ok () -> Alcotest.fail "abort did not fire"
  | Error e -> Alcotest.failf "wrong error: %a" T.pp_vm_error e);
  (* The range locks taken before the abort were never released — exactly
     what the leaked-lock checker exists to catch. *)
  Alcotest.(check bool)
    "leaked locks detected" true
    (Check.leaked_locks chk <> [])

let test_invariant_violation_is_typed () =
  let m = machine () in
  let plan = plan_on m in
  let vm = R.create m in
  let c0 = Machine.core m 0 in
  (match T.trap (fun () -> R.mmap vm c0 ~vpn:0 ~npages:2 ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "setup mmap failed");
  Fault.set_break_rollback plan true;
  Fault.abort_ops plan ~op:"munmap" ~point:"cleared" ~prob:1.0 ();
  (match T.trap (fun () -> R.munmap vm c0 ~vpn:0 ~npages:2) with
  | Error (T.Aborted _) -> ()
  | _ -> Alcotest.fail "abort did not fire");
  (* Half-applied munmap with no rollback: the tree's counts are wrong,
     and the verifier must say so as a typed, catchable error. *)
  match R.check_invariants vm with
  | () -> Alcotest.fail "corrupted tree passed check_invariants"
  | exception T.Invariant_violation { subsystem; _ } ->
      Alcotest.(check bool)
        "names a VM subsystem" true
        (List.mem subsystem [ "radix"; "radixvm" ])

(* ------------------------------------------------------------------ *)
(* Crash points: die mid-critical-section, reap, survivors stay clean  *)

(* For every range-lock backend and (operation, injection point): kill the
   process there with no unwinding, let [reap] repair the half-done
   mutation, and require a sibling process sharing the same Refcache /
   frame counters / page cache to stay fully operational — then a full
   teardown with zero leaked frames, locks, refcache entries, or stale TLB
   lines. *)
let test_crash_reap_survivors_clean () =
  List.iter
    (fun ((rangelock, op), points) ->
      List.iter
        (fun point ->
          let name =
            Printf.sprintf "%s/%s@%s" (Locks.Range_lock.name rangelock) op
              point
          in
          let m = machine () in
          let chk = Check.attach m in
          let plan = plan_on m in
          let vm = R.create_with ~rangelock m in
          let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
          (match T.trap (fun () -> R.mmap vm c0 ~vpn:10 ~npages:4 ()) with
          | Ok () -> ()
          | Error _ -> Alcotest.fail (name ^ ": setup mmap failed"));
          Alcotest.(check result_vm) (name ^ ": setup store") (Ok T.Ok)
            (T.trap (fun () -> R.store vm c0 ~vpn:11 7));
          Alcotest.(check result_vm) (name ^ ": setup touch") (Ok T.Ok)
            (T.trap (fun () -> R.touch vm c0 ~vpn:12));
          (* The survivor: forked before the crash, so it shares the
             refcounting layers and holds COW references to the victim's
             pages — exactly what reap must not disturb. *)
          let sib =
            match T.trap (fun () -> R.fork vm c0) with
            | Ok s -> s
            | Error e ->
                Alcotest.failf "[%s] setup fork failed: %a" name T.pp_vm_error e
          in
          Fault.crash_ops plan ~op ~point ~prob:1.0 ();
          (match run_victim op vm c0 with
          | exception Fault.Injected_crash { op = o; point = p } ->
              Alcotest.(check string) (name ^ ": crash names the op") op o;
              Alcotest.(check string) (name ^ ": crash names the point") point p
          | Ok () | Error _ ->
              Alcotest.failf "[%s] crash at probability 1.0 did not fire" name);
          Alcotest.(check int) (name ^ ": crash counted") 1
            (Fault.injected_crashes plan);
          Alcotest.(check bool) (name ^ ": repair stashed") true
            (R.crash_pending vm);
          (* The kernel notices the dead process. Detach the plan first:
             recovery and the survivor's later work must not re-crash. *)
          Machine.set_fault m None;
          R.reap vm c0;
          (* The dead process's range locks were force-released: nothing
             the crash held may linger. *)
          Alcotest.(check int) (name ^ ": no leaked locks after reap") 0
            (List.length (Check.leaked_locks chk));
          (* The sibling is oracle-clean and fully operational — reads the
             shared value, writes (breaking COW), maps and unmaps fresh
             ranges, and its tree passes the verifier. *)
          Alcotest.(check (result (option int) vm_error_t))
            (name ^ ": survivor reads shared value")
            (Ok (Some 7))
            (T.trap (fun () -> R.load sib c1 ~vpn:11));
          Alcotest.(check result_vm) (name ^ ": survivor writes") (Ok T.Ok)
            (T.trap (fun () -> R.store sib c1 ~vpn:12 9));
          (match T.trap (fun () -> R.mmap sib c1 ~vpn:50 ~npages:3 ()) with
          | Ok () -> ()
          | Error _ -> Alcotest.fail (name ^ ": survivor mmap failed"));
          Alcotest.(check result_vm) (name ^ ": survivor touches new range")
            (Ok T.Ok)
            (T.trap (fun () -> R.touch sib c1 ~vpn:51));
          (match T.trap (fun () -> R.munmap sib c1 ~vpn:50 ~npages:3) with
          | Ok () -> ()
          | Error _ -> Alcotest.fail (name ^ ": survivor munmap failed"));
          R.check_invariants sib;
          (* Full teardown: every frame and refcache entry drains. *)
          R.destroy sib c1;
          Machine.drain m ~cycles:(4 * epoch);
          Alcotest.(check int) (name ^ ": zero live frames") 0 (live m);
          Alcotest.(check int) (name ^ ": refcount ledger clean") 0
            (List.length (Check.rc_violations chk));
          Alcotest.(check int) (name ^ ": TLB mirror coherent") 0
            (List.length (Check.tlb_violations chk)))
        points)
    (List.concat_map
       (fun k -> List.map (fun (op, points) -> ((k, op), points)) crash_matrix)
       Locks.Range_lock.all)

(* ------------------------------------------------------------------ *)
(* Cache-serve session under faults                                    *)

(* The cache-serving oracle (test_workloads checks it fault-free) must
   also hold under injected faults: the model stays divergence-free, the
   crashed address spaces are reaped without disturbing siblings, and
   teardown still drains to zero frames with clean checker ledgers. *)

module CS = Workloads.Cache_serve

let run_faulted_session ?(via_kernel = false) ?(compact_every = 0) ~name ~ops
    ~arm_plan () =
  let plan = ref None and mref = ref None and chk = ref None in
  let o =
    CS.Session.run ~procs:3 ~slots:64 ~ops ~via_kernel ~compact_every
      ~on_machine:(fun m ->
        mref := Some m;
        chk := Some (Check.attach m);
        plan := Some (plan_on ~seed:11 m))
      ~arm:(fun () -> arm_plan (Option.get !plan) (Option.get !mref))
      ()
  in
  let m = Option.get !mref and chk = Option.get !chk in
  Alcotest.(check (list string)) (name ^ ": no divergences") []
    o.CS.Session.divergences;
  Alcotest.(check int) (name ^ ": zero live frames after teardown") 0 (live m);
  Alcotest.(check int) (name ^ ": no leaked locks") 0
    (List.length (Check.leaked_locks chk));
  Alcotest.(check int) (name ^ ": refcount ledger clean") 0
    (List.length (Check.rc_violations chk));
  Alcotest.(check int) (name ^ ": TLB mirror coherent") 0
    (List.length (Check.tlb_violations chk));
  (o, Option.get !plan)

let shapes = [ ("direct", false); ("kernel", true) ]

(* The kernel shape must tell a refused load (frame exhaustion) from a
   fatal fault: refusals leave the model untouched, so under the same
   budget both shapes observe the same history. *)
let test_cacheserve_frame_budget () =
  let run (shape, via_kernel) =
    let name = "budget/" ^ shape in
    let o, _ =
      run_faulted_session ~via_kernel ~name ~ops:4_000
        ~arm_plan:(fun plan m ->
          (* Pin the budget just above what setup already holds: eviction
             sweeps free frames, so serving limps along instead of dying. *)
          let budget = Physmem.live_frames (Machine.physmem m) + 8 in
          Fault.set_frame_budget plan (Some budget))
        ()
    in
    Alcotest.(check bool) (name ^ ": refusals observed") true
      (o.CS.Session.enomem > 0);
    Alcotest.(check bool) (name ^ ": serving continued") true
      (o.CS.Session.hits > 0 && o.CS.Session.sets > 0);
    o
  in
  match List.map run shapes with
  | [ direct; kernel ] ->
      Alcotest.(check string) "budget: kernel history matches direct"
        direct.CS.Session.history kernel.CS.Session.history
  | _ -> assert false

(* Injected aborts roll their operation back: the sweep, compaction and
   heal steps retry them, and serving stays model-clean in both shapes,
   with and without whole-file compactions. At 0.05 the retries absorb
   every sweep abort, so the history is the fault-free one. Probabilities
   as in the crash matrix: mprotect runs only on slot resizes and heals,
   so it aborts often enough to leave slots stuck read-only. At 0.8 and
   0.9 the retries run out: remaps stay refused (loads heal, or are
   refused with their heal; a slot whose unmap and remap were both
   refused is tainted), and so do compactions. *)
let test_cacheserve_abort_matrix () =
  List.iter
    (fun (shape, via_kernel) ->
      List.iter
        (fun compact_every ->
          let run name arm_plan =
            run_faulted_session ~via_kernel ~compact_every ~ops:4_000
              ~name:(Printf.sprintf "%s/%s/compact %d" name shape compact_every)
              ~arm_plan ()
          in
          let clean, _ = run "fault-free" (fun _ _ -> ()) in
          List.iter
            (fun (ops, prob, transparent) ->
              let name =
                Printf.sprintf "abort %s@%g" (String.concat "+" ops) prob
              in
              let o, plan =
                run name (fun plan _m ->
                    List.iter (fun op -> Fault.abort_ops plan ~op ~prob ()) ops)
              in
              Alcotest.(check bool) (name ^ ": aborts injected") true
                (Fault.injected_aborts plan > 0);
              if transparent then
                Alcotest.(check string) (name ^ ": fault-free history")
                  clean.CS.Session.history o.CS.Session.history)
            [
              ([ "mmap" ], 0.05, true);
              ([ "mmap" ], 0.9, false);
              ([ "munmap" ], 0.05, true);
              ([ "munmap" ], 0.9, false);
              ([ "mprotect" ], 0.5, false);
              ([ "pagefault" ], 0.05, false);
              ([ "mmap"; "munmap"; "mprotect"; "pagefault" ], 0.8, false);
            ])
        [ 0; 1_000 ])
    shapes

let cacheserve_crash_matrix =
  (* (op, point, prob): probabilities tuned to how often the session
     reaches each op — mprotect only runs on slot resizes, pagefault on
     every cold access. *)
  [
    ("mmap", "locked", 0.05, false);
    ("munmap", "locked", 0.05, true);
    ("munmap", "cleared", 0.05, false);
    ("mprotect", "locked", 1.0, false);
    ("pagefault", "locked", 0.02, false);
  ]

let test_cacheserve_crash_matrix () =
  List.iter
    (fun (op, point, prob, want_served_after) ->
      let name = Printf.sprintf "%s@%s" op point in
      let o, _ =
        run_faulted_session ~name ~ops:3_000
          ~arm_plan:(fun plan _m -> Fault.crash_ops plan ~op ~point ~prob ())
          ()
      in
      Alcotest.(check bool) (name ^ ": at least one crash reaped") true
        (o.CS.Session.crashes_reaped >= 1);
      if want_served_after then
        Alcotest.(check bool) (name ^ ": siblings served after the crash")
          true o.CS.Session.served_after_crash)
    cacheserve_crash_matrix

(* ------------------------------------------------------------------ *)
(* Suppression: re-entrant and exception-safe                          *)

let test_with_suppressed_reentrant_exception_safe () =
  let m = machine () in
  let plan = plan_on m in
  Fault.abort_ops plan ~op:"mmap" ~point:"locked" ~prob:1.0 ();
  Fault.crash_ops plan ~op:"mmap" ~point:"locked" ~prob:1.0 ();
  let fires () =
    match Fault.abort_now plan ~op:"mmap" ~point:"locked" with
    | () -> false
    | exception (Fault.Injected_abort _ | Fault.Injected_crash _) -> true
  in
  Alcotest.(check bool) "armed outside" true (fires ());
  Fault.with_suppressed (Some plan) (fun () ->
      Alcotest.(check bool) "suppressed inside" true (Fault.suppressed plan);
      Alcotest.(check bool) "aborts and crashes held back" false (fires ());
      (* Re-entrancy: leaving a nested suppression must not re-arm the
         injectors while the outer one is still active. *)
      Fault.with_suppressed (Some plan) (fun () ->
          Alcotest.(check bool) "nested suppressed" true (Fault.suppressed plan));
      Alcotest.(check bool) "outer still suppressed after nested exit" true
        (Fault.suppressed plan);
      Alcotest.(check bool) "still held back" false (fires ()));
  Alcotest.(check bool) "re-armed after exit" true (fires ());
  (* Exception safety: a thunk escaping by exception (with a nested
     suppression on the way) must restore the armed state exactly. *)
  (match
     Fault.with_suppressed (Some plan) (fun () ->
         Fault.with_suppressed (Some plan) (fun () -> ());
         raise Exit)
   with
  | () -> Alcotest.fail "Exit swallowed"
  | exception Exit -> ());
  Alcotest.(check bool) "not suppressed after exception" false
    (Fault.suppressed plan);
  Alcotest.(check bool) "re-armed after exception" true (fires ());
  (* No plan: pure passthrough. *)
  Alcotest.(check int) "None passthrough" 7
    (Fault.with_suppressed None (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Livelock watchdog                                                   *)

let test_watchdog_trips_and_is_one_shot () =
  let m = machine () in
  let chk = Check.attach m in
  let vm = R.create m in
  let c0 = Machine.core m 0 in
  (* A 1-cycle horizon: the very first op to burn simulated time past the
     last feed must trip from inside the wedged operation. *)
  Check.arm_watchdog chk ~horizon:1;
  Check.feed_watchdog chk;
  (match T.trap (fun () -> R.mmap vm c0 ~vpn:0 ~npages:2 ()) with
  | exception Check.Livelock { elapsed; horizon; dump = _ } ->
      Alcotest.(check int) "reports the armed horizon" 1 horizon;
      Alcotest.(check bool) "elapsed is the machine clock" true (elapsed >= 0)
  | Ok () -> Alcotest.fail "watchdog did not trip"
  | Error e -> Alcotest.failf "unexpected error: %a" T.pp_vm_error e);
  (* One-shot: it disarmed itself before raising, so the session can be
     abandoned without the unwind (or anything after) re-tripping. *)
  let vm2 = R.create m in
  match T.trap (fun () -> R.mmap vm2 c0 ~vpn:0 ~npages:1 ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-trip op failed: %a" T.pp_vm_error e
  | exception Check.Livelock _ -> Alcotest.fail "watchdog tripped twice"

(* ------------------------------------------------------------------ *)
(* Fuzzer: determinism and the oracle                                  *)

let test_fuzz_deterministic () =
  let cfg = { Fuzz.default with seed = 11; ops = 150; ncores = 3 } in
  let a = Fuzz.run_session cfg in
  let b = Fuzz.run_session cfg in
  Alcotest.(check bool) "passes" true a.Fuzz.passed;
  Alcotest.(check string)
    "byte-identical transcripts" a.Fuzz.transcript b.Fuzz.transcript

let test_fuzz_catches_broken_rollback () =
  let cfg = { Fuzz.default with seed = 11; ops = 150; ncores = 3; broken = true }
  in
  let o = Fuzz.run_session cfg in
  Alcotest.(check bool) "known-bad variant fails" false o.Fuzz.passed;
  Alcotest.(check bool) "with explicit failures" true (o.Fuzz.failures <> [])

(* Every generated session records its op stream as an explicit program;
   replaying that program must reproduce the generation transcript
   byte-for-byte — drains, invariant sweeps, and respawns land at the
   same indices in both modes. *)
let test_record_replay_byte_identical () =
  let cfg = { Fuzz.default with seed = 42; ops = 300; ncores = 4; check = true }
  in
  let o = Fuzz.run_session cfg in
  Alcotest.(check bool) "generated session passes" true o.Fuzz.passed;
  let r = Fuzz.run_program o.Fuzz.program in
  Alcotest.(check string)
    "replay reproduces the generation transcript byte-for-byte"
    o.Fuzz.transcript r.Fuzz.transcript;
  (* And survives a serialization round-trip. *)
  match Fuzz.program_of_string (Fuzz.program_to_string o.Fuzz.program) with
  | Error m -> Alcotest.fail m
  | Ok parsed ->
      let p = Fuzz.run_program parsed in
      Alcotest.(check string) "parsed replay identical too" o.Fuzz.transcript
        p.Fuzz.transcript

(* Under a crash palette the oracle-checked session must still pass:
   every injected crash is reaped and the survivors stay clean. A crash
   that kills the last process makes the session spawn a fresh one
   mid-stream, the only source of [Spawn] ops, so this seed must do it
   at least once. *)
let test_fuzz_crash_sessions_recover () =
  let cfg =
    { Fuzz.default with
      seed = 1; ops = 600; ncores = 4; check = true; crash = true }
  in
  let o = Fuzz.run_session cfg in
  Alcotest.(check bool) "crash session passes" true o.Fuzz.passed;
  Alcotest.(check bool) "crashes were actually injected" true (o.Fuzz.crashes > 0);
  Alcotest.(check bool) "a process was spawned mid-session" true
    (List.exists
       (String.starts_with ~prefix:"spawn: ")
       (String.split_on_char '\n' o.Fuzz.transcript))

(* The acceptance bound: the known-bad 600-op --broken failure shrinks to
   a reproducer of at most 25 ops that still fails, and the minimized
   program replays deterministically. *)
let test_shrinker_minimizes_broken_failure () =
  let cfg =
    { Fuzz.default with
      seed = 42; ops = 600; ncores = 4; check = true; broken = true }
  in
  let o = Fuzz.run_session cfg in
  Alcotest.(check bool) "known-bad session fails" false o.Fuzz.passed;
  match Fuzz.shrink o.Fuzz.program with
  | Error m -> Alcotest.fail m
  | Ok minimal ->
      Alcotest.(check bool)
        (Printf.sprintf "minimal has <= 25 ops (got %d)"
           (List.length minimal.Fuzz.pr_ops))
        true
        (List.length minimal.Fuzz.pr_ops <= 25);
      let mo = Fuzz.run_program minimal in
      Alcotest.(check bool) "minimal reproducer still fails" false mo.Fuzz.passed;
      (* The emitted artifact replays byte-identically. *)
      match Fuzz.program_of_string (Fuzz.program_to_string minimal) with
      | Error m -> Alcotest.fail m
      | Ok parsed ->
          let po = Fuzz.run_program parsed in
          Alcotest.(check string) "repro file replays identically"
            mo.Fuzz.transcript po.Fuzz.transcript

(* Shrinking is itself deterministic: the same failing program minimizes
   to the same reproducer every time (smaller corpus to keep it quick —
   the 600-op bound is covered above). *)
let test_shrinker_deterministic () =
  let cfg = { Fuzz.default with seed = 11; ops = 150; ncores = 3; broken = true }
  in
  let o = Fuzz.run_session cfg in
  Alcotest.(check bool) "session fails" false o.Fuzz.passed;
  match (Fuzz.shrink o.Fuzz.program, Fuzz.shrink o.Fuzz.program) with
  | Ok a, Ok b ->
      Alcotest.(check string) "identical minimized programs"
        (Fuzz.program_to_string a) (Fuzz.program_to_string b)
  | Error m, _ | _, Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fault"
    [
      ( "physmem",
        [
          tc "frame budget" `Quick test_frame_budget;
          tc "double free" `Quick test_double_free_detected;
        ] );
      ( "ipi",
        [
          tc "delay forces retry" `Quick test_ipi_delay_forces_retry;
          tc "stall abandoned" `Quick test_ipi_stall_abandoned;
          tc "prompt = legacy" `Quick test_ipi_prompt_keeps_legacy_timing;
        ] );
      ( "degradation",
        [
          tc "abort rolls back" `Quick test_abort_rolls_back;
          tc "fork abort rolls back" `Quick test_fork_abort_rolls_back;
          tc "frame exhaustion" `Quick test_frame_exhaustion_degrades;
          tc "kernel ENOMEM" `Quick test_kernel_enomem;
          tc "kernel EFAULT/EINVAL" `Quick test_kernel_efault_and_einval;
          tc "errno_to_string total" `Quick test_errno_to_string_total;
        ] );
      ( "known-bad",
        [
          tc "broken rollback leaks locks" `Quick test_broken_rollback_is_caught;
          tc "invariant violation typed" `Quick test_invariant_violation_is_typed;
        ] );
      ( "cache-serve",
        [
          tc "frame budget stays model-clean" `Quick
            test_cacheserve_frame_budget;
          tc "crash matrix stays model-clean" `Quick
            test_cacheserve_crash_matrix;
          tc "abort matrix stays model-clean" `Quick
            test_cacheserve_abort_matrix;
        ] );
      ( "crash-recovery",
        [
          tc "reap leaves survivors clean (all points)" `Quick
            test_crash_reap_survivors_clean;
          tc "with_suppressed re-entrant + exception-safe" `Quick
            test_with_suppressed_reentrant_exception_safe;
          tc "watchdog trips once" `Quick test_watchdog_trips_and_is_one_shot;
        ] );
      ( "fuzz",
        [
          tc "deterministic" `Quick test_fuzz_deterministic;
          tc "broken variant caught" `Quick test_fuzz_catches_broken_rollback;
          tc "record/replay byte-identical" `Quick
            test_record_replay_byte_identical;
          tc "crash sessions recover" `Quick test_fuzz_crash_sessions_recover;
          tc "shrinker hits the 25-op bound" `Slow
            test_shrinker_minimizes_broken_failure;
          tc "shrinker deterministic" `Quick test_shrinker_deterministic;
        ] );
    ]
