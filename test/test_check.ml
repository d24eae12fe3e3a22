(* Tests for the Check library (dynamic race / invariant checking).

   Two halves:

   - "fixtures": known-bad programs, each of which must trip exactly the
     analysis aimed at it (lockset race, lock-order cycle, stale TLB after
     a buggy unmap, Refcache misuse) — and the corresponding correct
     program, which must stay silent. These prove the detectors actually
     fire.

   - acceptance: the checker attached to real workloads. On RadixVM the
     disjoint-region microbenchmark must show *zero* multi-writer lines
     outside the documented allowlist (the paper's central claim, now a
     pass/fail test); the Linux-like and Bonsai baselines must show
     non-zero sharing on the very same workload. Plus conservation: the
     checker's event count must equal the cost model's access count. *)

open Ccsim
module Radixvm = Vm.Radixvm.Default
module MB = Workloads.Microbench.Make (Vm.Radixvm.Default)
module MB_linux = Workloads.Microbench.Make (Baselines.Linux_vm)
module MB_bonsai = Workloads.Microbench.Make (Baselines.Bonsai_vm)
module Refcache = Refcnt.Refcache

let quick_micro = 300_000
let quick_warmup = 600_000

let machine ?(ncores = 2) ?epoch_cycles () =
  Machine.create (Params.default ~ncores ?epoch_cycles ())

(* ------------------------------------------------------------------ *)
(* Known-bad fixtures                                                  *)

(* Two cores increment a shared counter with plain read-modify-write and
   no lock: the classic data race. *)
let test_race_fires () =
  let m = machine () in
  let chk = Check.attach m in
  let c0 = Machine.core m 0 in
  let counter = Cell.make ~label:"fixture:racy" c0 0 in
  for c = 0 to 1 do
    let core = Machine.core m c in
    let n = ref 0 in
    Machine.set_workload m c (fun () ->
        Cell.write core counter (Cell.read core counter + 1);
        incr n;
        !n < 100)
  done;
  Machine.run m;
  (match Check.races chk with
  | [ r ] ->
      Alcotest.(check string) "labeled" "fixture:racy" r.Check.race_label;
      Alcotest.(check (list int)) "both cores implicated" [ 0; 1 ]
        r.Check.race_cores
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs));
  Alcotest.(check bool) "verdict fails" false (Check.ok chk)

(* The same counter protected by a lock: the detector must stay silent
   (lockset refinement, not mere cross-core detection). *)
let test_race_silent_under_lock () =
  let m = machine () in
  let chk = Check.attach m in
  let c0 = Machine.core m 0 in
  let counter = Cell.make ~label:"fixture:locked" c0 0 in
  let lock = Lock.create ~label:"fixture:lock" c0 in
  for c = 0 to 1 do
    let core = Machine.core m c in
    let n = ref 0 in
    Machine.set_workload m c (fun () ->
        Lock.acquire core lock;
        Cell.write core counter (Cell.read core counter + 1);
        Lock.release core lock;
        incr n;
        !n < 100)
  done;
  Machine.run m;
  Alcotest.(check int) "no races" 0 (List.length (Check.races chk));
  Alcotest.(check int) "no cycles" 0 (List.length (Check.cycles chk))

(* Core 0 acquires A then B; core 1 acquires B then A. No deadlock occurs
   in the (atomic-step) run, but the lock-order graph has an A<->B cycle —
   the latent deadlock the analysis exists to catch. *)
let ab_ba ?sharing () =
  let m = machine () in
  let chk = Check.attach ?sharing m in
  let c0 = Machine.core m 0 in
  let a = Lock.create ~label:"fixture:A" c0 in
  let b = Lock.create ~label:"fixture:B" c0 in
  (* Publish both locks first: a lock's very first acquisition orders
     against nothing (nascent objects are born locked), so edges are only
     recorded between locks that have already completed an acquisition. *)
  Lock.acquire c0 a;
  Lock.release c0 a;
  Lock.acquire c0 b;
  Lock.release c0 b;
  let step core first second () =
    Lock.acquire core first;
    Lock.acquire core second;
    Lock.release core second;
    Lock.release core first;
    false
  in
  Machine.set_workload m 0 (step (Machine.core m 0) a b);
  Machine.set_workload m 1 (step (Machine.core m 1) b a);
  Machine.run m;
  (match Check.cycles chk with
  | [ cyc ] ->
      Alcotest.(check int) "two edges" 2 (List.length cyc);
      List.iter
        (fun (e : Check.lock_edge) ->
          Alcotest.(check bool) "acquisition context recorded" true
            (e.Check.e_held <> []))
        cyc
  | cs -> Alcotest.failf "expected one cycle, got %d" (List.length cs));
  chk

let test_lock_order_cycle_fires () =
  Alcotest.(check bool) "verdict fails" false (Check.ok (ab_ba ()))

(* A checker and two helpers that build a lock-order graph on core 0:
   [fresh ()] makes a published lock (a lock's first acquisition records
   no edge), and [edge a b] records a -> b. *)
let lock_graph () =
  let m = machine () in
  let chk = Check.attach m in
  let c0 = Machine.core m 0 in
  let fresh () =
    let l = Lock.create ~label:"fixture:ring" c0 in
    Lock.acquire c0 l;
    Lock.release c0 l;
    l
  in
  let edge a b =
    Lock.acquire c0 a;
    Lock.acquire c0 b;
    Lock.release c0 b;
    Lock.release c0 a
  in
  (chk, fresh, edge)

let check_closed cycles =
  List.iter
    (fun (cyc : Check.cycle) ->
      let rec closed first = function
        | (a : Check.lock_edge) :: (b :: _ as rest) ->
            a.Check.e_to = b.Check.e_from && closed first rest
        | [ last ] -> last.Check.e_to = first
        | [] -> false
      in
      match cyc with
      | [] -> Alcotest.fail "empty cycle"
      | e :: _ ->
          Alcotest.(check bool) "edges chain and close" true
            (closed e.Check.e_from cyc))
    cycles

(* Cycle recovery stays linear in the lock-order graph. Each ring of
   gadgets s -> d -> {trap, c}, c -> next s is one SCC; each trap is a
   chain of diamonds from d whose only exit returns to d, so it holds
   2^layers simple paths. Adjacency follows the target's lock number and
   every trap's locks are numbered below its c, so a search that
   remembers only its current path enters each trap before c and
   enumerates all of its paths. *)
let test_lock_order_cycles_linear () =
  let chk, fresh, edge = lock_graph () in
  let rings = 4 and gadgets = 6 and layers = 24 in
  for _ = 1 to rings do
    let s = Array.init gadgets (fun _ -> fresh ()) in
    for i = 0 to gadgets - 1 do
      let d = fresh () in
      edge s.(i) d;
      let top = ref d in
      for _ = 1 to layers do
        let l = fresh () and r = fresh () and b = fresh () in
        edge !top l;
        edge !top r;
        edge l b;
        edge r b;
        top := b
      done;
      edge !top d;
      let c = fresh () in
      edge d c;
      edge c s.((i + 1) mod gadgets)
    done
  done;
  let cycles = Check.cycles chk in
  Alcotest.(check int) "one cycle per ring" rings (List.length cycles);
  check_closed cycles

(* The reported cycle is a shortest one. Each wheel is one SCC: a ring
   over the spokes, and a hub h with a two-edge cycle h -> x -> h through
   every spoke x, so every lock lies on a two-edge cycle. The hub is
   numbered above its spokes and adjacency follows the target's lock
   number, so a depth-first walk from the lowest spoke follows the ring
   before it tries the hub, and returns the whole ring. *)
let test_lock_order_cycle_shortest () =
  let chk, fresh, edge = lock_graph () in
  let wheels = 4 and spokes = 6 in
  for _ = 1 to wheels do
    let x = Array.init spokes (fun _ -> fresh ()) in
    let h = fresh () in
    Array.iteri
      (fun i xi ->
        edge xi x.((i + 1) mod spokes);
        edge h xi;
        edge xi h)
      x
  done;
  let cycles = Check.cycles chk in
  Alcotest.(check int) "one cycle per wheel" wheels (List.length cycles);
  check_closed cycles;
  List.iter
    (fun cyc -> Alcotest.(check int) "two edges" 2 (List.length cyc))
    cycles

(* Which cycle is reported depends on the recorded edges alone. Each
   gadget is a pair of rings s <-> a and s <-> b through its lowest lock
   s: one SCC with two equally short cycles. Its cycle must start at s,
   the cycles must be listed in ascending order of their start, and
   recording the same edges in reverse order must render the same
   cycles. Lock 0, published first, stays outside every gadget: the
   lowest lock of all would start its cycle under almost any rule. *)
let test_lock_order_cycle_start () =
  let gadgets = 5 in
  let record order =
    let chk, fresh, edge = lock_graph () in
    ignore (fresh ());
    let edges = ref [] in
    for _ = 1 to gadgets do
      let s = fresh () in
      let a = fresh () in
      let b = fresh () in
      edges := !edges @ [ (a, s); (s, a); (b, s); (s, b) ]
    done;
    List.iter (fun (x, y) -> edge x y) (order !edges);
    chk
  in
  let forward = record Fun.id and backward = record List.rev in
  let cycles = Check.cycles forward in
  check_closed cycles;
  Alcotest.(check (list int))
    "each cycle starts at its gadget's lowest lock"
    (List.init gadgets (fun g -> 1 + (3 * g)))
    (List.map
       (fun (cyc : Check.cycle) -> (List.hd cyc).Check.e_from)
       cycles);
  let render chk =
    List.map (Format.asprintf "%a" Check.pp_cycle) (Check.cycles chk)
  in
  Alcotest.(check (list string))
    "the same cycles from the edges in reverse order" (render forward)
    (render backward)

(* Both cores acquire in the same order: a partial order, no cycle. *)
let test_lock_order_silent_when_consistent () =
  let m = machine () in
  let chk = Check.attach m in
  let c0 = Machine.core m 0 in
  let a = Lock.create ~label:"fixture:A" c0 in
  let b = Lock.create ~label:"fixture:B" c0 in
  for c = 0 to 1 do
    let core = Machine.core m c in
    Machine.set_workload m c (fun () ->
        Lock.acquire core a;
        Lock.acquire core b;
        Lock.release core b;
        Lock.release core a;
        false)
  done;
  Machine.run m;
  Alcotest.(check int) "no cycles" 0 (List.length (Check.cycles chk))

(* Range locking at full width: one core holds 4096 slot locks while the
   lines under them pass between two cores. Line [k] is guarded by lock
   [k]; core 1 seeds every line's candidate set under the whole stack,
   then drops one mid-stack lock before touching that lock's line, and
   core 0 finally touches each line holding only its own lock. Only that
   line loses its last common lock. The seeding shares core 1's held set
   instead of copying 4096 ids per line, which the allocation bound pins:
   a per-line copy costs 32 KB. *)
let test_wide_hold_race () =
  let m = machine () in
  let chk = Check.attach m in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let nlocks = 4096 and nlines = 1024 and dropped = 512 in
  let locks = Array.init nlocks (fun _ -> Lock.create ~label:"fixture:slot" c0) in
  let lines = Array.init nlines (fun _ -> Cell.make ~label:"fixture:page" c0 0) in
  let hold core = Array.iter (Lock.acquire core) locks in
  hold c0;
  Array.iter (fun x -> Cell.write c0 x 1) lines;
  Array.iter (Lock.release c0) locks;
  hold c1;
  let before = Gc.allocated_bytes () in
  Array.iter (fun x -> Cell.write c1 x 2) lines;
  let seeded = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "no race under the shared stack" 0
    (List.length (Check.races chk));
  Alcotest.(check bool)
    (Printf.sprintf "seeding allocates %.0f bytes for %d lines" seeded nlines)
    true
    (seeded < float_of_int (nlines * 1024));
  Lock.release c1 locks.(dropped);
  Cell.write c1 lines.(dropped) 3;
  Array.iteri (fun i l -> if i <> dropped then Lock.release c1 l) locks;
  Array.iteri
    (fun k x ->
      Lock.acquire c0 locks.(k);
      Cell.write c0 x 4;
      Lock.release c0 locks.(k))
    lines;
  (match Check.races chk with
  | [ r ] ->
      Alcotest.(check int) "on the dropped lock's line"
        (Line.id (Cell.line lines.(dropped)))
        r.Check.race_line
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs));
  Alcotest.(check int) "no leaked locks" 0 (List.length (Check.leaked_locks chk))

(* A buggy VM that "unmaps" by clearing only its own core's page table
   and TLB — the stale-TLB window every shootdown protocol exists to
   close. The checker's TLB mirror must catch core 1's surviving
   translation the moment the unmap declares itself done. *)
let stale_tlb ?sharing () =
  let m = machine () in
  let chk = Check.attach ?sharing m in
  let mmu = Vm.Mmu.create m Vm.Page_table.Per_core in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let pfn = Physmem.alloc (Machine.physmem m) c0 in
  Vm.Mmu.install mmu c0 ~vpn:100 ~pfn ~writable:true;
  Vm.Mmu.install mmu c1 ~vpn:100 ~pfn ~writable:true;
  let asid = Vm.Mmu.asid mmu in
  (* Bug: no shootdown round — only the unmapping core is cleaned. *)
  Vm.Mmu.drop_for_core mmu ~owner:0 ~lo:100 ~hi:101;
  Obs.emit (Machine.obs m)
    (Obs.Unmap_done { core = 0; asid; lo = 100; hi = 101 });
  (match Check.tlb_violations chk with
  | [ v ] ->
      Alcotest.(check int) "stale core" 1 v.Check.tv_stale_core;
      Alcotest.(check int) "stale vpn" 100 v.Check.tv_vpn;
      Alcotest.(check int) "unmapping core" 0 v.Check.tv_unmap_core
  | vs ->
      Alcotest.failf "expected one stale-TLB violation, got %d"
        (List.length vs));
  (* The correct protocol — clear every core that may cache the range —
     adds no further violation. *)
  Vm.Mmu.drop_for_core mmu ~owner:1 ~lo:100 ~hi:101;
  Obs.emit (Machine.obs m)
    (Obs.Unmap_done { core = 0; asid; lo = 100; hi = 101 });
  Alcotest.(check int) "clean after full shootdown" 1
    (List.length (Check.tlb_violations chk));
  chk

(* Address spaces are numbered per machine: however many MMUs another
   machine built first, a fresh machine's first MMU is space 0, and a
   stale-TLB finding in it names space 0. *)
let test_asids_per_machine () =
  let other = machine () in
  List.iter
    (fun kind -> ignore (Vm.Mmu.create other kind))
    [ Vm.Page_table.Per_core; Vm.Page_table.Shared; Vm.Page_table.Per_core ];
  Alcotest.(check int) "a fresh machine's first MMU is space 0" 0
    (Vm.Mmu.asid (Vm.Mmu.create (machine ()) Vm.Page_table.Per_core));
  match Check.tlb_violations (stale_tlb ()) with
  | [ v ] ->
      Alcotest.(check string) "the finding names space 0"
        "stale TLB: core 1 still caches vpn 100 of space 0 after core 0 \
         unmapped [100,101)"
        (Format.asprintf "%a" Check.pp_tlb_violation v)
  | vs ->
      Alcotest.failf "expected one stale-TLB violation, got %d"
        (List.length vs)

(* Hand-written bad reference-count traces (the real Refcache is correct,
   so the broken protocols are injected directly into the event stream). *)
let rc_misuse ?sharing () =
  let m = machine () in
  let chk = Check.attach ?sharing m in
  let obs = Machine.obs m in
  let lbl = "fixture:rc" in
  (* Freed while the count is still 2: a premature free. *)
  Obs.emit obs (Obs.Rc_make { core = 0; oid = 9001; init = 2; label = lbl });
  Obs.emit obs (Obs.Rc_free { core = 0; oid = 9001; label = lbl });
  (* A legitimate free, followed by double free and use-after-free. *)
  Obs.emit obs (Obs.Rc_make { core = 0; oid = 9002; init = 1; label = lbl });
  Obs.emit obs (Obs.Rc_dec { core = 1; oid = 9002; label = lbl });
  Obs.emit obs (Obs.Rc_free { core = 1; oid = 9002; label = lbl });
  Obs.emit obs (Obs.Rc_free { core = 0; oid = 9002; label = lbl });
  Obs.emit obs (Obs.Rc_inc { core = 0; oid = 9002; label = lbl });
  Obs.emit obs (Obs.Rc_dec { core = 0; oid = 9002; label = lbl });
  (* Count driven below zero. *)
  Obs.emit obs (Obs.Rc_make { core = 1; oid = 9003; init = 0; label = lbl });
  Obs.emit obs (Obs.Rc_dec { core = 1; oid = 9003; label = lbl });
  let faults =
    List.map (fun (v : Check.rc_violation) -> v.Check.rv_fault)
      (Check.rc_violations chk)
  in
  let has f = List.mem f faults in
  Alcotest.(check bool) "freed while referenced" true
    (has (Check.Freed_referenced 2));
  Alcotest.(check bool) "double free" true (has Check.Double_free);
  Alcotest.(check bool) "inc after free" true (has Check.Inc_after_free);
  Alcotest.(check bool) "dec after free" true (has Check.Dec_after_free);
  Alcotest.(check bool) "negative count" true (has Check.Negative_count);
  Alcotest.(check int) "exactly the five injected faults" 5
    (List.length faults);
  chk

(* ------------------------------------------------------------------ *)
(* Checker mechanics                                                   *)

let test_detach_stops_observation () =
  let m = machine () in
  let chk = Check.attach m in
  let c0 = Machine.core m 0 in
  let cell = Cell.make ~label:"fixture:detach" c0 0 in
  Cell.write c0 cell 1;
  let n = Check.accesses chk in
  Alcotest.(check bool) "saw the write" true (n > 0);
  Check.detach chk;
  Cell.write c0 cell 2;
  Alcotest.(check int) "silent after detach" n (Check.accesses chk)

(* The ledger maintained from Rc_* events must agree with Refcache's own
   true count at every step, and a full lifecycle of a real Refcache
   object must produce zero violations. *)
let test_refcache_ledger_matches () =
  let m = machine ~epoch_cycles:10_000 () in
  let chk = Check.attach m in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let freed = ref 0 in
  let obj =
    Refcache.make_obj ~label:"fixture:obj" rc c0 ~init:1 ~free:(fun _ ->
        incr freed)
  in
  let oid = Refcache.oid obj in
  let agree msg =
    Alcotest.(check (option int))
      msg
      (Some (Refcache.true_count rc obj))
      (Check.rc_count chk ~oid)
  in
  agree "after make";
  Refcache.inc rc c1 obj;
  agree "after cross-core inc";
  Refcache.dec rc c0 obj;
  agree "after dec";
  Refcache.dec rc c1 obj;
  agree "at zero";
  Machine.drain m ~cycles:100_000;
  Alcotest.(check int) "freed exactly once" 1 !freed;
  Alcotest.(check (option int)) "ledger at zero" (Some 0)
    (Check.rc_count chk ~oid);
  Alcotest.(check int) "no violations over a correct lifecycle" 0
    (List.length (Check.rc_violations chk))

(* ------------------------------------------------------------------ *)
(* Without the sharing analyses                                        *)

(* An mmap that aborts with its rollback skipped leaves its range locks
   held, for the leaked-lock query to find. *)
let broken_rollback ?sharing () =
  let m = machine () in
  let chk = Check.attach ?sharing m in
  let plan = Fault.create ~seed:0 () in
  Machine.set_fault m (Some plan);
  let vm = Radixvm.create m in
  let c0 = Machine.core m 0 in
  Fault.set_break_rollback plan true;
  Fault.abort_ops plan ~op:"mmap" ~point:"locked" ~prob:1.0 ();
  (match Vm.Vm_types.trap (fun () -> Radixvm.mmap vm c0 ~vpn:20 ~npages:3 ()) with
  | Error (Vm.Vm_types.Aborted _) -> ()
  | Ok () -> Alcotest.fail "abort did not fire"
  | Error e -> Alcotest.failf "wrong error: %a" Vm.Vm_types.pp_vm_error e);
  Alcotest.(check bool) "leaked locks detected" true
    (Check.leaked_locks chk <> []);
  chk

(* A 1-cycle watchdog horizon trips inside an mmap issued while core 0
   holds a lock of its own; the result is the held-lock dump. *)
let watchdog ?sharing () =
  let m = machine () in
  let chk = Check.attach ?sharing m in
  let vm = Radixvm.create m in
  let c0 = Machine.core m 0 in
  Lock.acquire c0 (Lock.create ~label:"fixture:outer" c0);
  Check.arm_watchdog chk ~horizon:1;
  Check.feed_watchdog chk;
  match Radixvm.mmap vm c0 ~vpn:0 ~npages:2 () with
  | () -> Alcotest.fail "watchdog did not trip"
  | exception Check.Livelock { dump; _ } ->
      (* Innermost first: the outer lock, this checker's first, ends it. *)
      Alcotest.(check bool) "the dump ends with lock 0" true
        (String.ends_with ~suffix:"    lock 0 (fixture:outer)\n" dump);
      (chk, dump)

(* Everything a checker attached with [~sharing:false] still answers,
   rendered as the reports print it. *)
let findings chk =
  let pp f l = List.map (Format.asprintf "%a" f) l in
  pp Check.pp_cycle (Check.cycles chk)
  @ pp Check.pp_tlb_violation (Check.tlb_violations chk)
  @ pp Check.pp_rc_violation (Check.rc_violations chk)
  @ pp Check.pp_leaked_lock (Check.leaked_locks chk)
  @ [ Printf.sprintf "%d accesses" (Check.accesses chk) ]

(* Each fixture, run under both modes, reports the same findings, lock
   numbers included. *)
let same_without_sharing run () =
  Alcotest.(check (list string))
    "the same findings without the sharing analyses" (run ~sharing:true)
    (run ~sharing:false)

let test_sharing_queries_refused () =
  let chk = ab_ba ~sharing:false () in
  let refused name query =
    match query () with
    | () -> Alcotest.failf "%s answered without the sharing analyses" name
    | exception Invalid_argument _ -> ()
  in
  refused "races" (fun () -> ignore (Check.races chk));
  refused "census" (fun () -> ignore (Check.census chk));
  refused "multi_writer_lines" (fun () ->
      ignore (Check.multi_writer_lines chk));
  refused "ok" (fun () -> ignore (Check.ok chk));
  refused "report" (fun () ->
      ignore (Format.asprintf "%a" (fun ppf -> Check.report ppf) chk))

(* ------------------------------------------------------------------ *)
(* Acceptance: real workloads                                          *)

let get = function
  | Some chk -> chk
  | None -> Alcotest.fail "checker was not attached"

(* RadixVM on the disjoint-region microbenchmark: the paper's claim is
   that steady-state operations on disjoint regions access *no* shared
   cache lines. With the checker attached the claim becomes a test: over
   the measured window (sharing census reset at the warmup boundary,
   like the stats — node creation is a one-time handoff the steady-state
   claim excludes), no multi-writer line outside the documented
   allowlist; and over the whole run, no races, no stale TLB entries, no
   refcount violations, no lock-order cycles. *)
let test_radixvm_local_zero_sharing () =
  let chk = ref None in
  ignore
    (MB.local ~warmup:quick_warmup ~ncores:8 ~duration:quick_micro
       ~on_machine:(fun m -> chk := Some (Check.attach m))
       ~on_measure:(fun () -> Check.reset_window (get !chk))
       Radixvm.create);
  let chk = get !chk in
  Alcotest.(check bool) "events observed" true (Check.accesses chk > 0);
  (match Check.multi_writer_lines ~allow:Check.radixvm_allow chk with
  | [] -> ()
  | ls ->
      Alcotest.failf "lines written by several cores:@ %a"
        (Format.pp_print_list Check.pp_line_info)
        ls);
  Alcotest.(check int) "no races" 0 (List.length (Check.races chk));
  Alcotest.(check int) "no lock-order cycles" 0
    (List.length (Check.cycles chk));
  Alcotest.(check int) "no stale TLB entries" 0
    (List.length (Check.tlb_violations chk));
  Alcotest.(check int) "no refcount violations" 0
    (List.length (Check.rc_violations chk));
  Alcotest.(check bool) "verdict passes" true
    (Check.ok ~allow:Check.radixvm_allow chk)

(* A longer scripted RadixVM run with short epochs, so Refcache actually
   flushes and frees during the measured window. The allowlist must then
   be non-vacuous: epoch flushes write the shared interior nodes' counts
   from several cores ("radix:node"), and nothing else may be shared.
   This run also pins down conservation: the checker sees exactly the
   accesses the cost model charged, and shootdown rounds never target
   more cores than were interrupted. *)
let test_radixvm_scripted_epochs_and_conservation () =
  let ncores = 4 in
  let m = machine ~ncores ~epoch_cycles:10_000 () in
  let chk = Check.attach m in
  let vm = Radixvm.create m in
  let iters = ref 0 in
  for c = 0 to ncores - 1 do
    let core = Machine.core m c in
    let vpn = c * 4096 in
    let n = ref 0 in
    Machine.set_workload m c (fun () ->
        Radixvm.mmap vm core ~vpn ~npages:2 ();
        (match Radixvm.touch vm core ~vpn with
        | Vm.Vm_types.Ok -> ()
        | Vm.Vm_types.Segfault -> Alcotest.fail "unexpected segfault"
        | Vm.Vm_types.Oom -> Alcotest.fail "unexpected oom");
        ignore (Radixvm.touch vm core ~vpn:(vpn + 1));
        Radixvm.munmap vm core ~vpn ~npages:2;
        incr n;
        incr iters;
        !n < 200)
  done;
  (* Warmup phase: initial radix expansion (nodes are born with their
     lock bits held by the creating core — a one-time handoff). Then a
     fresh window for both the stats and the sharing census. *)
  Machine.run_for m ~cycles:50_000;
  Stats.reset (Machine.stats m);
  Check.reset_window chk;
  Machine.run m;
  Machine.drain m ~cycles:100_000;
  Alcotest.(check bool) "workload actually ran" true (!iters >= 200);
  (* Zero sharing, with the allowlist demonstrably needed. *)
  (match Check.multi_writer_lines ~allow:Check.radixvm_allow chk with
  | [] -> ()
  | ls ->
      Alcotest.failf "lines written by several cores:@ %a"
        (Format.pp_print_list Check.pp_line_info)
        ls);
  let node_census =
    List.find_opt
      (fun (c : Check.label_census) -> c.Check.lc_label = "radix:node")
      (Check.census chk)
  in
  (match node_census with
  | Some c ->
      Alcotest.(check bool) "epoch flushes shared the node counts" true
        (c.Check.lc_multi_writer >= 1)
  | None -> Alcotest.fail "no radix:node lines observed");
  Alcotest.(check int) "no races" 0 (List.length (Check.races chk));
  Alcotest.(check int) "no stale TLB entries" 0
    (List.length (Check.tlb_violations chk));
  Alcotest.(check int) "no refcount violations" 0
    (List.length (Check.rc_violations chk));
  (* Conservation: one event per charged access, no more, no less. *)
  let s = Machine.stats m in
  Alcotest.(check int) "event stream = cost model"
    (s.Stats.l1_hits + s.Stats.transfers_local + s.Stats.transfers_remote
   + s.Stats.dram_fills)
    (Check.accesses chk);
  Alcotest.(check bool) "targets >= shootdown rounds" true
    (s.Stats.shootdown_targets >= s.Stats.shootdown_events)

(* The baselines run the identical disjoint workload and must show real
   sharing — otherwise the zero-sharing verifier proves nothing. *)
let baseline_shares name run expect_label =
  let chk = ref None in
  ignore (run (fun m -> chk := Some (Check.attach m)));
  let chk = get !chk in
  let shared = Check.multi_writer_lines chk in
  Alcotest.(check bool) (name ^ " shares lines") true (shared <> []);
  Alcotest.(check bool)
    (name ^ " shares " ^ expect_label)
    true
    (List.exists
       (fun (li : Check.line_info) -> li.Check.li_label = expect_label)
       shared)

let test_linux_local_shares () =
  baseline_shares "linux"
    (fun on_machine ->
      MB_linux.local ~warmup:quick_warmup ~ncores:8 ~duration:quick_micro
        ~on_machine Baselines.Linux_vm.create)
    "linux:aslock"

let test_bonsai_local_shares () =
  baseline_shares "bonsai"
    (fun on_machine ->
      MB_bonsai.local ~warmup:quick_warmup ~ncores:8 ~duration:quick_micro
        ~on_machine Baselines.Bonsai_vm.create)
    "bonsai:aslock"

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "check"
    [
      ( "fixtures",
        [
          tc "racy counter detected" `Quick test_race_fires;
          tc "locked counter silent" `Quick test_race_silent_under_lock;
          tc "wide hold: one dropped lock races" `Quick test_wide_hold_race;
          tc "AB/BA cycle detected" `Quick test_lock_order_cycle_fires;
          tc "cycle recovery linear" `Quick test_lock_order_cycles_linear;
          tc "shortest cycle reported" `Quick test_lock_order_cycle_shortest;
          tc "cycle starts at the lowest lock" `Quick
            test_lock_order_cycle_start;
          tc "consistent order silent" `Quick
            test_lock_order_silent_when_consistent;
          tc "stale TLB detected" `Quick (fun () -> ignore (stale_tlb ()));
          tc "address spaces numbered per machine" `Quick
            test_asids_per_machine;
          tc "refcount misuse detected" `Quick (fun () -> ignore (rc_misuse ()));
        ] );
      ( "sharing off",
        [
          tc "AB/BA cycle" `Quick
            (same_without_sharing (fun ~sharing -> findings (ab_ba ~sharing ())));
          tc "stale TLB" `Quick
            (same_without_sharing (fun ~sharing ->
                 findings (stale_tlb ~sharing ())));
          tc "refcount misuse" `Quick
            (same_without_sharing (fun ~sharing ->
                 findings (rc_misuse ~sharing ())));
          tc "broken rollback leaks locks" `Quick
            (same_without_sharing (fun ~sharing ->
                 findings (broken_rollback ~sharing ())));
          tc "watchdog dump" `Quick
            (same_without_sharing (fun ~sharing ->
                 let chk, dump = watchdog ~sharing () in
                 findings chk @ [ dump ]));
          tc "sharing queries refused" `Quick test_sharing_queries_refused;
        ] );
      ( "mechanics",
        [
          tc "detach stops observation" `Quick test_detach_stops_observation;
          tc "ledger matches refcache" `Quick test_refcache_ledger_matches;
        ] );
      ( "acceptance",
        [
          tc "radixvm local: zero sharing" `Quick
            test_radixvm_local_zero_sharing;
          tc "radixvm scripted: epochs + conservation" `Quick
            test_radixvm_scripted_epochs_and_conservation;
          tc "linux local: shares" `Quick test_linux_local_shares;
          tc "bonsai local: shares" `Quick test_bonsai_local_shares;
        ] );
    ]
