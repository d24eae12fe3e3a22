(* Tests for the VM systems: RadixVM (per-core and shared MMU, several
   frame-counting schemes) and the Linux/Bonsai baselines, all driven
   through the common Vm_intf.S interface plus system-specific invariant
   checks. *)

open Ccsim
module Vm_types = Vm.Vm_types
module Radixvm = Vm.Radixvm

let epoch = 10_000

(* Every machine in this file runs with the dynamic checker attached;
   a final test asserts the cumulative TLB-coherence and refcount
   analyses stayed clean across everything the suite did. *)
let checked : Check.t list ref = ref []

let machine ?(ncores = 4) () =
  let m = Machine.create (Params.default ~ncores ~epoch_cycles:epoch ()) in
  checked := Check.attach m :: !checked;
  m

let test_checker_clean () =
  Alcotest.(check bool) "checkers attached" true (!checked <> []);
  List.iter
    (fun chk ->
      List.iter
        (fun v -> Format.eprintf "%a@." Check.pp_tlb_violation v)
        (Check.tlb_violations chk);
      List.iter
        (fun v -> Format.eprintf "%a@." Check.pp_rc_violation v)
        (Check.rc_violations chk);
      Alcotest.(check int) "no stale TLB entries" 0
        (List.length (Check.tlb_violations chk));
      Alcotest.(check int) "no refcount violations" 0
        (List.length (Check.rc_violations chk)))
    !checked

let drain_epochs m n = Machine.drain m ~cycles:(n * epoch)

let result_t =
  Alcotest.testable
    (fun ppf -> function
      | Vm_types.Ok -> Format.pp_print_string ppf "Ok"
      | Vm_types.Segfault -> Format.pp_print_string ppf "Segfault"
      | Vm_types.Oom -> Format.pp_print_string ppf "Oom")
    ( = )

(* ------------------------------------------------------------------ *)
(* Generic behaviour through the common interface                      *)

module Generic (V : Vm.Vm_intf.S) = struct
  (* [settle] lets lazily-reclaiming systems (Refcache) finish frees. *)
  let suite ~settle =
    let test_map_touch_unmap () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:100 ~npages:10 ();
      Alcotest.(check bool) "mapped" true (V.mapped vm ~vpn:105);
      Alcotest.check result_t "touch ok" Vm_types.Ok (V.touch vm c ~vpn:105);
      Alcotest.check result_t "touch again ok" Vm_types.Ok (V.touch vm c ~vpn:105);
      V.munmap vm c ~vpn:100 ~npages:10;
      Alcotest.(check bool) "unmapped" false (V.mapped vm ~vpn:105);
      Alcotest.check result_t "segfault after munmap" Vm_types.Segfault
        (V.touch vm c ~vpn:105)
    in
    let test_segfault_unmapped () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      Alcotest.check result_t "segfault" Vm_types.Segfault (V.touch vm c ~vpn:42)
    in
    let test_frames_reclaimed () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:0 ~npages:8 ();
      for p = 0 to 7 do
        Alcotest.check result_t "touch" Vm_types.Ok (V.touch vm c ~vpn:p)
      done;
      Alcotest.(check int) "8 frames live" 8
        (Physmem.live_frames (Machine.physmem m));
      V.munmap vm c ~vpn:0 ~npages:8;
      settle m;
      Alcotest.(check int) "all frames reclaimed" 0
        (Physmem.live_frames (Machine.physmem m))
    in
    let test_mmap_over_existing () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:0 ~npages:4 ();
      Alcotest.check result_t "touch old" Vm_types.Ok (V.touch vm c ~vpn:1);
      (* Re-map the middle over the old mapping: implicit munmap. *)
      V.mmap vm c ~vpn:1 ~npages:2 ();
      settle m;
      (* Fresh mapping: the page must fault again and get a new frame. *)
      Alcotest.(check bool) "still mapped" true (V.mapped vm ~vpn:1);
      Alcotest.check result_t "touch new" Vm_types.Ok (V.touch vm c ~vpn:1);
      Alcotest.(check bool) "edges intact" true
        (V.mapped vm ~vpn:0 && V.mapped vm ~vpn:3)
    in
    let test_partial_munmap () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:10 ~npages:10 ();
      V.munmap vm c ~vpn:13 ~npages:4;
      Alcotest.(check bool) "left" true (V.mapped vm ~vpn:12);
      Alcotest.(check bool) "hole" false (V.mapped vm ~vpn:15);
      Alcotest.(check bool) "right" true (V.mapped vm ~vpn:17);
      Alcotest.check result_t "left touch" Vm_types.Ok (V.touch vm c ~vpn:12);
      Alcotest.check result_t "hole faults" Vm_types.Segfault
        (V.touch vm c ~vpn:15)
    in
    let test_cross_core_sharing () =
      let m = machine () in
      let vm = V.create m in
      let a = Machine.core m 0 and b = Machine.core m 1 in
      V.mmap vm a ~vpn:0 ~npages:4 ();
      Alcotest.check result_t "a touches" Vm_types.Ok (V.touch vm a ~vpn:2);
      Alcotest.check result_t "b touches same page" Vm_types.Ok
        (V.touch vm b ~vpn:2);
      (* One physical frame regardless of which core faulted first. *)
      Alcotest.(check int) "one frame" 1 (Physmem.live_frames (Machine.physmem m))
    in
    let test_munmap_clears_remote_tlbs () =
      let m = machine () in
      let vm = V.create m in
      let a = Machine.core m 0 and b = Machine.core m 1 in
      V.mmap vm a ~vpn:50 ~npages:2 ();
      Alcotest.check result_t "a" Vm_types.Ok (V.touch vm a ~vpn:50);
      Alcotest.check result_t "b" Vm_types.Ok (V.touch vm b ~vpn:50);
      (* b unmaps; afterwards a's next access must fault, not use a stale
         translation. *)
      V.munmap vm b ~vpn:50 ~npages:2;
      Alcotest.check result_t "stale access faults" Vm_types.Segfault
        (V.touch vm a ~vpn:50)
    in
    let model_test =
      QCheck.Test.make ~name:(V.name ^ " matches page oracle") ~count:40
        QCheck.(
          make
            ~print:(fun ops ->
              String.concat ";"
                (List.map
                   (fun (k, c, lo, n) ->
                     Printf.sprintf "%d@%d[%d+%d]" k c lo n)
                   ops))
            Gen.(
              list_size (int_range 1 40)
                (quad (int_bound 2) (int_bound 3) (int_bound 200)
                   (int_range 1 32))))
        (fun ops ->
          let m = machine () in
          let vm = V.create m in
          let mapped : (int, unit) Hashtbl.t = Hashtbl.create 64 in
          let ok = ref true in
          List.iter
            (fun (kind, core_id, lo, n) ->
              let core = Machine.core m core_id in
              match kind with
              | 0 ->
                  V.mmap vm core ~vpn:lo ~npages:n ();
                  for p = lo to lo + n - 1 do
                    Hashtbl.replace mapped p ()
                  done
              | 1 ->
                  V.munmap vm core ~vpn:lo ~npages:n;
                  for p = lo to lo + n - 1 do
                    Hashtbl.remove mapped p
                  done
              | _ ->
                  let expect =
                    if Hashtbl.mem mapped lo then Vm_types.Ok
                    else Vm_types.Segfault
                  in
                  if V.touch vm core ~vpn:lo <> expect then ok := false)
            ops;
          (* Cross-check the whole touched space. *)
          for p = 0 to 240 do
            if V.mapped vm ~vpn:p <> Hashtbl.mem mapped p then ok := false
          done;
          !ok)
    in
    [
      Alcotest.test_case (V.name ^ " map/touch/unmap") `Quick test_map_touch_unmap;
      Alcotest.test_case (V.name ^ " segfault") `Quick test_segfault_unmapped;
      Alcotest.test_case (V.name ^ " frames reclaimed") `Quick test_frames_reclaimed;
      Alcotest.test_case (V.name ^ " mmap over existing") `Quick test_mmap_over_existing;
      Alcotest.test_case (V.name ^ " partial munmap") `Quick test_partial_munmap;
      Alcotest.test_case (V.name ^ " cross-core sharing") `Quick test_cross_core_sharing;
      Alcotest.test_case (V.name ^ " munmap clears TLBs") `Quick
        test_munmap_clears_remote_tlbs;
      QCheck_alcotest.to_alcotest model_test;
    ]
end

module Radix_generic = Generic (Radixvm.Default)
module Linux_generic = Generic (Baselines.Linux_vm)
module Bonsai_generic = Generic (Baselines.Bonsai_vm)

(* RadixVM over a shared counter frees frames immediately. *)
module Radix_shared_counter = Radixvm.Make (Refcnt.Shared_counter)
module Radix_shared_generic = Generic (Radix_shared_counter)

let settle_refcache m = drain_epochs m 8
let settle_immediate _m = ()

(* ------------------------------------------------------------------ *)
(* RadixVM-specific behaviour                                          *)

module R = Radixvm.Default

let test_targeted_no_ipis_single_core () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  (* local pattern: map, touch, unmap, all on one core *)
  for i = 0 to 9 do
    let vpn = 100 + (i * 4) in
    R.mmap vm c ~vpn ~npages:4 ();
    for p = vpn to vpn + 3 do
      ignore (R.touch vm c ~vpn:p)
    done;
    R.munmap vm c ~vpn ~npages:4
  done;
  Alcotest.(check int) "zero IPIs for single-core use" 0
    (Machine.stats m).Stats.ipis

let test_targeted_ipi_only_to_faulting_core () =
  let m = machine () in
  let vm = R.create m in
  let a = Machine.core m 0
  and b = Machine.core m 1 in
  R.mmap vm a ~vpn:0 ~npages:2 ();
  ignore (R.touch vm a ~vpn:0);
  ignore (R.touch vm b ~vpn:0);
  (* Core 2 never touched the page; munmap from a must IPI exactly b. *)
  let s = Machine.stats m in
  let before = s.Stats.ipis in
  R.munmap vm a ~vpn:0 ~npages:2;
  Alcotest.(check int) "exactly one IPI (to b)" (before + 1) s.Stats.ipis

let test_shared_mmu_broadcasts () =
  let m = machine () in
  let vm = R.create_with ~mmu:Vm.Page_table.Shared m in
  let a = Machine.core m 0
  and b = Machine.core m 1
  and c = Machine.core m 2 in
  R.mmap vm a ~vpn:0 ~npages:2 ();
  ignore (R.touch vm a ~vpn:0);
  ignore (R.touch vm b ~vpn:0);
  ignore (R.touch vm c ~vpn:1);
  let s = Machine.stats m in
  let before = s.Stats.ipis in
  (* a unmaps: with a shared page table it cannot know who cached what and
     must interrupt every active core (b and c). *)
  R.munmap vm a ~vpn:0 ~npages:2;
  Alcotest.(check int) "broadcast to both other cores" (before + 2) s.Stats.ipis

let test_per_core_fill_faults () =
  let m = machine () in
  let vm = R.create m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  R.mmap vm a ~vpn:0 ~npages:1 ();
  ignore (R.touch vm a ~vpn:0);
  ignore (R.touch vm b ~vpn:0);
  let s = Machine.stats m in
  Alcotest.(check int) "one allocating fault" 1 s.Stats.alloc_faults;
  Alcotest.(check int) "one fill fault (b)" 1 s.Stats.fill_faults

let test_shared_mmu_one_fault_per_page () =
  let m = machine () in
  let vm = R.create_with ~mmu:Vm.Page_table.Shared m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  R.mmap vm a ~vpn:0 ~npages:1 ();
  ignore (R.touch vm a ~vpn:0);
  ignore (R.touch vm b ~vpn:0);
  let s = Machine.stats m in
  Alcotest.(check int) "one fault total" 1 s.Stats.pagefaults;
  Alcotest.(check int) "no fill faults" 0 s.Stats.fill_faults;
  Alcotest.(check bool) "b filled its TLB by hardware walk" true
    (s.Stats.hw_walks >= 1)

let test_mmap_shared_frame_refcount () =
  let m = machine () in
  let vm = R.create m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let pm = Machine.physmem m in
  let pfn = Physmem.alloc pm a in
  let freed = ref 0 in
  let handle =
    Refcnt.Refcache_counter.make (R.counters vm) a ~init:1 ~on_free:(fun _ ->
        incr freed)
  in
  R.mmap_shared_frame vm a ~vpn:10 ~npages:1 ~pfn handle;
  R.mmap_shared_frame vm b ~vpn:20 ~npages:1 ~pfn handle;
  ignore (R.touch vm a ~vpn:10);
  ignore (R.touch vm b ~vpn:20);
  R.munmap vm a ~vpn:10 ~npages:1;
  drain_epochs m 8;
  Alcotest.(check int) "page survives one unmap" 0 !freed;
  R.munmap vm b ~vpn:20 ~npages:1;
  drain_epochs m 8;
  Alcotest.(check int) "still one base reference" 0 !freed;
  Refcnt.Refcache_counter.dec (R.counters vm) a handle;
  drain_epochs m 8;
  Alcotest.(check int) "freed when last reference drops" 1 !freed

let test_radixvm_invariants_after_churn () =
  let m = machine () in
  let vm = R.create m in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let core = Machine.core m (Random.State.int rng 4) in
    let vpn = Random.State.int rng 256 in
    let n = 1 + Random.State.int rng 16 in
    match Random.State.int rng 3 with
    | 0 -> R.mmap vm core ~vpn ~npages:n ()
    | 1 -> R.munmap vm core ~vpn ~npages:n
    | _ -> ignore (R.touch vm core ~vpn)
  done;
  drain_epochs m 6;
  R.check_invariants vm

let test_no_tlb_entry_survives_munmap () =
  let m = machine () in
  let vm = R.create m in
  let cores = Array.init 4 (Machine.core m) in
  R.mmap vm cores.(0) ~vpn:0 ~npages:8 ();
  Array.iter
    (fun c ->
      for p = 0 to 7 do
        ignore (R.touch vm c ~vpn:p)
      done)
    cores;
  R.munmap vm cores.(3) ~vpn:0 ~npages:8;
  for c = 0 to 3 do
    for p = 0 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "core %d vpn %d clean" c p)
        false
        (Vm.Mmu.tlb_mem (R.mmu vm) ~core:c ~vpn:p
        || Vm.Mmu.pt_entry (R.mmu vm) ~core:c ~vpn:p <> None)
    done
  done

let test_table2_accounting_moves () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  let bytes0 = R.index_bytes vm in
  R.mmap vm c ~vpn:0 ~npages:64 ();
  for p = 0 to 63 do
    ignore (R.touch vm c ~vpn:p)
  done;
  Alcotest.(check bool) "index grew" true (R.index_bytes vm > bytes0);
  Alcotest.(check bool) "page tables non-empty" true (R.pt_bytes vm > 0)

(* ------------------------------------------------------------------ *)
(* Protection, mprotect, COW fork, page cache, page-table discard       *)

module Prot_suite (V : Vm.Vm_intf.S) = struct
  let tests =
    let test_read_only_mapping () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:0 ~npages:4 ~prot:Vm_types.Read_only ();
      Alcotest.check result_t "read allowed" Vm_types.Ok (V.read vm c ~vpn:1);
      Alcotest.check result_t "write denied" Vm_types.Segfault
        (V.touch vm c ~vpn:1);
      (* repeated writes stay denied even with the translation cached *)
      Alcotest.check result_t "write still denied" Vm_types.Segfault
        (V.touch vm c ~vpn:1)
    in
    let test_mprotect_downgrade () =
      let m = machine () in
      let vm = V.create m in
      let a = Machine.core m 0 and b = Machine.core m 1 in
      V.mmap vm a ~vpn:0 ~npages:4 ();
      Alcotest.check result_t "a writes" Vm_types.Ok (V.touch vm a ~vpn:2);
      Alcotest.check result_t "b writes" Vm_types.Ok (V.touch vm b ~vpn:2);
      V.mprotect vm a ~vpn:0 ~npages:4 Vm_types.Read_only;
      (* No stale writable translation may survive, on any core. *)
      Alcotest.check result_t "a write denied" Vm_types.Segfault
        (V.touch vm a ~vpn:2);
      Alcotest.check result_t "b write denied" Vm_types.Segfault
        (V.touch vm b ~vpn:2);
      Alcotest.check result_t "reads fine" Vm_types.Ok (V.read vm b ~vpn:2)
    in
    let test_mprotect_upgrade () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:0 ~npages:2 ~prot:Vm_types.Read_only ();
      Alcotest.check result_t "read faults it in" Vm_types.Ok (V.read vm c ~vpn:0);
      Alcotest.check result_t "write denied" Vm_types.Segfault (V.touch vm c ~vpn:0);
      V.mprotect vm c ~vpn:0 ~npages:2 Vm_types.Read_write;
      Alcotest.check result_t "write allowed after upgrade" Vm_types.Ok
        (V.touch vm c ~vpn:0)
    in
    let test_mprotect_partial () =
      let m = machine () in
      let vm = V.create m in
      let c = Machine.core m 0 in
      V.mmap vm c ~vpn:0 ~npages:8 ();
      V.mprotect vm c ~vpn:2 ~npages:3 Vm_types.Read_only;
      Alcotest.check result_t "before" Vm_types.Ok (V.touch vm c ~vpn:1);
      Alcotest.check result_t "inside" Vm_types.Segfault (V.touch vm c ~vpn:3);
      Alcotest.check result_t "after" Vm_types.Ok (V.touch vm c ~vpn:5)
    in
    [
      Alcotest.test_case (V.name ^ " read-only mapping") `Quick test_read_only_mapping;
      Alcotest.test_case (V.name ^ " mprotect downgrade") `Quick test_mprotect_downgrade;
      Alcotest.test_case (V.name ^ " mprotect upgrade") `Quick test_mprotect_upgrade;
      Alcotest.test_case (V.name ^ " mprotect partial") `Quick test_mprotect_partial;
    ]
end

module Radix_prot = Prot_suite (Radixvm.Default)
module Linux_prot = Prot_suite (Baselines.Linux_vm)
module Bonsai_prot = Prot_suite (Baselines.Bonsai_vm)

let test_fork_shares_then_copies () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  R.mmap vm c ~vpn:0 ~npages:4 ();
  for p = 0 to 3 do
    Alcotest.check result_t "parent touch" Vm_types.Ok (R.touch vm c ~vpn:p)
  done;
  Alcotest.(check int) "4 frames" 4 (Physmem.live_frames (Machine.physmem m));
  let child = R.fork vm c in
  (* COW: no frames copied yet *)
  Alcotest.(check int) "fork copies nothing" 4
    (Physmem.live_frames (Machine.physmem m));
  (* Reads in the child share the parent's frames. *)
  Alcotest.check result_t "child read" Vm_types.Ok (R.read child c ~vpn:1);
  Alcotest.(check int) "reads copy nothing" 4
    (Physmem.live_frames (Machine.physmem m));
  (* A child write breaks COW for exactly that page. *)
  Alcotest.check result_t "child write" Vm_types.Ok (R.touch child c ~vpn:1);
  Alcotest.(check int) "one page copied" 5
    (Physmem.live_frames (Machine.physmem m));
  (* A parent write to the same page also copies (both had COW), but a
     parent write to an untouched page copies only once overall. *)
  Alcotest.check result_t "parent write" Vm_types.Ok (R.touch vm c ~vpn:2);
  Alcotest.(check int) "second copy" 6 (Physmem.live_frames (Machine.physmem m));
  R.check_invariants vm;
  R.check_invariants child

let test_fork_frames_freed_when_both_exit () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  R.mmap vm c ~vpn:0 ~npages:4 ();
  for p = 0 to 3 do
    ignore (R.touch vm c ~vpn:p)
  done;
  let child = R.fork vm c in
  ignore (R.touch child c ~vpn:0);
  (* broke COW: 5 live *)
  R.destroy child c;
  drain_epochs m 8;
  Alcotest.(check int) "child exit frees its copy, parent pages stay" 4
    (Physmem.live_frames (Machine.physmem m));
  R.destroy vm c;
  drain_epochs m 8;
  Alcotest.(check int) "all freed after parent exit" 0
    (Physmem.live_frames (Machine.physmem m))

let test_fork_write_isolation_against_parent () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  R.mmap vm c ~vpn:0 ~npages:1 ();
  ignore (R.touch vm c ~vpn:0);
  let child = R.fork vm c in
  (* the parent's cached writable translation was demoted: its next write
     must fault (and copy), not silently write the shared frame *)
  let s = Machine.stats m in
  let faults = s.Stats.pagefaults in
  Alcotest.check result_t "parent write after fork" Vm_types.Ok
    (R.touch vm c ~vpn:0);
  Alcotest.(check bool) "write took a fault" true (s.Stats.pagefaults > faults);
  Alcotest.(check int) "copy made" 2 (Physmem.live_frames (Machine.physmem m));
  ignore child

(* fork must revoke every writable translation of the pages it demotes,
   under each page-table kind. Core 1 caches the page's writable
   translation without faulting under grouped and shared tables (a
   hardware walk of the table core 0 filled), and a shared table records
   no cores per page at all. A parent store from core 1 after the fork
   must fault and copy, not land in the page the child shares. *)
let test_fork_revokes_writable_translations () =
  List.iter
    (fun (kind, mmu) ->
      let m = machine () in
      let vm = R.create_with ~mmu m in
      let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
      R.mmap vm c0 ~vpn:10 ~npages:1 ();
      Alcotest.check result_t (kind ^ ": store 7") Vm_types.Ok
        (R.store vm c0 ~vpn:10 7);
      Alcotest.(check (option int)) (kind ^ ": core 1 loads 7") (Some 7)
        (R.load vm c1 ~vpn:10);
      let child = R.fork vm c0 in
      R.check_invariants vm;
      Alcotest.check result_t (kind ^ ": parent stores 99") Vm_types.Ok
        (R.store vm c1 ~vpn:10 99);
      Alcotest.(check (option int)) (kind ^ ": child loads 7") (Some 7)
        (R.load child c0 ~vpn:10);
      Alcotest.(check (option int)) (kind ^ ": parent loads 99") (Some 99)
        (R.load vm c1 ~vpn:10);
      R.destroy child c0;
      R.destroy vm c0)
    [
      ("per-core", Vm.Page_table.Per_core);
      ("grouped 2", Vm.Page_table.Grouped 2);
      ("shared", Vm.Page_table.Shared);
    ]

let test_file_mappings_share_page_cache () =
  let m = machine () in
  let vm = R.create m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  (* Two address spaces (like two processes) map the same file. *)
  let vm2 = R.fork vm a in
  R.mmap vm a ~vpn:100 ~npages:4 ~backing:(Vm_types.File 7) ();
  R.mmap vm2 b ~vpn:100 ~npages:4 ~backing:(Vm_types.File 7) ();
  ignore (R.read vm a ~vpn:101);
  Alcotest.(check int) "first fault loads from disk" 1
    (Physmem.live_frames (Machine.physmem m));
  ignore (R.read vm2 b ~vpn:101);
  Alcotest.(check int) "second mapping reuses the cached frame" 1
    (Physmem.live_frames (Machine.physmem m));
  Alcotest.(check int) "one cached page" 1 (R.cached_file_pages vm);
  (* Unmapping both still leaves the cache's copy resident. *)
  R.munmap vm a ~vpn:100 ~npages:4;
  R.munmap vm2 b ~vpn:100 ~npages:4;
  drain_epochs m 8;
  Alcotest.(check int) "page stays cached" 1
    (Physmem.live_frames (Machine.physmem m));
  (* Eviction (memory pressure) finally frees it. *)
  R.evict_file_page vm a ~file:7 ~page:101;
  drain_epochs m 8;
  Alcotest.(check int) "evicted" 0 (Physmem.live_frames (Machine.physmem m));
  Alcotest.(check int) "cache empty" 0 (R.cached_file_pages vm)

(* The cache packs (file, page) into one int: 22 bits of file above 40
   bits of page. Every entry point refuses a pair outside that range
   before doing any simulated work, and the extreme pairs inside it
   stay distinct. *)
let test_page_cache_key_bounds () =
  let module PC = Vm.Page_cache.Make (Refcnt.Refcache_counter) in
  let m = machine () in
  let vm = R.create m in
  let pc = R.page_cache vm in
  let c = Machine.core m 0 in
  let t0 = Core.now c in
  let ops =
    [
      ("get", fun ~file ~page -> ignore (PC.get pc c ~file ~page));
      ("evict", fun ~file ~page -> PC.evict pc c ~file ~page);
      ("set_dirty", fun ~file ~page -> PC.set_dirty pc c ~file ~page);
      ("clear_dirty", fun ~file ~page -> PC.clear_dirty pc c ~file ~page);
      ("dirty", fun ~file ~page -> ignore (PC.dirty pc ~file ~page));
    ]
  in
  List.iter
    (fun (name, op) ->
      List.iter
        (fun (file, page) ->
          Alcotest.check_raises
            (Printf.sprintf "%s file=%d page=%d" name file page)
            (Invalid_argument
               "Page_cache: (file, page) does not fit the packed key")
            (fun () -> op ~file ~page))
        [ (-1, 0); (1 lsl 22, 0); (0, -1); (0, 1 lsl 40) ])
    ops;
  Alcotest.(check int) "no simulated work" t0 (Core.now c);
  let file = (1 lsl 22) - 1 and page = (1 lsl 40) - 1 in
  ignore (PC.get pc c ~file ~page);
  ignore (PC.get pc c ~file ~page:0);
  ignore (PC.get pc c ~file:0 ~page);
  PC.set_dirty pc c ~file ~page;
  Alcotest.(check int) "three entries" 3 (PC.cached_pages pc);
  Alcotest.(check (list bool))
    "only the marked entry is dirty" [ true; false; false ]
    [
      PC.dirty pc ~file ~page;
      PC.dirty pc ~file ~page:0;
      PC.dirty pc ~file:0 ~page;
    ]

let test_discard_page_tables () =
  let m = machine () in
  let vm = R.create m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  R.mmap vm a ~vpn:0 ~npages:8 ();
  for p = 0 to 7 do
    ignore (R.touch vm a ~vpn:p);
    ignore (R.touch vm b ~vpn:p)
  done;
  Alcotest.(check bool) "page tables populated" true (R.pt_bytes vm > 0);
  let frames = Physmem.live_frames (Machine.physmem m) in
  R.discard_page_tables vm a;
  Alcotest.(check int) "page tables empty" 0 (R.pt_bytes vm);
  Alcotest.(check int) "frames untouched" frames
    (Physmem.live_frames (Machine.physmem m));
  (* Everything still works: accesses re-fault and rebuild. *)
  let s = Machine.stats m in
  let alloc = s.Stats.alloc_faults in
  for p = 0 to 7 do
    Alcotest.check result_t "refault" Vm_types.Ok (R.touch vm b ~vpn:p)
  done;
  Alcotest.(check int) "no new frames allocated" alloc s.Stats.alloc_faults;
  Alcotest.(check bool) "page tables rebuilt" true (R.pt_bytes vm > 0);
  R.check_invariants vm

let test_cow_chain_grandchild () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  R.mmap vm c ~vpn:0 ~npages:1 ();
  ignore (R.touch vm c ~vpn:0);
  let child = R.fork vm c in
  let grandchild = R.fork child c in
  Alcotest.(check int) "still one frame" 1
    (Physmem.live_frames (Machine.physmem m));
  ignore (R.touch grandchild c ~vpn:0);
  ignore (R.touch child c ~vpn:0);
  ignore (R.touch vm c ~vpn:0);
  (* Each writer copied (COW never inspects the exact count — Refcache
     only detects stable zeros), so the original frame is now orphaned and
     freed lazily: 3 private copies survive the epochs. *)
  drain_epochs m 8;
  Alcotest.(check int) "three private copies" 3
    (Physmem.live_frames (Machine.physmem m));
  R.destroy vm c;
  R.destroy child c;
  R.destroy grandchild c;
  drain_epochs m 8;
  Alcotest.(check int) "all reclaimed" 0 (Physmem.live_frames (Machine.physmem m))

(* Scheduler-driven concurrency: cores run randomized VM workloads through
   the machine scheduler (not sequential direct calls), on disjoint
   per-core regions plus one shared read-mostly region. Afterwards every
   invariant and every core's data oracle must hold, and no frame may
   leak. This is the closest analogue of the paper's multithreaded
   stress. *)

let test_concurrent_stress () =
  let ncores = 8 in
  let m = machine ~ncores () in
  let vm = R.create m in
  let c0 = Machine.core m 0 in
  (* shared read-mostly region *)
  R.mmap vm c0 ~vpn:0 ~npages:16 ();
  for p = 0 to 15 do
    ignore (R.store vm c0 ~vpn:p (5000 + p))
  done;
  let region_pages = 32 in
  let oracle = Array.make_matrix ncores region_pages (-1) in
  let errors = ref [] in
  for c = 0 to ncores - 1 do
    let core = Machine.core m c in
    let base = 4096 * (c + 1) in
    let mapped = Array.make region_pages false in
    let steps = ref 0 in
    Machine.set_workload m c (fun () ->
        incr steps;
        let rng = core.Core.rng in
        let p = Random.State.int rng region_pages in
        (match Random.State.int rng 6 with
        | 0 ->
            let n = min (1 + Random.State.int rng 8) (region_pages - p) in
            R.mmap vm core ~vpn:(base + p) ~npages:n ();
            for i = p to p + n - 1 do
              mapped.(i) <- true;
              oracle.(c).(i) <- 0
            done
        | 1 ->
            let n = min (1 + Random.State.int rng 8) (region_pages - p) in
            R.munmap vm core ~vpn:(base + p) ~npages:n;
            for i = p to p + n - 1 do
              mapped.(i) <- false;
              oracle.(c).(i) <- -1
            done
        | 2 | 3 ->
            let v = Random.State.int rng 10_000 in
            let r = R.store vm core ~vpn:(base + p) v in
            let expect = if mapped.(p) then Vm_types.Ok else Vm_types.Segfault in
            if r <> expect then errors := `Store (c, p) :: !errors;
            if mapped.(p) then oracle.(c).(p) <- v
        | 4 ->
            let got = R.load vm core ~vpn:(base + p) in
            let expect = if mapped.(p) then Some oracle.(c).(p) else None in
            if got <> expect then errors := `Load (c, p) :: !errors
        | _ ->
            (* read the shared region: never disturbs anyone *)
            let sp = Random.State.int rng 16 in
            if R.load vm core ~vpn:sp <> Some (5000 + sp) then
              errors := `Shared (c, sp) :: !errors);
        !steps < 400)
  done;
  Machine.run m;
  Alcotest.(check int) "no semantic violations" 0 (List.length !errors);
  drain_epochs m 8;
  R.check_invariants vm;
  R.destroy vm c0;
  drain_epochs m 8;
  Alcotest.(check int) "no leaked frames after destroy" 0
    (Physmem.live_frames (Machine.physmem m))

(* Data-level semantics: values stored through the VM must respect COW
   isolation and page-cache sharing. *)

let test_store_load_roundtrip () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  R.mmap vm c ~vpn:0 ~npages:2 ();
  Alcotest.check result_t "store" Vm_types.Ok (R.store vm c ~vpn:0 42);
  Alcotest.(check (option int)) "load" (Some 42) (R.load vm c ~vpn:0);
  Alcotest.(check (option int)) "fresh page zeroed" (Some 0) (R.load vm c ~vpn:1);
  Alcotest.(check (option int)) "unmapped load faults" None (R.load vm c ~vpn:9)

let test_cow_data_isolation () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  R.mmap vm c ~vpn:0 ~npages:2 ();
  ignore (R.store vm c ~vpn:0 111);
  ignore (R.store vm c ~vpn:1 222);
  let child = R.fork vm c in
  Alcotest.(check (option int)) "child sees parent's data" (Some 111)
    (R.load child c ~vpn:0);
  ignore (R.store child c ~vpn:0 999);
  Alcotest.(check (option int)) "child sees its write" (Some 999)
    (R.load child c ~vpn:0);
  Alcotest.(check (option int)) "parent unaffected" (Some 111)
    (R.load vm c ~vpn:0);
  ignore (R.store vm c ~vpn:1 333);
  Alcotest.(check (option int)) "child keeps pre-fork value" (Some 222)
    (R.load child c ~vpn:1);
  Alcotest.(check (option int)) "parent sees its write" (Some 333)
    (R.load vm c ~vpn:1)

let test_file_data_shared_across_spaces () =
  let m = machine () in
  let vm = R.create m in
  let c = Machine.core m 0 in
  let vm2 = R.fork vm c in
  R.mmap vm c ~vpn:64 ~npages:2 ~backing:(Vm_types.File 5) ();
  R.mmap vm2 c ~vpn:128 ~npages:2 ~backing:(Vm_types.File 5) ();
  (* Same file, different virtual addresses... the simplified cache keys
     by (file, vpn), so map at the same vpn to observe sharing. *)
  R.munmap vm2 c ~vpn:128 ~npages:2;
  R.mmap vm2 c ~vpn:64 ~npages:2 ~backing:(Vm_types.File 5) ();
  let expected = Vm.Page_cache.file_content ~file:5 ~page:64 in
  Alcotest.(check (option int)) "disk content" (Some expected)
    (R.load vm c ~vpn:64);
  (* MAP_SHARED semantics: a write through one mapping is visible through
     the other. *)
  ignore (R.store vm c ~vpn:64 777);
  Alcotest.(check (option int)) "shared write visible" (Some 777)
    (R.load vm2 c ~vpn:64)

let cow_data_property =
  QCheck.Test.make ~name:"fork COW preserves data isolation" ~count:60
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map
               (fun (sp, p, v) -> Printf.sprintf "%d:%d<-%d" sp p v)
               ops))
        Gen.(list_size (int_range 1 40) (triple (int_bound 2) (int_bound 7) (int_range 1 1000))))
    (fun ops ->
      let m = machine () in
      let vm = R.create m in
      let c = Machine.core m 0 in
      R.mmap vm c ~vpn:0 ~npages:8 ();
      (* seed, then fork twice *)
      for p = 0 to 7 do
        ignore (R.store vm c ~vpn:p (1000 + p))
      done;
      let child1 = R.fork vm c in
      let child2 = R.fork vm c in
      let spaces = [| vm; child1; child2 |] in
      let oracle = Array.init 3 (fun _ -> Array.init 8 (fun p -> 1000 + p)) in
      List.for_all
        (fun (sp, page, v) ->
          ignore (R.store spaces.(sp) c ~vpn:page v);
          oracle.(sp).(page) <- v;
          (* every space must read back exactly its own view *)
          List.for_all
            (fun s ->
              List.for_all
                (fun p -> R.load spaces.(s) c ~vpn:p = Some oracle.(s).(p))
                [ 0; 1; 2; 3; 4; 5; 6; 7 ])
            [ 0; 1; 2 ])
        ops)

(* ------------------------------------------------------------------ *)
(* Page table unit tests                                                *)

module PT = Vm.Page_table

let test_pt_find_install_clear () =
  let m = machine () in
  List.iter
    (fun kind ->
      let pt = PT.create m kind in
      let a = Machine.core m 0 in
      let pfn_of = function Some e -> Some e.PT.pfn | None -> None in
      Alcotest.(check (option int)) "empty" None (pfn_of (PT.find pt a ~vpn:5));
      PT.install pt a ~vpn:5 ~pfn:50 ~writable:true;
      PT.install pt a ~vpn:6 ~pfn:60 ~writable:false;
      Alcotest.(check (option int)) "found" (Some 50) (pfn_of (PT.find pt a ~vpn:5));
      (match PT.find pt a ~vpn:6 with
      | Some pte -> Alcotest.(check bool) "ro kept" false pte.PT.writable
      | None -> Alcotest.fail "pte 6 missing");
      let removed = ref [] in
      PT.clear_range pt ~owner:0 ~lo:0 ~hi:6 (fun vpn pfn ->
          removed := (vpn, pfn) :: !removed);
      Alcotest.(check (list (pair int int))) "removed" [ (5, 50) ] !removed;
      Alcotest.(check (option int)) "cleared" None (pfn_of (PT.find pt a ~vpn:5));
      Alcotest.(check (option int)) "kept" (Some 60) (pfn_of (PT.find pt a ~vpn:6)))
    [ PT.Per_core; PT.Shared; PT.Grouped 2 ]

let test_pt_visibility_by_kind () =
  let m = machine () in
  let check_visibility kind ~same_group_sees =
    let pt = PT.create m kind in
    PT.install pt (Machine.core m 0) ~vpn:7 ~pfn:70 ~writable:true;
    let seen_by c = PT.find pt (Machine.core m c) ~vpn:7 <> None in
    Alcotest.(check bool) "installer sees" true (seen_by 0);
    Alcotest.(check bool) "group mate" same_group_sees (seen_by 1);
    (match kind with
    | PT.Shared -> Alcotest.(check bool) "far core sees" true (seen_by 3)
    | PT.Per_core | PT.Grouped _ ->
        Alcotest.(check bool) "far core blind" false (seen_by 3))
  in
  check_visibility PT.Per_core ~same_group_sees:false;
  check_visibility (PT.Grouped 2) ~same_group_sees:true;
  check_visibility PT.Shared ~same_group_sees:true

let test_pt_accounting () =
  let m = machine () in
  let pt = PT.create m PT.Shared in
  let a = Machine.core m 0 in
  for vpn = 0 to 599 do
    PT.install pt a ~vpn ~pfn:vpn ~writable:true
  done;
  Alcotest.(check int) "entries" 600 (PT.entries pt);
  (* 600 PTEs span two 512-entry leaf pages *)
  Alcotest.(check int) "leaf pages" 2 (PT.pt_pages pt);
  Alcotest.(check int) "bytes" (2 * 4096) (PT.bytes pt)

(* ------------------------------------------------------------------ *)
(* VMA interval bookkeeping (splits and merges) against a page oracle   *)

let vma_interval_property =
  QCheck.Test.make ~name:"linux vma count matches interval oracle" ~count:80
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ";"
            (List.map
               (fun (m, lo, n) ->
                 Printf.sprintf "%s[%d+%d]" (if m then "map" else "unmap") lo n)
               ops))
        Gen.(list_size (int_range 1 40) (triple bool (int_bound 100) (int_range 1 20))))
    (fun ops ->
      let m = machine () in
      let vm = Baselines.Linux_vm.create m in
      let core = Machine.core m 0 in
      let mapped = Array.make 140 false in
      List.iter
        (fun (do_map, lo, n) ->
          if do_map then begin
            Baselines.Linux_vm.mmap vm core ~vpn:lo ~npages:n ();
            Array.fill mapped lo n true
          end
          else begin
            Baselines.Linux_vm.munmap vm core ~vpn:lo ~npages:n;
            Array.fill mapped lo n false
          end)
        ops;
      (* count maximal runs of mapped pages: with merging of same-prot
         anon mappings, the VMA count must equal the run count *)
      let runs = ref 0 in
      for p = 0 to 139 do
        if mapped.(p) && ((not (p > 0 && mapped.(p - 1))) || p = 0) then incr runs
      done;
      Baselines.Linux_vm.vma_count vm = !runs
      && Array.for_all (fun x -> x = x) mapped
      &&
      let ok = ref true in
      Array.iteri
        (fun p expect ->
          if Baselines.Linux_vm.mapped vm ~vpn:p <> expect then ok := false)
        mapped;
      !ok)

(* ------------------------------------------------------------------ *)
(* Grouped page tables (the section 3.3 "share page tables between      *)
(* small groups of cores" variant)                                      *)

let test_grouped_walk_within_group () =
  let m = machine ~ncores:4 () in
  let vm = R.create_with ~mmu:(Vm.Page_table.Grouped 2) m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  R.mmap vm a ~vpn:0 ~npages:1 ();
  ignore (R.touch vm a ~vpn:0);
  let s = Machine.stats m in
  let faults = s.Stats.pagefaults in
  (* b shares a's page table: its access is a hardware walk, no fault. *)
  ignore (R.touch vm b ~vpn:0);
  Alcotest.(check int) "no new fault inside group" faults s.Stats.pagefaults;
  Alcotest.(check bool) "hardware walk happened" true (s.Stats.hw_walks >= 1);
  (* a core in the other group must software-fault *)
  ignore (R.touch vm (Machine.core m 2) ~vpn:0);
  Alcotest.(check int) "other group faults" (faults + 1) s.Stats.pagefaults

let test_grouped_shootdown_targets_groups () =
  let m = machine ~ncores:6 () in
  let vm = R.create_with ~mmu:(Vm.Page_table.Grouped 2) m in
  let a = Machine.core m 0 in
  R.mmap vm a ~vpn:0 ~npages:1 ();
  ignore (R.touch vm a ~vpn:0);
  ignore (R.touch vm (Machine.core m 2) ~vpn:0);
  (* groups {0,1} and {2,3} used the page; group {4,5} did not *)
  let s = Machine.stats m in
  let before = s.Stats.ipis in
  R.munmap vm a ~vpn:0 ~npages:1;
  (* targets: cores 1, 2, 3 (self excluded) — not 4 or 5 *)
  Alcotest.(check int) "three IPIs" (before + 3) s.Stats.ipis;
  (* the group-mate's stale translation must be gone *)
  Alcotest.check result_t "group-mate faults after munmap" Vm_types.Segfault
    (R.touch vm (Machine.core m 1) ~vpn:0)

let test_grouped_pt_memory_between () =
  let count mmu =
    let m = machine ~ncores:4 () in
    let vm = R.create_with ~mmu m in
    for c = 0 to 3 do
      let core = Machine.core m c in
      let vpn = c * 4096 in
      R.mmap vm core ~vpn ~npages:8 ();
      for p = vpn to vpn + 7 do
        ignore (R.touch vm core ~vpn:p)
      done
    done;
    Vm.Page_table.entries (Vm.Mmu.page_table (R.mmu vm))
  in
  let per_core = count Vm.Page_table.Per_core in
  let grouped = count (Vm.Page_table.Grouped 2) in
  let shared = count Vm.Page_table.Shared in
  Alcotest.(check int) "per-core PTEs for private pages" 32 per_core;
  Alcotest.(check int) "grouped same for private pages" 32 grouped;
  Alcotest.(check int) "shared same for private pages" 32 shared;
  (* now with full sharing: every core touches every page *)
  let count_shared_access mmu =
    let m = machine ~ncores:4 () in
    let vm = R.create_with ~mmu m in
    R.mmap vm (Machine.core m 0) ~vpn:0 ~npages:8 ();
    for c = 0 to 3 do
      for p = 0 to 7 do
        ignore (R.touch vm (Machine.core m c) ~vpn:p)
      done
    done;
    Vm.Page_table.entries (Vm.Mmu.page_table (R.mmu vm))
  in
  Alcotest.(check int) "per-core: 4 copies" 32
    (count_shared_access Vm.Page_table.Per_core);
  Alcotest.(check int) "grouped: 2 copies" 16
    (count_shared_access (Vm.Page_table.Grouped 2));
  Alcotest.(check int) "shared: 1 copy" 8
    (count_shared_access Vm.Page_table.Shared)

module Radix_grouped = struct
  include R

  let name = "radixvm+grouped"
  let create m = R.create_with ~mmu:(Vm.Page_table.Grouped 2) m
end

module Grouped_generic = Generic (Radix_grouped)

(* ------------------------------------------------------------------ *)
(* Baseline-specific behaviour                                         *)

let test_linux_faults_contend_on_lock () =
  let m = machine ~ncores:8 () in
  let vm = Baselines.Linux_vm.create m in
  let c0 = Machine.core m 0 in
  Baselines.Linux_vm.mmap vm c0 ~vpn:0 ~npages:64 ();
  let s = Machine.stats m in
  let before = s.Stats.lock_acquires in
  for core = 0 to 7 do
    ignore (Baselines.Linux_vm.touch vm (Machine.core m core) ~vpn:core)
  done;
  (* Every fault took the read lock. *)
  Alcotest.(check bool) "read lock taken per fault" true
    (s.Stats.lock_acquires - before >= 8)

let test_bonsai_faults_take_no_lock () =
  let m = machine ~ncores:8 () in
  let vm = Baselines.Bonsai_vm.create m in
  let c0 = Machine.core m 0 in
  Baselines.Bonsai_vm.mmap vm c0 ~vpn:0 ~npages:64 ();
  let s = Machine.stats m in
  let before = s.Stats.lock_acquires in
  for core = 0 to 7 do
    ignore (Baselines.Bonsai_vm.touch vm (Machine.core m core) ~vpn:core)
  done;
  Alcotest.(check int) "no lock acquires in fault path" before
    s.Stats.lock_acquires

let test_linux_vma_merging () =
  let m = machine () in
  let vm = Baselines.Linux_vm.create m in
  let c = Machine.core m 0 in
  Baselines.Linux_vm.mmap vm c ~vpn:0 ~npages:4 ();
  Baselines.Linux_vm.mmap vm c ~vpn:4 ~npages:4 ();
  Baselines.Linux_vm.mmap vm c ~vpn:8 ~npages:4 ();
  Alcotest.(check int) "adjacent anon VMAs merge" 1
    (Baselines.Linux_vm.vma_count vm);
  Baselines.Linux_vm.munmap vm c ~vpn:4 ~npages:4;
  Alcotest.(check int) "split in two" 2 (Baselines.Linux_vm.vma_count vm)

let test_baseline_broadcast_shootdown () =
  let m = machine () in
  let vm = Baselines.Linux_vm.create m in
  let a = Machine.core m 0 in
  Baselines.Linux_vm.mmap vm a ~vpn:0 ~npages:2 ();
  ignore (Baselines.Linux_vm.touch vm a ~vpn:0);
  (* Make three other cores active in the address space. *)
  for c = 1 to 3 do
    ignore (Baselines.Linux_vm.touch vm (Machine.core m c) ~vpn:1)
  done;
  let s = Machine.stats m in
  let before = s.Stats.ipis in
  Baselines.Linux_vm.munmap vm a ~vpn:0 ~npages:2;
  Alcotest.(check int) "broadcast to all three others" (before + 3) s.Stats.ipis

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "vm"
    [
      ("radixvm generic", Radix_generic.suite ~settle:settle_refcache);
      ( "radixvm shared-counter generic",
        Radix_shared_generic.suite ~settle:settle_immediate );
      ("linux generic", Linux_generic.suite ~settle:settle_immediate);
      ("bonsai generic", Bonsai_generic.suite ~settle:settle_immediate);
      ("protection radixvm", Radix_prot.tests);
      ("protection linux", Linux_prot.tests);
      ("protection bonsai", Bonsai_prot.tests);
      ( "fork & cow",
        [
          tc "fork shares then copies" `Quick test_fork_shares_then_copies;
          tc "frames freed at exit" `Quick test_fork_frames_freed_when_both_exit;
          tc "parent write isolation" `Quick test_fork_write_isolation_against_parent;
          tc "cow chain grandchild" `Quick test_cow_chain_grandchild;
          tc "fork revokes writable translations" `Quick
            test_fork_revokes_writable_translations;
        ] );
      ( "concurrent stress",
        [ tc "8-core randomized workloads" `Slow test_concurrent_stress ] );
      ( "data semantics",
        [
          tc "store/load roundtrip" `Quick test_store_load_roundtrip;
          tc "cow isolation" `Quick test_cow_data_isolation;
          tc "file data shared" `Quick test_file_data_shared_across_spaces;
          QCheck_alcotest.to_alcotest cow_data_property;
        ] );
      ( "page cache & discard",
        [
          tc "file mappings share cache" `Quick test_file_mappings_share_page_cache;
          tc "discard page tables" `Quick test_discard_page_tables;
          tc "packed key bounds" `Quick test_page_cache_key_bounds;
        ] );
      ( "page table",
        [
          tc "find/install/clear" `Quick test_pt_find_install_clear;
          tc "visibility by kind" `Quick test_pt_visibility_by_kind;
          tc "accounting" `Quick test_pt_accounting;
        ] );
      ("vma intervals", [ QCheck_alcotest.to_alcotest vma_interval_property ]);
      ("radixvm grouped generic", Grouped_generic.suite ~settle:settle_refcache);
      ( "grouped mmu",
        [
          tc "walk within group" `Quick test_grouped_walk_within_group;
          tc "shootdown targets groups" `Quick test_grouped_shootdown_targets_groups;
          tc "pt memory between" `Quick test_grouped_pt_memory_between;
        ] );
      ( "radixvm specific",
        [
          tc "no IPIs single core" `Quick test_targeted_no_ipis_single_core;
          tc "IPI only to faulting core" `Quick test_targeted_ipi_only_to_faulting_core;
          tc "shared MMU broadcasts" `Quick test_shared_mmu_broadcasts;
          tc "per-core fill faults" `Quick test_per_core_fill_faults;
          tc "shared MMU one fault" `Quick test_shared_mmu_one_fault_per_page;
          tc "shared frame refcount" `Quick test_mmap_shared_frame_refcount;
          tc "invariants after churn" `Quick test_radixvm_invariants_after_churn;
          tc "munmap leaves no stale entry" `Quick test_no_tlb_entry_survives_munmap;
          tc "memory accounting" `Quick test_table2_accounting_moves;
        ] );
      ( "baseline specific",
        [
          tc "linux faults take lock" `Quick test_linux_faults_contend_on_lock;
          tc "bonsai faults lock-free" `Quick test_bonsai_faults_take_no_lock;
          tc "linux vma merging" `Quick test_linux_vma_merging;
          tc "broadcast shootdown" `Quick test_baseline_broadcast_shootdown;
        ] );
      ( "checker",
        [ tc "no TLB or refcount violations anywhere" `Quick test_checker_clean ] );
    ]
