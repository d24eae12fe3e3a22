(* Tests for the workload layer: barrier, block allocator, microbenchmarks,
   Metis, the index and counter benchmarks, and the Table 2 snapshots.
   Besides correctness, several tests assert the *direction* of the
   scalability results the paper reports — those are the load-bearing
   claims of the reproduction. *)

open Ccsim
module Radixvm = Vm.Radixvm.Default
module MB = Workloads.Microbench.Make (Vm.Radixvm.Default)
module MB_linux = Workloads.Microbench.Make (Baselines.Linux_vm)
module Metis = Workloads.Metis.Make (Vm.Radixvm.Default)
module Metis_linux = Workloads.Metis.Make (Baselines.Linux_vm)
module Alloc = Workloads.Block_alloc.Make (Vm.Radixvm.Default)

(* ------------------------------------------------------------------ *)
(* Barrier                                                             *)

let test_barrier_sync () =
  let m = Machine.create (Params.default ~ncores:4 ()) in
  let b = Workloads.Barrier.create (Machine.core m 0) ~parties:4 in
  let passed_at = Array.make 4 0 in
  let arrive_at = [| 1_000; 5_000; 2_000; 40_000 |] in
  for c = 0 to 3 do
    let core = Machine.core m c in
    let state = ref `Start in
    Machine.set_workload m c (fun () ->
        (match !state with
        | `Start ->
            Core.tick core arrive_at.(c);
            state := `Arrived (Workloads.Barrier.arrive core b)
        | `Arrived gen ->
            if Workloads.Barrier.passed core b gen then begin
              passed_at.(c) <- Core.now core;
              state := `Done
            end
            else Machine.wait_hint m core
        | `Done -> ());
        !state <> `Done)
  done;
  Machine.run m;
  (* Nobody passes before the last arrival. *)
  Array.iteri
    (fun c t ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d passed after last arrival" c)
        true (t >= 40_000))
    passed_at

let test_barrier_reuse () =
  let m = Machine.create (Params.default ~ncores:2 ()) in
  let b = Workloads.Barrier.create (Machine.core m 0) ~parties:2 in
  let rounds = Array.make 2 0 in
  for c = 0 to 1 do
    let core = Machine.core m c in
    let state = ref `Go in
    Machine.set_workload m c (fun () ->
        (match !state with
        | `Go ->
            Core.tick core ((c + 1) * 100);
            state := `Wait (Workloads.Barrier.arrive core b)
        | `Wait gen ->
            if Workloads.Barrier.passed core b gen then begin
              rounds.(c) <- rounds.(c) + 1;
              state := `Go
            end
            else Machine.wait_hint m core);
        rounds.(c) < 5)
  done;
  Machine.run m;
  Alcotest.(check (list int)) "five rounds each" [ 5; 5 ] (Array.to_list rounds)

(* ------------------------------------------------------------------ *)
(* Block allocator                                                     *)

let test_block_alloc_basics () =
  let m = Machine.create (Params.default ~ncores:2 ()) in
  let vm = Radixvm.create m in
  let alloc = Alloc.create vm ~unit_pages:16 ~ncores:2 in
  let c0 = Machine.core m 0 in
  let a = Alloc.alloc_pages alloc c0 4 in
  let b = Alloc.alloc_pages alloc c0 4 in
  Alcotest.(check int) "bump allocation" (a + 4) b;
  Alcotest.(check int) "one block so far" 1 (Alloc.blocks_mapped alloc);
  (* 16-page block: 4+4 used, next 12 overflows into a new block *)
  let c = Alloc.alloc_pages alloc c0 12 in
  Alcotest.(check int) "new block mapped" 2 (Alloc.blocks_mapped alloc);
  Alcotest.(check bool) "fresh block is block-aligned" true (c > b);
  (* allocations are mapped and usable *)
  Alcotest.(check bool) "mapped" true (Radixvm.mapped vm ~vpn:a);
  Alcotest.(check bool) "usable" true (Radixvm.touch vm c0 ~vpn:c = Vm.Vm_types.Ok)

let test_block_alloc_per_core_disjoint () =
  let m = Machine.create (Params.default ~ncores:2 ()) in
  let vm = Radixvm.create m in
  let alloc = Alloc.create vm ~unit_pages:16 ~ncores:2 in
  let a = Alloc.alloc_pages alloc (Machine.core m 0) 8 in
  let b = Alloc.alloc_pages alloc (Machine.core m 1) 8 in
  Alcotest.(check bool) "arenas disjoint" true (abs (a - b) >= 1 lsl 24)

let test_block_alloc_rejects_oversize () =
  let m = Machine.create (Params.default ~ncores:1 ()) in
  let vm = Radixvm.create m in
  let alloc = Alloc.create vm ~unit_pages:8 ~ncores:1 in
  Alcotest.check_raises "oversize" (Invalid_argument "Block_alloc.alloc_pages")
    (fun () -> ignore (Alloc.alloc_pages alloc (Machine.core m 0) 9))

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)

let quick_micro = 300_000
let quick_warmup = 600_000

let test_local_scales_on_radixvm () =
  let r1 =
    MB.local ~warmup:quick_warmup ~ncores:1 ~duration:quick_micro
      Radixvm.create
  in
  let r8 =
    MB.local ~warmup:quick_warmup ~ncores:8 ~duration:quick_micro
      Radixvm.create
  in
  Alcotest.(check bool) "progress" true (r1.Workloads.Microbench.page_writes > 0);
  let speedup =
    r8.Workloads.Microbench.writes_per_sec
    /. r1.Workloads.Microbench.writes_per_sec
  in
  Alcotest.(check bool)
    (Printf.sprintf "near-linear speedup (got %.1fx)" speedup)
    true
    (speedup > 6.0);
  Alcotest.(check int) "no shootdown IPIs" 0 r8.Workloads.Microbench.ipis

let test_local_flat_on_linux () =
  let r1 =
    MB_linux.local ~warmup:quick_warmup ~ncores:1 ~duration:quick_micro
      Baselines.Linux_vm.create
  in
  let r8 =
    MB_linux.local ~warmup:quick_warmup ~ncores:8 ~duration:quick_micro
      Baselines.Linux_vm.create
  in
  let speedup =
    r8.Workloads.Microbench.writes_per_sec
    /. r1.Workloads.Microbench.writes_per_sec
  in
  Alcotest.(check bool)
    (Printf.sprintf "serialized (got %.1fx)" speedup)
    true (speedup < 2.0)

let test_pipeline_one_shootdown_per_munmap () =
  let r =
    MB.pipeline ~warmup:quick_warmup ~ncores:4 ~duration:quick_micro
      Radixvm.create
  in
  Alcotest.(check bool) "progress" true (r.Workloads.Microbench.page_writes > 0);
  (* Each unmapped region was written by exactly two cores, so each
     shootdown round targets exactly one remote core. *)
  Alcotest.(check int)
    "ipis equal shootdown rounds" r.Workloads.Microbench.shootdown_events
    r.Workloads.Microbench.ipis

let test_global_progress_and_shared_frames () =
  let r =
    MB.global ~warmup:quick_warmup ~ncores:4 ~duration:1_500_000
      Radixvm.create
  in
  Alcotest.(check bool) "progress" true (r.Workloads.Microbench.page_writes > 0)

(* ------------------------------------------------------------------ *)
(* Metis                                                               *)

let test_metis_runs_and_wins () =
  let radix =
    Metis.run ~total_words:20_000 ~unit_pages:16 ~ncores:8 Radixvm.create
  in
  let linux =
    Metis_linux.run ~total_words:20_000 ~unit_pages:16 ~ncores:8
      Baselines.Linux_vm.create
  in
  Alcotest.(check bool) "radix finished" true (radix.Workloads.Metis.jobs_per_hour > 0.);
  Alcotest.(check bool) "mmaps happened" true (radix.Workloads.Metis.mmaps > 8);
  Alcotest.(check bool)
    "RadixVM beats Linux on the mmap-heavy configuration" true
    (radix.Workloads.Metis.jobs_per_hour > linux.Workloads.Metis.jobs_per_hour)

let test_metis_unit_controls_mmaps () =
  let small =
    Metis.run ~total_words:80_000 ~unit_pages:16 ~ncores:4 Radixvm.create
  in
  let big =
    Metis.run ~total_words:80_000 ~unit_pages:2048 ~ncores:4 Radixvm.create
  in
  Alcotest.(check bool)
    "64KB unit does far more mmaps than 8MB unit" true
    (small.Workloads.Metis.mmaps > 4 * big.Workloads.Metis.mmaps);
  Alcotest.(check bool)
    "similar fault counts" true
    (abs (small.Workloads.Metis.pagefaults - big.Workloads.Metis.pagefaults)
    < small.Workloads.Metis.pagefaults)

let test_metis_deterministic () =
  let a = Metis.run ~total_words:10_000 ~unit_pages:16 ~ncores:4 Radixvm.create in
  let b = Metis.run ~total_words:10_000 ~unit_pages:16 ~ncores:4 Radixvm.create in
  Alcotest.(check int) "same cycles" a.Workloads.Metis.job_cycles
    b.Workloads.Metis.job_cycles;
  Alcotest.(check int) "same faults" a.Workloads.Metis.pagefaults
    b.Workloads.Metis.pagefaults

(* ------------------------------------------------------------------ *)
(* Index benchmark (Figures 6/7 direction)                             *)

let test_radix_readers_immune_to_writers () =
  let base =
    Workloads.Index_bench.radix ~readers:8 ~writers:0 ~duration:300_000 ()
  in
  let loaded =
    Workloads.Index_bench.radix ~readers:8 ~writers:4 ~duration:300_000 ()
  in
  Alcotest.(check bool) "lookups happened" true
    (base.Workloads.Index_bench.lookups > 0);
  let ratio =
    loaded.Workloads.Index_bench.lookups_per_sec
    /. base.Workloads.Index_bench.lookups_per_sec
  in
  Alcotest.(check bool)
    (Printf.sprintf "radix readers barely affected (ratio %.2f)" ratio)
    true (ratio > 0.8)

let test_skiplist_readers_hurt_by_writers () =
  let base =
    Workloads.Index_bench.skiplist ~readers:8 ~writers:0 ~duration:300_000 ()
  in
  let loaded =
    Workloads.Index_bench.skiplist ~readers:8 ~writers:4 ~duration:300_000 ()
  in
  let ratio =
    loaded.Workloads.Index_bench.lookups_per_sec
    /. base.Workloads.Index_bench.lookups_per_sec
  in
  (* writers on unrelated keys must cost the readers something real *)
  Alcotest.(check bool)
    (Printf.sprintf "skiplist readers degraded (ratio %.2f)" ratio)
    true (ratio < 0.9)

(* ------------------------------------------------------------------ *)
(* Counter benchmark (Figure 8 direction)                              *)

module CB_refcache = Workloads.Counter_bench.Make (Refcnt.Refcache_counter)
module CB_shared = Workloads.Counter_bench.Make (Refcnt.Shared_counter)

let test_refcache_beats_shared_counter () =
  let rc = CB_refcache.run ~ncores:8 ~duration:300_000 () in
  let sh = CB_shared.run ~ncores:8 ~duration:300_000 () in
  Alcotest.(check bool) "progress" true (rc.Workloads.Counter_bench.iterations > 0);
  Alcotest.(check bool)
    "refcache outscales the shared counter at 8 cores" true
    (rc.Workloads.Counter_bench.iters_per_sec
    > sh.Workloads.Counter_bench.iters_per_sec)

let test_counter_bench_scales_refcache () =
  let one = CB_refcache.run ~ncores:1 ~duration:300_000 () in
  let eight = CB_refcache.run ~ncores:8 ~duration:300_000 () in
  let speedup =
    eight.Workloads.Counter_bench.iters_per_sec
    /. one.Workloads.Counter_bench.iters_per_sec
  in
  Alcotest.(check bool)
    (Printf.sprintf "refcache scales (%.1fx at 8 cores)" speedup)
    true (speedup > 5.0)

(* ------------------------------------------------------------------ *)
(* Zipf sampler                                                        *)

(* An independent inverse-CDF reference: recompute the table with the
   same summation order (so the floats agree bit-for-bit) and replace
   the indexed search with a linear scan from rank 0. *)
let zipf_reference_cdf n s =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  cdf

let zipf_matches_reference =
  QCheck.Test.make ~name:"zipf matches exact inverse-CDF reference" ~count:200
    QCheck.(
      triple (int_range 1 1024) (float_bound_inclusive 3.0) (int_bound 10_000))
    (fun (n, s, seed) ->
      let z = Workloads.Zipf.create ~n ~s ~seed in
      let cdf = zipf_reference_cdf n s in
      let reference u =
        let i = ref 0 in
        while u >= cdf.(!i) do
          incr i
        done;
        !i
      in
      (* Beside random draws, the places an indexed search could go
         wrong: zero, every bucket boundary b/m (m the next power of two
         >= n) and every cdf value, each with its float neighbours, and
         the largest double below 1. *)
      let m = ref 1 in
      while !m < n do
        m := 2 * !m
      done;
      let around x = [ Float.pred x; x; Float.succ x ] in
      let boundaries =
        List.init !m (fun b -> float_of_int b /. float_of_int !m)
      in
      let fixed =
        (0.0 :: Float.pred 1.0 :: List.concat_map around boundaries)
        @ List.concat_map around (Array.to_list cdf)
      in
      let random = List.init 100 (fun _ -> Workloads.Zipf.uniform z) in
      List.for_all
        (fun u ->
          let r = Workloads.Zipf.sample_u z u in
          r = reference u && r >= 0 && r < n)
        (List.filter (fun u -> u >= 0.0 && u < 1.0) fixed @ random))

let zipf_next_in_range =
  QCheck.Test.make ~name:"zipf next never leaves [0, n)" ~count:200
    QCheck.(pair (int_range 1 100) (int_bound 10_000))
    (fun (n, seed) ->
      let z = Workloads.Zipf.create ~n ~s:1.5 ~seed in
      let ok = ref true in
      for _ = 1 to 500 do
        let r = Workloads.Zipf.next z in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

(* The property the workload actually leans on: the stream is a pure
   function of (n, s, seed) — the same on a worker domain at any pool
   width as on the main domain. *)
let test_zipf_deterministic_across_domains () =
  let stream () =
    let z = Workloads.Zipf.create ~n:64 ~s:1.1 ~seed:7 in
    List.init 2_000 (fun _ -> Workloads.Zipf.next z)
  in
  let serial = stream () in
  List.iter
    (fun jobs ->
      let results =
        Harness.Pool.run ~jobs
          (List.init 4 (fun i ->
               Harness.Pool.job ~name:(string_of_int i) stream))
      in
      List.iteri
        (fun i r ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d worker %d matches serial" jobs i)
            serial r)
        results)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Cache-serve: the model-checked session                              *)

module CS = Workloads.Cache_serve

let run_session ?(via_kernel = false) ?(compact_every = 0) ?(ops = 10_000)
    kind =
  let chk = ref None in
  let o =
    CS.Session.run ~procs:3 ~slots:64 ~ops ~rangelock:kind
      ~via_kernel ~compact_every
      ~on_machine:(fun m -> chk := Some (Check.attach m))
      ()
  in
  (o, Option.get !chk)

let check_session_clean name ((o : CS.Session.outcome), chk) =
  Alcotest.(check (list string)) (name ^ ": no divergences") [] o.divergences;
  Alcotest.(check bool) (name ^ ": hits and misses") true
    (o.hits > 0 && o.misses > 0);
  Alcotest.(check bool) (name ^ ": evictions ran") true (o.evictions > 0);
  Alcotest.(check bool) (name ^ ": dirty writebacks ran") true
    (o.writebacks > 0);
  Alcotest.(check int) (name ^ ": TLB mirror clean") 0
    (List.length (Check.tlb_violations chk));
  Alcotest.(check int) (name ^ ": refcache ledger clean") 0
    (List.length (Check.rc_violations chk));
  Alcotest.(check int) (name ^ ": no leaked locks") 0
    (List.length (Check.leaked_locks chk))

(* Satellite 2: a 10k-op serving session is divergence-free against
   Cache_model under every range-lock backend, and its observable
   history is byte-identical across them — the backend choice is a
   performance knob, never a semantics knob. *)
let test_session_identical_across_backends () =
  let sessions =
    List.map
      (fun (name, kind) -> (name, run_session kind))
      [
        ("radix", Locks.Range_lock.Radix_embedded);
        ("list", Locks.Range_lock.List_based);
        ("global", Locks.Range_lock.Global);
      ]
  in
  let _, ((first : CS.Session.outcome), _) = List.hd sessions in
  List.iter
    (fun (name, ((o : CS.Session.outcome), _chk as s)) ->
      check_session_clean name s;
      Alcotest.(check string)
        (name ^ ": history byte-identical to radix backend")
        first.history o.history)
    sessions

(* The same session driven through Os.Kernel syscalls (sys_fork per
   process, sys_mmap/sys_munmap for every slot move) observes the same
   history as direct Radixvm calls: the syscall layer adds errno
   plumbing, not semantics. *)
let test_session_kernel_matches_direct () =
  let direct, _ = run_session Locks.Range_lock.Radix_embedded in
  let (kernel, _chk) as s =
    run_session ~via_kernel:true Locks.Range_lock.Radix_embedded
  in
  check_session_clean "kernel" s;
  Alcotest.(check string) "kernel history matches direct" direct.history
    kernel.history

(* Whole-file truncate compactions (the VFS resize hook dropping every
   cached page) stay inside the model too. *)
let test_session_compaction_clean () =
  let (o, _chk) as s =
    run_session ~compact_every:4_000 Locks.Range_lock.Radix_embedded
  in
  check_session_clean "compact" s;
  Alcotest.(check int) "two compactions" 2 o.compactions

(* ------------------------------------------------------------------ *)
(* Cache-serve: the throughput workload                                *)

module CS_radix = Workloads.Cache_serve.Make (Vm.Radixvm.Default)

let test_cacheserve_progress_and_evictions () =
  let r =
    CS_radix.serve ~warmup:600_000 ~slots:64 ~evict_every:256 ~ncores:4
      ~duration:400_000 Radixvm.create
  in
  Alcotest.(check bool) "ops" true (r.CS.ops > 0);
  Alcotest.(check bool) "evictions" true (r.CS.evictions > 0);
  Alcotest.(check bool) "eviction shootdowns are real IPIs" true (r.CS.ipis > 0)

let test_cacheserve_deterministic () =
  let run () =
    CS_radix.serve ~warmup:600_000 ~slots:64 ~evict_every:256 ~ncores:4
      ~duration:400_000 Radixvm.create
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same ops" a.CS.ops b.CS.ops;
  Alcotest.(check int) "same evictions" a.CS.evictions b.CS.evictions;
  Alcotest.(check int) "same ipis" a.CS.ipis b.CS.ipis

(* ------------------------------------------------------------------ *)
(* Snapshots (Table 2)                                                 *)

let test_snapshot_measures () =
  let row = Workloads.Snapshots.measure Workloads.Snapshots.apache in
  Alcotest.(check bool) "vma bytes positive" true (row.Workloads.Snapshots.linux_vma_bytes > 0);
  Alcotest.(check bool) "pt bytes positive" true (row.Workloads.Snapshots.linux_pt_bytes > 0);
  Alcotest.(check bool) "radix bytes positive" true (row.Workloads.Snapshots.radix_bytes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "ratio in a sane band (%.1f)" row.Workloads.Snapshots.ratio)
    true
    (row.Workloads.Snapshots.ratio > 0.5 && row.Workloads.Snapshots.ratio < 8.0)

let test_snapshot_radix_costs_more_than_vma_tree () =
  let row = Workloads.Snapshots.measure Workloads.Snapshots.mysql in
  (* The paper's core observation: the radix tree is bigger than Linux's
     VMA tree alone, but a small multiple of VMA tree + page tables. *)
  Alcotest.(check bool) "radix > vma tree" true
    (row.Workloads.Snapshots.radix_bytes > row.Workloads.Snapshots.linux_vma_bytes);
  Alcotest.(check bool) "but only a few x the total" true
    (row.Workloads.Snapshots.ratio < 5.0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workloads"
    [
      ( "barrier",
        [
          tc "synchronizes" `Quick test_barrier_sync;
          tc "reusable" `Quick test_barrier_reuse;
        ] );
      ( "block_alloc",
        [
          tc "basics" `Quick test_block_alloc_basics;
          tc "per-core arenas" `Quick test_block_alloc_per_core_disjoint;
          tc "oversize rejected" `Quick test_block_alloc_rejects_oversize;
        ] );
      ( "microbench",
        [
          tc "local scales on radixvm" `Slow test_local_scales_on_radixvm;
          tc "local flat on linux" `Slow test_local_flat_on_linux;
          tc "pipeline targeted shootdowns" `Slow test_pipeline_one_shootdown_per_munmap;
          tc "global progress" `Slow test_global_progress_and_shared_frames;
        ] );
      ( "metis",
        [
          tc "runs and wins" `Slow test_metis_runs_and_wins;
          tc "unit controls mmaps" `Slow test_metis_unit_controls_mmaps;
          tc "deterministic" `Slow test_metis_deterministic;
        ] );
      ( "index bench",
        [
          tc "radix immune" `Slow test_radix_readers_immune_to_writers;
          tc "skiplist degraded" `Slow test_skiplist_readers_hurt_by_writers;
        ] );
      ( "counter bench",
        [
          tc "refcache beats shared" `Slow test_refcache_beats_shared_counter;
          tc "refcache scales" `Slow test_counter_bench_scales_refcache;
        ] );
      ( "zipf",
        [
          QCheck_alcotest.to_alcotest zipf_matches_reference;
          QCheck_alcotest.to_alcotest zipf_next_in_range;
          tc "deterministic across domains" `Quick
            test_zipf_deterministic_across_domains;
        ] );
      ( "cache_serve session",
        [
          tc "identical across backends" `Quick
            test_session_identical_across_backends;
          tc "kernel matches direct" `Quick test_session_kernel_matches_direct;
          tc "compaction clean" `Quick test_session_compaction_clean;
        ] );
      ( "cache_serve",
        [
          tc "progress and evictions" `Slow
            test_cacheserve_progress_and_evictions;
          tc "deterministic" `Slow test_cacheserve_deterministic;
        ] );
      ( "snapshots",
        [
          tc "measures" `Slow test_snapshot_measures;
          tc "radix vs vma" `Slow test_snapshot_radix_costs_more_than_vma_tree;
        ] );
    ]
