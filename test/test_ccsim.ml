(* Tests for the cache-coherent machine simulator. *)

open Ccsim

let small_params ?(ncores = 8) () = Params.default ~ncores ()
let machine ?ncores () = Machine.create (small_params ?ncores ())

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem b 1);
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 99 ] (Bitset.elements b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check (option int)) "choose" (Some 0) (Bitset.choose b);
  Bitset.clear b;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "add oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b 10);
  Alcotest.check_raises "neg" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem b (-1)))

let test_bitset_union () =
  let a = Bitset.create 70 and b = Bitset.create 70 in
  Bitset.add a 1;
  Bitset.add b 65;
  Bitset.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 65 ] (Bitset.elements a)

let bitset_model =
  QCheck.Test.make ~name:"bitset matches set model" ~count:300
    QCheck.(list (pair (int_bound 99) bool))
    (fun ops ->
      let b = Bitset.create 100 in
      let m = Hashtbl.create 16 in
      List.iter
        (fun (i, add) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace m i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove m i
          end)
        ops;
      let model = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m []) in
      Bitset.elements b = model && Bitset.cardinal b = List.length model)

(* Int_set against [Set.Make (Int)]: random add/remove/inter sequences
   over three sets, with ids spanning several 32-id leaves near zero and
   a few distant prefixes, so branches form at every level. Alongside the
   contents, the sharing contract the checker relies on: an operation
   that changes nothing returns its argument physically — including the
   intersection of a set with a one-member edit of itself, the checker's
   refinement against a held set that moved on — and a set's shape does
   not depend on the order it was built in. *)
let int_set_model =
  let module M = Set.Make (Int) in
  let id =
    QCheck.Gen.(
      map2 ( + )
        (oneofl [ 0; 0; 4_096; 1 lsl 20; 1 lsl 40; max_int - 127 ])
        (int_bound 127))
  in
  let op =
    QCheck.Gen.(
      quad
        (frequency [ (5, return `Add); (2, return `Remove); (2, return `Inter) ])
        (int_bound 2) (int_bound 2) id)
  in
  QCheck.Test.make ~name:"int_set matches set model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) op))
    (fun ops ->
      let s = Array.make 3 Int_set.empty and m = Array.make 3 M.empty in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (kind, i, j, x) ->
          let s' =
            match kind with
            | `Add ->
                let s' = Int_set.add x s.(i) in
                expect ((s' == s.(i)) = M.mem x m.(i));
                expect (Int_set.inter s.(i) s' == s.(i));
                m.(i) <- M.add x m.(i);
                s'
            | `Remove ->
                let s' = Int_set.remove x s.(i) in
                expect ((s' == s.(i)) = not (M.mem x m.(i)));
                expect (Int_set.inter s' s.(i) == s');
                m.(i) <- M.remove x m.(i);
                s'
            | `Inter ->
                let s' = Int_set.inter s.(i) s.(j) in
                if M.subset m.(i) m.(j) then expect (s' == s.(i));
                m.(i) <- M.inter m.(i) m.(j);
                s'
          in
          s.(i) <- s')
        ops;
      let mem x set =
        not (Int_set.is_empty (Int_set.inter (Int_set.add x Int_set.empty) set))
      in
      let build l = List.fold_left (fun acc x -> Int_set.add x acc) Int_set.empty l in
      let named = List.map (fun (_, _, _, x) -> x) ops in
      Array.iteri
        (fun i set ->
          expect (Int_set.is_empty set = M.is_empty m.(i));
          List.iter (fun x -> expect (mem x set = M.mem x m.(i))) named;
          let elts = M.elements m.(i) in
          expect (build elts = set);
          expect (build (List.rev elts) = set))
        s;
      !ok)

(* The query surface the line-directory miss path depends on — [mem],
   [iter]/[fold] order, [exists_other], [mem_range_other] — against the
   same naive model. The 32-bit word split and the mask arithmetic of the
   range query are exactly the kind of code an off-by-one slips into. *)
let bitset_query_model =
  QCheck.Test.make ~name:"bitset queries match set model" ~count:300
    QCheck.(
      pair
        (list (pair (int_bound 99) bool))
        (pair (int_bound 99) (pair (int_bound 100) (int_bound 100))))
    (fun (ops, (probe, (r1, r2))) ->
      let b = Bitset.create 100 in
      let m = Hashtbl.create 16 in
      List.iter
        (fun (i, add) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace m i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove m i
          end)
        ops;
      let model = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m []) in
      let mem_ok =
        List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem m i)
          (List.init 100 Fun.id)
      in
      let iter_ok =
        let seen = ref [] in
        Bitset.iter (fun i -> seen := i :: !seen) b;
        List.rev !seen = model
      in
      let fold_ok = Bitset.fold (fun _ n -> n + 1) b 0 = List.length model in
      let exists_other_ok =
        Bitset.exists_other b probe = List.exists (fun i -> i <> probe) model
      in
      let lo = min r1 r2 and hi = max r1 r2 in
      let range_ok =
        Bitset.mem_range_other b ~lo ~hi probe
        = List.exists (fun i -> i >= lo && i < hi && i <> probe) model
      in
      mem_ok && iter_ok && fold_ok && exists_other_ok && range_ok)

(* ------------------------------------------------------------------ *)
(* Cache-line cost model                                               *)

let test_private_line_is_cheap () =
  let m = machine () in
  let c = Machine.core m 0 in
  let cell = Cell.make c 0 in
  Cell.write c cell 1;
  (* first access: DRAM *)
  let t0 = Core.now c in
  for i = 2 to 100 do
    Cell.write c cell i
  done;
  let per_op = (Core.now c - t0) / 99 in
  Alcotest.(check int)
    "private writes cost an L1 hit"
    (Machine.params m).Params.l1_hit per_op

let test_contended_line_serializes () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let cell = Cell.make a 0 in
  (* Alternating writers: each write must transfer the line and queue. *)
  for _ = 1 to 10 do
    Cell.write a cell 1;
    Cell.write b cell 2
  done;
  let p = Machine.params m in
  (* Both cores were forced to at least 19 transfers' worth of time. *)
  let elapsed = max (Core.now a) (Core.now b) in
  Alcotest.(check bool)
    "serialized beyond 19 transfers" true
    (elapsed >= 19 * p.Params.local_transfer);
  Alcotest.(check bool)
    "stall cycles recorded" true
    ((Machine.stats m).Stats.line_stall_cycles > 0)

let test_read_sharing_caches () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let cell = Cell.make a 42 in
  ignore (Cell.read a cell);
  ignore (Cell.read b cell);
  let s = Machine.stats m in
  let before = Stats.total_transfers s + s.Stats.dram_fills in
  (* Re-reads by both sharers are now L1 hits. *)
  ignore (Cell.read a cell);
  ignore (Cell.read b cell);
  Alcotest.(check int)
    "no new transfers" before
    (Stats.total_transfers s + s.Stats.dram_fills);
  Alcotest.(check bool) "hits counted" true (s.Stats.l1_hits >= 2)

let test_write_invalidates_sharers () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let cell = Cell.make a 0 in
  ignore (Cell.read a cell);
  ignore (Cell.read b cell);
  Cell.write a cell 7;
  Alcotest.(check (option int)) "a owns" (Some 0) (Line.holder (Cell.line cell));
  Alcotest.(check (list int)) "no sharers" [] (Line.sharers (Cell.line cell));
  (* b must re-fetch. *)
  let s = Machine.stats m in
  let before = Stats.total_transfers s in
  Alcotest.(check int) "b rereads value" 7 (Cell.read b cell);
  Alcotest.(check bool) "transfer happened" true (Stats.total_transfers s > before)

let test_cas_semantics () =
  let m = machine () in
  let a = Machine.core m 0 in
  let cell = Cell.make a 5 in
  Alcotest.(check bool) "cas ok" true (Cell.cas a cell ~expect:5 ~update:9);
  Alcotest.(check bool) "cas fail" false (Cell.cas a cell ~expect:5 ~update:1);
  Alcotest.(check int) "value" 9 (Cell.peek cell);
  Alcotest.(check int) "fetch_add returns old" 9 (Cell.fetch_add a cell 3);
  Alcotest.(check int) "added" 12 (Cell.peek cell)

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

let test_lock_serializes () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let lock = Lock.create a in
  Lock.acquire a lock;
  Core.tick a 10_000;
  Lock.release a lock;
  let release_time = Core.now a in
  (* b, logically earlier, must wait until a's release. *)
  Lock.acquire b lock;
  Alcotest.(check bool) "b waited" true (Core.now b >= release_time);
  Lock.release b lock;
  Alcotest.(check bool)
    "contention counted" true
    ((Machine.stats m).Stats.lock_contended >= 1)

let test_rwlock_readers_concurrent () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let rw = Rwlock.create a in
  Rwlock.read_acquire a rw;
  Core.tick a 50_000;
  (* b can read while a holds the read lock: no wait to a's release. *)
  Rwlock.read_acquire b rw;
  Alcotest.(check bool) "no long reader wait" true (Core.now b < 10_000);
  Rwlock.read_release b rw;
  Rwlock.read_release a rw;
  (* but a writer waits for the last reader *)
  let c = Machine.core m 2 in
  Rwlock.write_acquire c rw;
  Alcotest.(check bool) "writer waited for readers" true (Core.now c >= 50_000);
  Rwlock.write_release c rw

let test_rwlock_writer_blocks_readers () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let rw = Rwlock.create a in
  Rwlock.write_acquire a rw;
  Core.tick a 30_000;
  Rwlock.write_release a rw;
  Rwlock.read_acquire b rw;
  Alcotest.(check bool) "reader waited" true (Core.now b >= 30_000);
  Rwlock.read_release b rw

(* With no sink installed, lock transitions allocate nothing: each
   event record is built only behind [Obs.active]. *)
let test_lock_pairs_allocate_nothing () =
  let m = machine ~ncores:1 () in
  let c = Machine.core m 0 in
  let l = Lock.create c and rw = Rwlock.create c in
  let pairs () =
    Lock.acquire c l;
    Lock.release c l;
    Rwlock.read_acquire c rw;
    Rwlock.read_release c rw;
    Rwlock.write_acquire c rw;
    Rwlock.write_release c rw
  in
  (* The first round pulls both lines into the core's cache. *)
  pairs ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    pairs ()
  done;
  Alcotest.(check (float 0.0))
    "minor words for 10,000 rounds" 0.0
    (Gc.minor_words () -. before)

(* ------------------------------------------------------------------ *)
(* TLB                                                                 *)

let pfn_of = function Some e -> Some e.Tlb.pfn | None -> None

let test_tlb_basic () =
  let t = Tlb.create ~capacity:4 () in
  Tlb.insert t ~vpn:1 ~pfn:100 ~writable:true;
  Tlb.insert t ~vpn:2 ~pfn:200 ~writable:false;
  Alcotest.(check (option int)) "hit" (Some 100) (pfn_of (Tlb.lookup t 1));
  Alcotest.(check (option int)) "miss" None (pfn_of (Tlb.lookup t 9));
  (match Tlb.lookup t 2 with
  | Some e -> Alcotest.(check bool) "permission kept" false e.Tlb.writable
  | None -> Alcotest.fail "entry 2 missing");
  Tlb.invalidate t 1;
  Alcotest.(check (option int)) "invalidated" None (pfn_of (Tlb.lookup t 1))

let test_tlb_capacity_fifo () =
  let t = Tlb.create ~capacity:3 () in
  for v = 1 to 3 do
    Tlb.insert t ~vpn:v ~pfn:v ~writable:true
  done;
  Tlb.insert t ~vpn:4 ~pfn:4 ~writable:true;
  Alcotest.(check int) "bounded" 3 (Tlb.size t);
  Alcotest.(check (option int)) "oldest evicted" None (pfn_of (Tlb.lookup t 1));
  Alcotest.(check (option int)) "newest present" (Some 4) (pfn_of (Tlb.lookup t 4))

let test_tlb_range_and_flush () =
  let t = Tlb.create ~capacity:16 () in
  for v = 0 to 9 do
    Tlb.insert t ~vpn:v ~pfn:v ~writable:true
  done;
  Tlb.invalidate_range t ~lo:3 ~hi:7;
  Alcotest.(check int) "range removed" 6 (Tlb.size t);
  Alcotest.(check bool) "3 gone" false (Tlb.mem t 3);
  Alcotest.(check bool) "7 stays" true (Tlb.mem t 7);
  Tlb.flush t;
  Alcotest.(check int) "flushed" 0 (Tlb.size t)

let test_tlb_reinsert_after_evict () =
  let t = Tlb.create ~capacity:2 () in
  Tlb.insert t ~vpn:1 ~pfn:1 ~writable:true;
  Tlb.insert t ~vpn:1 ~pfn:5 ~writable:true;
  Alcotest.(check (option int)) "replaced" (Some 5) (pfn_of (Tlb.lookup t 1));
  Alcotest.(check int) "no duplicate" 1 (Tlb.size t)

(* Invalidation leaves holes in the FIFO; eviction must still fire in
   insertion order of the *live* entries, skipping the holes. *)
let test_tlb_fifo_order_with_invalidations () =
  let t = Tlb.create ~capacity:4 () in
  for v = 1 to 4 do
    Tlb.insert t ~vpn:v ~pfn:v ~writable:true
  done;
  Tlb.invalidate t 2;
  (* Live order is now 1, 3, 4; one slot is free again. *)
  Tlb.insert t ~vpn:5 ~pfn:5 ~writable:true;
  Alcotest.(check bool) "below capacity: no eviction" true (Tlb.mem t 1);
  Tlb.insert t ~vpn:6 ~pfn:6 ~writable:true;
  Alcotest.(check bool) "oldest live (1) evicted" false (Tlb.mem t 1);
  Alcotest.(check bool) "3 survives" true (Tlb.mem t 3);
  Tlb.insert t ~vpn:7 ~pfn:7 ~writable:true;
  (* 2 left a hole: eviction skips it and takes 3, the next live entry. *)
  Alcotest.(check bool) "stale 2 skipped, 3 evicted" false (Tlb.mem t 3);
  Alcotest.(check bool) "4 survives" true (Tlb.mem t 4);
  Alcotest.(check int) "at capacity" 4 (Tlb.size t)

(* A vpn invalidated and re-inserted is as young as its re-insertion:
   the entry its first insertion queued must not evict it early. *)
let test_tlb_reinsert_after_invalidate () =
  let t = Tlb.create ~capacity:2 () in
  Tlb.insert t ~vpn:1 ~pfn:1 ~writable:true;
  Tlb.insert t ~vpn:2 ~pfn:2 ~writable:true;
  Tlb.invalidate t 1;
  Tlb.insert t ~vpn:1 ~pfn:1 ~writable:true;
  Tlb.insert t ~vpn:3 ~pfn:3 ~writable:true;
  Alcotest.(check (list bool))
    "live {1, 3}" [ true; false; true ]
    (List.map (Tlb.mem t) [ 1; 2; 3 ])

(* An munmap-heavy workload invalidates far more than it evicts. The
   FIFO must not accumulate the holes invalidation leaves: compaction
   keeps it within twice the capacity. *)
let test_tlb_queue_bounded_under_churn () =
  let cap = 8 in
  let t = Tlb.create ~capacity:cap () in
  let max_qlen = ref 0 in
  for i = 0 to 9_999 do
    Tlb.insert t ~vpn:i ~pfn:i ~writable:true;
    if i mod 3 <> 0 then Tlb.invalidate t i;
    max_qlen := max !max_qlen (Tlb.queue_length t)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "queue bounded (max observed %d)" !max_qlen)
    true
    (!max_qlen <= 2 * cap);
  Alcotest.(check bool) "live entries bounded" true (Tlb.size t <= cap)

let test_tlb_invalidate_range_paths () =
  (* Narrow range: the per-vpn loop path. *)
  let t = Tlb.create ~capacity:64 () in
  for v = 0 to 31 do
    Tlb.insert t ~vpn:v ~pfn:v ~writable:true
  done;
  Tlb.invalidate_range t ~lo:4 ~hi:8;
  Alcotest.(check int) "narrow range removed" 28 (Tlb.size t);
  for v = 4 to 7 do
    Alcotest.(check bool) "narrow: gone" false (Tlb.mem t v)
  done;
  (* Wide range (>= live count): the table-scan path. *)
  Tlb.invalidate_range t ~lo:0 ~hi:1_000_000;
  Alcotest.(check int) "wide range removed all" 0 (Tlb.size t);
  (* Surviving entries still evict in order after a range invalidation. *)
  let t2 = Tlb.create ~capacity:4 () in
  for v = 0 to 3 do
    Tlb.insert t2 ~vpn:v ~pfn:v ~writable:true
  done;
  Tlb.invalidate_range t2 ~lo:0 ~hi:2;
  Tlb.insert t2 ~vpn:10 ~pfn:10 ~writable:true;
  Tlb.insert t2 ~vpn:11 ~pfn:11 ~writable:true;
  Tlb.insert t2 ~vpn:12 ~pfn:12 ~writable:true;
  (* 2 was the oldest live entry; inserting past capacity evicts it. *)
  Alcotest.(check bool) "post-range eviction order" false (Tlb.mem t2 2);
  Alcotest.(check bool) "3 survives" true (Tlb.mem t2 3)

(* ------------------------------------------------------------------ *)
(* Ids. Line ids come from a process-global counter: two domains
   allocating concurrently must never observe the same id. Lock ids are
   numbered per machine. *)

let test_fresh_ids_domain_safe () =
  let n = 10_000 in
  let alloc fresh () = List.init n (fun _ -> fresh ()) in
  let check_disjoint name fresh =
    let d = Domain.spawn (alloc fresh) in
    let mine = alloc fresh () in
    let theirs = Domain.join d in
    let seen = Hashtbl.create (4 * n) in
    List.iter
      (fun id ->
        if Hashtbl.mem seen id then
          Alcotest.failf "%s: id %d allocated twice" name id;
        Hashtbl.add seen id ())
      (mine @ theirs);
    Alcotest.(check int)
      (name ^ ": all distinct")
      (2 * n) (Hashtbl.length seen)
  in
  check_disjoint "line ids" Obs.fresh_line_id

(* Whatever locks another machine created first, a fresh machine's first
   three locks, one of each kind, draw ids 0, 1 and 2. *)
let test_lock_ids_per_machine () =
  let earlier = Machine.core (machine ()) 0 in
  for _ = 1 to 10 do
    ignore (Lock.create earlier);
    ignore (Rwlock.create earlier)
  done;
  let c = Machine.core (machine ()) 1 in
  let l = Lock.create c in
  let rw = Rwlock.create c in
  let on =
    Lock.create_on c
      (Line.create c.Core.params c.Core.stats ~home_socket:c.Core.socket)
  in
  Alcotest.(check (list int))
    "Lock.create, Rwlock.create, Lock.create_on" [ 0; 1; 2 ]
    [ Lock.id l; Rwlock.id rw; Lock.id on ]

(* ------------------------------------------------------------------ *)
(* Physical memory                                                     *)

let test_physmem_alloc_free () =
  let m = machine () in
  let a = Machine.core m 0 in
  let pm = Machine.physmem m in
  let f1 = Physmem.alloc pm a in
  let f2 = Physmem.alloc pm a in
  Alcotest.(check bool) "distinct" true (f1 <> f2);
  Alcotest.(check int) "live" 2 (Physmem.live_frames pm);
  Physmem.free pm a f1;
  Alcotest.(check int) "live after free" 1 (Physmem.live_frames pm);
  let f3 = Physmem.alloc pm a in
  Alcotest.(check int) "frame recycled" f1 f3

let test_physmem_remote_free_goes_home () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let pm = Machine.physmem m in
  let f = Physmem.alloc pm a in
  Physmem.free pm b f;
  (* Home is core 0: core 0 reallocates it; core 1 gets a fresh frame. *)
  let fb = Physmem.alloc pm b in
  Alcotest.(check bool) "b does not reuse a's frame" true (fb <> f);
  let fa = Physmem.alloc pm a in
  Alcotest.(check int) "a reuses its frame" f fa

let test_physmem_zero_cost () =
  let m = machine () in
  let a = Machine.core m 0 in
  let t0 = Core.now a in
  ignore (Physmem.alloc (Machine.physmem m) a);
  Alcotest.(check bool)
    "alloc charges zeroing" true
    (Core.now a - t0 >= (Machine.params m).Params.page_zero)

(* ------------------------------------------------------------------ *)
(* Machine scheduler                                                   *)

let test_scheduler_runs_in_time_order () =
  let m = machine ~ncores:4 () in
  let order = ref [] in
  for i = 0 to 3 do
    let core = Machine.core m i in
    (* Different step costs: completion times interleave. *)
    let remaining = ref 3 in
    Machine.set_workload m i (fun () ->
        order := (i, Core.now core) :: !order;
        Core.tick core ((i + 1) * 100);
        decr remaining;
        !remaining > 0)
  done;
  Machine.run m;
  let times = List.rev_map snd !order in
  (* The scheduler picked the min-clock core each time, so observation
     times are non-decreasing. *)
  let sorted = List.sort compare times in
  Alcotest.(check (list int)) "time ordered" sorted times

let test_run_for_horizon () =
  let m = machine ~ncores:2 () in
  let iters = ref 0 in
  for i = 0 to 1 do
    let core = Machine.core m i in
    Machine.set_workload m i (fun () ->
        incr iters;
        Core.tick core 1000;
        true)
  done;
  Machine.run_for m ~cycles:100_000;
  Alcotest.(check bool) "ran about 200 iters" true (!iters >= 190 && !iters <= 210)

let test_run_for_horizon_edges () =
  let m = machine ~ncores:2 () in
  let iters = ref 0 in
  for i = 0 to 1 do
    let core = Machine.core m i in
    Machine.set_workload m i (fun () ->
        incr iters;
        Core.tick core 1_000;
        true)
  done;
  (* A zero horizon retires every core before its first step. *)
  Machine.run_for m ~cycles:0;
  Alcotest.(check int) "zero horizon runs nothing" 0 !iters;
  (* Cores step while strictly before the horizon, so a 1-cycle horizon
     admits exactly one step per core. *)
  Machine.run_for m ~cycles:1;
  Alcotest.(check int) "one step per core" 2 !iters;
  (* Workloads stay installed: a later call with a larger horizon resumes
     from where the cores stopped, not from zero. *)
  Machine.run_for m ~cycles:100_000;
  Alcotest.(check int) "resumed to the larger horizon" 200 !iters;
  Alcotest.(check bool) "clocks at the horizon" true (Machine.elapsed m >= 100_000)

let test_maintenance_fires_per_core () =
  let m = machine ~ncores:3 () in
  let fired = Array.make 3 0 in
  Machine.add_maintenance m ~period:10_000 (fun core ->
      fired.(core.Core.id) <- fired.(core.Core.id) + 1);
  for i = 0 to 2 do
    let core = Machine.core m i in
    Machine.set_workload m i (fun () ->
        Core.tick core 500;
        Core.now core < 100_000)
  done;
  Machine.run m;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d fired ~10 times" i)
        true
        (n >= 9 && n <= 11))
    fired

let test_drain_advances_maintenance () =
  let m = machine ~ncores:2 () in
  let fired = ref 0 in
  Machine.add_maintenance m ~period:5_000 (fun _ -> incr fired);
  Machine.drain m ~cycles:50_000;
  (* 2 cores x 10 periods *)
  Alcotest.(check bool) "about 20 firings" true (!fired >= 18 && !fired <= 22)

let test_drain_horizon_edges () =
  let m = machine ~ncores:2 () in
  let fired = ref 0 in
  Machine.add_maintenance m ~period:5_000 (fun _ -> incr fired);
  (* A zero-cycle drain fires nothing: the first hook is strictly in the
     future. *)
  Machine.drain m ~cycles:0;
  Alcotest.(check int) "zero drain fires nothing" 0 !fired;
  (* The target boundary is inclusive: draining exactly to the period
     fires core 0's hook (first firings are staggered per core, so core
     1's lands a fraction of a period later), and time lands on the
     target. *)
  Machine.drain m ~cycles:5_000;
  Alcotest.(check int) "boundary hook fired on core 0" 1 !fired;
  Alcotest.(check int) "time advanced to the target" 5_000 (Machine.elapsed m);
  (* Draining past the stagger picks up core 1's first firing too. *)
  Machine.drain m ~cycles:2_000;
  Alcotest.(check int) "staggered hook fired on core 1" 2 !fired;
  Alcotest.(check int) "time at the second target" 7_000 (Machine.elapsed m)

(* The scheduler against its definition: every step runs on the active
   core with the least (clock + pending_intr, id), and [wait_hint] lands
   just past the earliest other active core, both computed by a scan
   over the cores this test knows to be active. Step costs come from a
   small set, so ties are common. Steps send IPIs that interrupt other
   cores, retire, and install workloads on idle cores; a maintenance
   hook charges time; a [run_for] stops at a horizon, a [drain] follows,
   and [run] resumes to completion. *)
let scheduler_model =
  QCheck.Test.make ~name:"scheduler steps the least (time, id) core"
    ~count:200
    QCheck.(pair (int_range 1 80) (int_bound 1_000_000))
    (fun (ncores, seed) ->
      let m = machine ~ncores () in
      let rng = Random.State.make [| seed |] in
      let costs = [| 0; 1; 2; 3; 40; 150 |] in
      let cost () = costs.(Random.State.int rng (Array.length costs)) in
      let eff (c : Core.t) = c.Core.clock + c.Core.pending_intr in
      let active = Array.make ncores false in
      (* [checked.(i)]: core [i]'s pick was already checked by the
         maintenance hook that ran just before its step. *)
      let checked = Array.make ncores false in
      let draining = ref false in
      let revivals = ref (2 * ncores) in
      let least ~except =
        let best = ref (-1) and best_time = ref max_int in
        for i = 0 to ncores - 1 do
          if active.(i) && i <> except then begin
            let e = eff (Machine.core m i) in
            if e < !best_time then begin
              best := i;
              best_time := e
            end
          end
        done;
        !best
      in
      let check_pick (core : Core.t) =
        let want = least ~except:(-1) in
        if want <> core.Core.id then
          QCheck.Test.fail_reportf
            "stepped core %d at %d, but core %d at %d orders before it"
            core.Core.id (eff core) want
            (eff (Machine.core m want))
      in
      let check_wait_hint (core : Core.t) =
        let other = least ~except:core.Core.id in
        let poll = core.Core.clock + (16 * (Machine.params m).Params.op_cost) in
        let want =
          if other < 0 then poll else max poll (eff (Machine.core m other) + 1)
        in
        Machine.wait_hint m core;
        if core.Core.clock <> want then
          QCheck.Test.fail_reportf "wait_hint on core %d landed at %d, not %d"
            core.Core.id core.Core.clock want
      in
      let rec start i steps =
        active.(i) <- true;
        let core = Machine.core m i in
        let left = ref steps in
        Machine.set_workload m i (fun () ->
            if checked.(i) then checked.(i) <- false else check_pick core;
            Core.tick core (cost ());
            (match Random.State.int rng 10 with
            | 0 | 1 ->
                (* Ipi.multicast charges each target's handler through
                   Core.interrupt, and skips the sender. *)
                Ipi.multicast m core ~targets:[ Random.State.int rng ncores ]
            | 2 ->
                let j = Random.State.int rng ncores in
                if (not active.(j)) && !revivals > 0 then begin
                  decr revivals;
                  start j (1 + Random.State.int rng 8)
                end
            | 3 -> check_wait_hint core
            | _ -> ());
            decr left;
            active.(i) <- !left > 0;
            active.(i))
      in
      if Random.State.bool rng then
        Machine.add_maintenance m
          ~period:(50 + Random.State.int rng 500)
          (fun core ->
            let i = core.Core.id in
            if active.(i) && (not !draining) && not checked.(i) then begin
              check_pick core;
              checked.(i) <- true
            end;
            Core.tick core (cost ()));
      for i = 0 to ncores - 1 do
        if Random.State.int rng 4 > 0 then start i (1 + Random.State.int rng 30)
      done;
      let horizon = Random.State.int rng 3_000 in
      Machine.run_for m ~cycles:horizon;
      let first = least ~except:(-1) in
      if first >= 0 && eff (Machine.core m first) < horizon then
        QCheck.Test.fail_reportf "run_for stopped with core %d before %d" first
          horizon;
      draining := true;
      Machine.drain m ~cycles:(Random.State.int rng 2_000);
      draining := false;
      Machine.run m;
      Machine.idle m && not (Array.exists Fun.id active))

(* ------------------------------------------------------------------ *)
(* IPIs                                                                *)

let test_ipi_waits_for_acks () =
  let m = machine () in
  let a = Machine.core m 0 in
  let p = Machine.params m in
  Ipi.multicast m a ~targets:[ 1; 2; 3 ];
  Alcotest.(check bool)
    "sender waited for handler acks" true
    (Core.now a >= p.Params.ipi_deliver + p.Params.ipi_handler);
  Alcotest.(check int) "3 ipis" 3 (Machine.stats m).Stats.ipis;
  (* Targets carry pending handler costs. *)
  Alcotest.(check int)
    "target charged"
    p.Params.ipi_handler
    (Machine.core m 1).Core.pending_intr

let test_ipi_channel_serializes_senders () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  Ipi.multicast m a ~targets:[ 2 ];
  Ipi.multicast m b ~targets:[ 3 ];
  let p = Machine.params m in
  (* b's send queued behind a's interconnect occupancy, then paid its own
     full send + delivery + handler-ack wait. *)
  Alcotest.(check bool)
    "second sender delayed" true
    (Core.now b
    >= p.Params.ipi_channel + p.Params.ipi_send + p.Params.ipi_deliver
       + p.Params.ipi_handler)

let test_ipi_sender_serial_per_target () =
  let m = machine () in
  let a = Machine.core m 0 in
  let p = Machine.params m in
  (* Broadcast to 6 targets: the sender's APIC protocol is serial per
     target, so the sender is busy at least 6 * ipi_send cycles. *)
  Ipi.multicast m a ~targets:[ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool)
    "sender serial cost" true
    (Core.now a >= 6 * p.Params.ipi_send)

let test_ipi_self_skip () =
  let m = machine () in
  let a = Machine.core m 0 in
  Ipi.multicast m a ~targets:[ 0 ];
  Alcotest.(check int) "no self ipi" 0 (Machine.stats m).Stats.ipis

(* Ipi delivers through Core.interrupt, which only accrues: the handler
   cost reaches the clock when the core next reads it. *)
let test_interrupt_folds_at_next_step () =
  let c = Machine.core (machine ()) 1 in
  let t0 = Core.now c in
  Core.interrupt c ~cycles:100;
  Core.interrupt c ~cycles:50;
  Alcotest.(check int) "clock untouched" t0 c.Core.clock;
  Alcotest.(check int) "costs accrue" 150 c.Core.pending_intr;
  Alcotest.(check int) "folded" (t0 + 150) (Core.now c);
  Alcotest.(check int) "pending cleared" 0 c.Core.pending_intr;
  Alcotest.check_raises "negative cost" (Invalid_argument "Core.interrupt")
    (fun () -> Core.interrupt c ~cycles:(-1))

(* ------------------------------------------------------------------ *)
(* Channels                                                            *)

let test_channel_delivery_time () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let ch = Channel.create a in
  Core.tick a 5_000;
  Channel.send a ch 42;
  (* b is logically at time ~0, but the queue's cache line is busy until
     the send completes: b's receive stalls past the send time. *)
  Alcotest.(check (option int)) "delivered" (Some 42) (Channel.recv b ch);
  Alcotest.(check bool) "receive not before send" true (Core.now b >= 5_000);
  Alcotest.(check (option int)) "drained" None (Channel.recv b ch)

let test_channel_fifo () =
  let m = machine () in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let ch = Channel.create a in
  Channel.send a ch 1;
  Channel.send a ch 2;
  Core.tick b 1_000;
  Alcotest.(check (option int)) "first" (Some 1) (Channel.recv b ch);
  Alcotest.(check (option int)) "second" (Some 2) (Channel.recv b ch)

(* ------------------------------------------------------------------ *)
(* Stats conservation: every charged access lands in exactly one of the
   four coherence counters, and the checker sees exactly one event for
   it, so the counter sum must equal the checker's access count. *)

let test_stats_conservation () =
  let m = machine ~ncores:4 () in
  let chk = Check.attach m in
  let a = Machine.core m 0 and b = Machine.core m 1 in
  let l = Line.create ~label:"t" a.Core.params a.Core.stats ~home_socket:0 in
  let c = Cell.make a 0 in
  let lk = Lock.create a in
  (* A hand-picked mix: DRAM fills, local/remote transfers, L1 hits,
     atomics, and lock traffic (whose internal write is quiet but whose
     acquire/release events stand in for it one-for-one). *)
  Line.read a l;
  Line.read a l;
  Line.write b l;
  Line.read a l;
  Line.write_atomic a l;
  Cell.write a c 1;
  ignore (Cell.read b c);
  ignore (Cell.fetch_add b c 1);
  Lock.acquire a lk;
  Lock.release a lk;
  Lock.acquire b lk;
  Lock.release b lk;
  let s = Machine.stats m in
  Alcotest.(check int) "sum of coherence counters = observed accesses"
    (Check.accesses chk)
    (s.Stats.l1_hits + s.Stats.transfers_local + s.Stats.transfers_remote
   + s.Stats.dram_fills);
  Alcotest.(check bool) "nonzero work" true (Check.accesses chk > 0)

(* ------------------------------------------------------------------ *)

(* Random op sequences against the TLB's contract: a plain FIFO of the
   live vpns, ordered by when each last became live. Inserting a cached
   vpn updates its translation in place; invalidation forgets a vpn
   entirely, so re-inserting it joins the back of the queue. The model
   never holds a hole or a stale entry, so contents agreement is exactly
   the claim that the TLB's holes and their compaction leave eviction
   order alone. The queue-length bound is also asserted after every op:
   holes are squeezed out when the queue fills its ring of twice the
   capacity (a power of two here). The vpns come in three runs 32 apart:
   the table has 32 slots, so each run shares its home slots with the
   others and removals have probe chains to shift. *)
let tlb_model =
  let cap = 8 in
  let universe = 3 * cap in
  let vpn_of i = (i mod 8) + (32 * (i / 8)) in
  QCheck.Test.make ~name:"tlb matches fifo model" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 120)
        (tup3 (int_bound 9) (int_bound (universe - 1)) (int_bound (universe - 1))))
    (fun ops ->
      let t = Tlb.create ~capacity:cap () in
      let live = Hashtbl.create 16 in
      let fifo = ref [] in  (* live vpns, oldest first *)
      let forget vpn =
        Hashtbl.remove live vpn;
        fifo := List.filter (( <> ) vpn) !fifo
      in
      let ok = ref true in
      List.iter
        (fun (tag, a, b) ->
          let a = vpn_of a and b = vpn_of b in
          (match tag with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              (* insert: value derived from the op so updates are visible *)
              let pfn = (a * 7) + b and writable = b land 1 = 1 in
              Tlb.insert t ~vpn:a ~pfn ~writable;
              if not (Hashtbl.mem live a) then begin
                (match !fifo with
                | oldest :: _ when Hashtbl.length live >= cap -> forget oldest
                | _ -> ());
                fifo := !fifo @ [ a ]
              end;
              Hashtbl.replace live a (pfn, writable)
          | 6 | 7 ->
              Tlb.invalidate t a;
              forget a
          | 8 ->
              let lo = min a b and hi = max a b in
              Tlb.invalidate_range t ~lo ~hi;
              for vpn = lo to hi - 1 do
                forget vpn
              done
          | _ ->
              Tlb.flush t;
              Hashtbl.reset live;
              fifo := []);
          if Tlb.size t <> Hashtbl.length live then ok := false;
          if Tlb.queue_length t > 2 * cap then ok := false)
        ops;
      let lookups_agree =
        List.for_all
          (fun vpn ->
            match (Tlb.lookup t vpn, Hashtbl.find_opt live vpn) with
            | None, None -> true
            | Some e, Some (pfn, writable) ->
                e.Tlb.pfn = pfn && e.Tlb.writable = writable
            | _ -> false)
          (List.init universe vpn_of)
      in
      !ok && lookups_agree)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "ccsim"
    [
      ( "bitset",
        [
          tc "basic" `Quick test_bitset_basic;
          tc "bounds" `Quick test_bitset_bounds;
          tc "union" `Quick test_bitset_union;
          QCheck_alcotest.to_alcotest bitset_model;
          QCheck_alcotest.to_alcotest bitset_query_model;
        ] );
      ("int_set", [ QCheck_alcotest.to_alcotest int_set_model ]);
      ( "line",
        [
          tc "private line cheap" `Quick test_private_line_is_cheap;
          tc "contended line serializes" `Quick test_contended_line_serializes;
          tc "read sharing caches" `Quick test_read_sharing_caches;
          tc "write invalidates" `Quick test_write_invalidates_sharers;
          tc "cas semantics" `Quick test_cas_semantics;
        ] );
      ( "lock",
        [
          tc "serializes" `Quick test_lock_serializes;
          tc "rwlock readers" `Quick test_rwlock_readers_concurrent;
          tc "rwlock writer" `Quick test_rwlock_writer_blocks_readers;
          tc "no allocation without a sink" `Quick
            test_lock_pairs_allocate_nothing;
        ] );
      ( "tlb",
        [
          tc "basic" `Quick test_tlb_basic;
          tc "capacity fifo" `Quick test_tlb_capacity_fifo;
          tc "range and flush" `Quick test_tlb_range_and_flush;
          tc "reinsert" `Quick test_tlb_reinsert_after_evict;
          tc "fifo order with invalidations" `Quick
            test_tlb_fifo_order_with_invalidations;
          tc "reinsert after invalidate" `Quick
            test_tlb_reinsert_after_invalidate;
          tc "queue bounded under churn" `Quick
            test_tlb_queue_bounded_under_churn;
          QCheck_alcotest.to_alcotest tlb_model;
          tc "invalidate_range paths" `Quick test_tlb_invalidate_range_paths;
        ] );
      ( "ids",
        [
          tc "domain-safe counters" `Quick test_fresh_ids_domain_safe;
          tc "lock ids numbered per machine" `Quick test_lock_ids_per_machine;
        ] );
      ( "physmem",
        [
          tc "alloc free" `Quick test_physmem_alloc_free;
          tc "remote free home" `Quick test_physmem_remote_free_goes_home;
          tc "zero cost" `Quick test_physmem_zero_cost;
        ] );
      ( "machine",
        [
          tc "time order" `Quick test_scheduler_runs_in_time_order;
          tc "run_for horizon" `Quick test_run_for_horizon;
          tc "run_for edges" `Quick test_run_for_horizon_edges;
          tc "maintenance" `Quick test_maintenance_fires_per_core;
          tc "drain" `Quick test_drain_advances_maintenance;
          tc "drain edges" `Quick test_drain_horizon_edges;
          QCheck_alcotest.to_alcotest scheduler_model;
        ] );
      ( "ipi",
        [
          tc "waits for acks" `Quick test_ipi_waits_for_acks;
          tc "channel serializes" `Quick test_ipi_channel_serializes_senders;
          tc "sender serial" `Quick test_ipi_sender_serial_per_target;
          tc "self skip" `Quick test_ipi_self_skip;
          tc "interrupt folds at next step" `Quick
            test_interrupt_folds_at_next_step;
        ] );
      ( "conservation",
        [ tc "counters sum to accesses" `Quick test_stats_conservation ] );
      ( "channel",
        [
          tc "delivery time" `Quick test_channel_delivery_time;
          tc "fifo" `Quick test_channel_fifo;
        ] );
    ]
