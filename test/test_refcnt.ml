(* Tests for Refcache (Figure 2) and the rival counting schemes. *)

open Ccsim
module Refcache = Refcnt.Refcache

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

(* ------------------------------------------------------------------ *)
(* Refcache basics                                                     *)

let test_free_after_zero () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 in
  let freed = ref 0 in
  let obj = Refcache.make_obj rc c0 ~init:1 ~free:(fun _ -> incr freed) in
  Refcache.dec rc c0 obj;
  Alcotest.(check int) "true count zero" 0 (Refcache.true_count rc obj);
  Alcotest.(check int) "not freed yet" 0 !freed;
  drain_epochs m 5;
  Alcotest.(check int) "freed exactly once" 1 !freed;
  Alcotest.(check bool) "marked freed" true (Refcache.is_freed obj)

(* With no sink installed, reference-count transitions allocate nothing:
   each event record is built only behind [Obs.active]. The machine has
   no checker, unlike the rest of this file. *)
let test_inc_dec_allocate_nothing () =
  let m = Machine.create (Params.default ~ncores:1 ~epoch_cycles:epoch ()) in
  let rc = Refcache.create m in
  let c = Machine.core m 0 in
  let obj = Refcache.make_obj rc c ~init:1 ~free:(fun _ -> ()) in
  (* The first pair claims a delta-cache slot and queues it for flush. *)
  Refcache.inc rc c obj;
  Refcache.dec rc c obj;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Refcache.inc rc c obj;
    Refcache.dec rc c obj
  done;
  Alcotest.(check (float 0.0))
    "minor words for 10,000 inc+dec pairs" 0.0
    (Gc.minor_words () -. before)

let test_not_freed_while_referenced () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 in
  let freed = ref 0 in
  let obj = Refcache.make_obj rc c0 ~init:2 ~free:(fun _ -> incr freed) in
  Refcache.dec rc c0 obj;
  drain_epochs m 5;
  Alcotest.(check int) "still alive" 0 !freed;
  Alcotest.(check int) "count one" 1 (Refcache.true_count rc obj);
  Refcache.dec rc c0 obj;
  drain_epochs m 5;
  Alcotest.(check int) "now freed" 1 !freed

let test_batching_no_global_writes () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 in
  let obj = Refcache.make_obj rc c0 ~init:1 ~free:(fun _ -> ()) in
  let s = Machine.stats m in
  let transfers_before = Stats.total_transfers s + s.Stats.dram_fills in
  (* Paired inc/dec on one core: pure delta-cache traffic, cancels before
     any flush; the global count line is never touched. *)
  for _ = 1 to 1_000 do
    Refcache.inc rc c0 obj;
    Refcache.dec rc c0 obj
  done;
  Alcotest.(check int)
    "no cache-line movement" transfers_before
    (Stats.total_transfers s + s.Stats.dram_fills);
  Alcotest.(check int) "count intact" 1 (Refcache.true_count rc obj)

let test_reordered_flush_no_false_free () =
  (* Epoch-2 scenario from Figure 1: core 0's decrement flushes before
     core 1's increment, so the global count transiently reads zero even
     though the true count is 1. The object must survive. *)
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let freed = ref 0 in
  let obj = Refcache.make_obj rc c0 ~init:1 ~free:(fun _ -> incr freed) in
  Refcache.inc rc c1 obj;
  Refcache.dec rc c0 obj;
  Alcotest.(check int) "true count one" 1 (Refcache.true_count rc obj);
  drain_epochs m 6;
  Alcotest.(check int) "survived reordered flushes" 0 !freed;
  Alcotest.(check int) "count still one" 1 (Refcache.true_count rc obj)

let test_dirty_zero_delays_but_frees () =
  (* Drive the count 0 -> 1 -> 0 across epochs so a dirty zero occurs;
     the object must still be freed in the end, exactly once. *)
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let freed = ref 0 in
  let obj = Refcache.make_obj rc c0 ~init:1 ~free:(fun _ -> incr freed) in
  Refcache.dec rc c0 obj;
  drain_epochs m 1;
  (* It is now on a review queue with a zero global count. Revive and
     re-kill it from another core, with a flush in between so the global
     count actually leaves and returns to zero (a dirty zero). *)
  Refcache.inc rc c1 obj;
  drain_epochs m 1;
  Alcotest.(check int) "alive mid-revival" 0 !freed;
  Refcache.dec rc c1 obj;
  drain_epochs m 8;
  Alcotest.(check int) "freed exactly once" 1 !freed

(* ------------------------------------------------------------------ *)
(* Weak references                                                     *)

let test_tryget_revives () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 and c1 = Machine.core m 1 in
  let freed = ref 0 in
  let obj, weak =
    Refcache.make_weak_obj rc c0 ~init:1 ~free:(fun _ -> incr freed)
  in
  Refcache.dec rc c0 obj;
  drain_epochs m 1;
  (* On a review queue, dying. Revive it. *)
  (match Refcache.tryget rc c1 weak with
  | Some o -> Alcotest.(check bool) "same object" true (o == obj)
  | None -> Alcotest.fail "tryget failed before free");
  drain_epochs m 6;
  Alcotest.(check int) "revived object not freed" 0 !freed;
  Alcotest.(check int) "count one" 1 (Refcache.true_count rc obj);
  (* Drop the revived reference: now it must die. *)
  Refcache.dec rc c1 obj;
  drain_epochs m 6;
  Alcotest.(check int) "freed after final dec" 1 !freed

let test_tryget_after_free () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 in
  let obj, weak = Refcache.make_weak_obj rc c0 ~init:1 ~free:(fun _ -> ()) in
  Refcache.dec rc c0 obj;
  drain_epochs m 5;
  Alcotest.(check bool) "freed" true (Refcache.is_freed obj);
  Alcotest.(check bool) "tryget fails" true
    (Refcache.tryget rc c0 weak = None)

let test_zero_init_object_reviewed () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 in
  let freed = ref 0 in
  let _obj = Refcache.make_obj rc c0 ~init:0 ~free:(fun _ -> incr freed) in
  Alcotest.(check bool) "queued" true (Refcache.pending_review rc > 0);
  drain_epochs m 5;
  Alcotest.(check int) "freed" 1 !freed

let test_zero_init_revived_by_inc () =
  let m = machine () in
  let rc = Refcache.create m in
  let c0 = Machine.core m 0 in
  let freed = ref 0 in
  let obj = Refcache.make_obj rc c0 ~init:0 ~free:(fun _ -> incr freed) in
  Refcache.inc rc c0 obj;
  drain_epochs m 6;
  Alcotest.(check int) "revived by early inc" 0 !freed;
  Refcache.dec rc c0 obj;
  drain_epochs m 6;
  Alcotest.(check int) "then freed" 1 !freed

(* ------------------------------------------------------------------ *)
(* Host reachability: a delta-cache slot keeps its object reachable only
   while it holds a pending delta. Each object is made in a function of
   its own, so no stack slot of the test keeps it alive, and the test
   holds it only through a weak pointer. *)

let[@inline never] make_watched rc m ~init weak =
  let obj =
    Refcache.make_obj rc (Machine.core m 0) ~init ~free:(fun _ -> ())
  in
  Weak.set weak 0 (Some obj)

(* Apply [f] to the watched object, in a frame of its own. *)
let[@inline never] with_watched weak f =
  match Weak.get weak 0 with
  | Some obj -> f obj
  | None -> Alcotest.fail "collected while referenced"

let[@inline never] watched_freed weak =
  match Weak.get weak 0 with Some obj -> Refcache.is_freed obj | None -> true

let check_collected weak =
  Gc.full_major ();
  Alcotest.(check bool) "collected" false (Weak.check weak 0)

let test_freed_obj_collected () =
  let m = machine () in
  let rc = Refcache.create m in
  let weak = Weak.create 1 in
  make_watched rc m ~init:1 weak;
  (* One inc and one dec on cores 1 and 2, then the dec to zero on 0. *)
  with_watched weak (fun obj ->
      List.iter
        (fun c ->
          Refcache.inc rc (Machine.core m c) obj;
          Refcache.dec rc (Machine.core m c) obj)
        [ 1; 2 ];
      Refcache.dec rc (Machine.core m 0) obj);
  let epochs = ref 0 in
  while not (watched_freed weak) do
    if !epochs = 10 then Alcotest.fail "not freed within 10 epochs";
    drain_epochs m 1;
    incr epochs
  done;
  check_collected weak

(* The count stays 2, so Refcache never frees it; once every core has
   flushed, nothing of Refcache's keeps it reachable. *)
let test_dropped_live_obj_collected () =
  let m = machine () in
  let rc = Refcache.create m in
  let weak = Weak.create 1 in
  make_watched rc m ~init:1 weak;
  with_watched weak (Refcache.inc rc (Machine.core m 1));
  drain_epochs m 2;
  check_collected weak

(* ------------------------------------------------------------------ *)
(* Refcache property test                                              *)

type rc_op = Inc of int | Dec of int | Settle

let rc_op_gen ncores =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun c -> Inc c) (int_bound (ncores - 1)));
        (4, map (fun c -> Dec c) (int_bound (ncores - 1)));
        (1, return Settle);
      ])

let rc_op_print = function
  | Inc c -> Printf.sprintf "inc@%d" c
  | Dec c -> Printf.sprintf "dec@%d" c
  | Settle -> "settle"

let refcache_linearizable =
  let ncores = 4 in
  QCheck.Test.make ~name:"refcache frees iff true count stays zero" ~count:60
    QCheck.(make ~print:(fun l -> String.concat "," (List.map rc_op_print l))
              (QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) (rc_op_gen ncores)))
    (fun ops ->
      let m = machine ~ncores () in
      let rc = Refcache.create m in
      let c0 = Machine.core m 0 in
      let freed = ref 0 in
      let obj = Refcache.make_obj rc c0 ~init:1 ~free:(fun _ -> incr freed) in
      let oracle = ref 1 in
      let ok = ref true in
      List.iter
        (fun op ->
          if !oracle > 0 then
            match op with
            | Inc c ->
                Refcache.inc rc (Machine.core m c) obj;
                incr oracle
            | Dec c when !oracle > 1 ->
                Refcache.dec rc (Machine.core m c) obj;
                decr oracle
            | Dec _ -> ()
            | Settle ->
                drain_epochs m 3;
                (* alive references outstanding: must not be freed *)
                if !freed > 0 then ok := false)
        ops;
      if not !ok then false
      else begin
        (* Release every outstanding reference and settle. *)
        while !oracle > 0 do
          Refcache.dec rc c0 obj;
          decr oracle
        done;
        drain_epochs m 8;
        !freed = 1 && Refcache.is_freed obj
      end)

(* ------------------------------------------------------------------ *)
(* Delta-cache model                                                   *)

(* A reference model of the per-core delta cache, kept as one record per
   slot: two-way set-associative over [hash seq land mask], both ways
   busy evicts the smaller-|delta| way, and flush evicts every slot
   touched since the last flush in ascending slot order. Eviction order
   is observable (line-stall timing, lock events), so the test reads the
   real cache's evictions back as object-lock acquisitions — while no
   count reaches zero, an eviction is the only thing that takes an
   object's lock — and requires the model's sequence exactly, plus every
   object's true count. A small cache makes objects collide. *)

type dc_op = Bump of { core : int; obj : int; d : int } | Flush of int

let dc_ncores = 3
let dc_nobjs = 6
let dc_slots = 4
let dc_init = 1_000

let dc_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun core obj up -> Bump { core; obj; d = (if up then 1 else -1) })
            (int_bound (dc_ncores - 1))
            (int_bound (dc_nobjs - 1))
            bool );
        (1, map (fun c -> Flush c) (int_bound (dc_ncores - 1)));
      ])

let dc_op_print = function
  | Bump { core; obj; d } -> Printf.sprintf "%+d:o%d@%d" d obj core
  | Flush c -> Printf.sprintf "flush@%d" c

type model_slot = {
  mutable m_obj : int;  (* -1 = empty *)
  mutable m_delta : int;
  mutable m_queued : bool;
}

(* The model's evictions as (core, object) in order, and each object's
   true count. *)
let dc_model ops =
  let mask = dc_slots - 1 in
  let slots =
    Array.init dc_ncores (fun _ ->
        Array.init dc_slots (fun _ ->
            { m_obj = -1; m_delta = 0; m_queued = false }))
  in
  let dirty = Array.make dc_ncores [] in
  let global = Array.make dc_nobjs dc_init in
  let evictions = ref [] in
  let evict core o d =
    global.(o) <- global.(o) + d;
    evictions := (core, o) :: !evictions
  in
  let bump core o d =
    let way0 = o * 0x9E3779B1 land mask land lnot 1 in
    let s0 = slots.(core).(way0) and s1 = slots.(core).(way0 lor 1) in
    let i =
      if s0.m_obj = o then way0
      else if s1.m_obj = o then way0 lor 1
      else if s0.m_obj < 0 then way0
      else if s1.m_obj < 0 then way0 lor 1
      else begin
        let i = if abs s0.m_delta <= abs s1.m_delta then way0 else way0 lor 1 in
        let v = slots.(core).(i) in
        if v.m_delta <> 0 then evict core v.m_obj v.m_delta;
        v.m_obj <- -1;
        v.m_delta <- 0;
        i
      end
    in
    let s = slots.(core).(i) in
    if s.m_obj <> o then begin
      s.m_obj <- o;
      s.m_delta <- 0
    end;
    s.m_delta <- s.m_delta + d;
    if not s.m_queued then begin
      s.m_queued <- true;
      dirty.(core) <- i :: dirty.(core)
    end
  in
  let flush core =
    List.iter
      (fun i ->
        let s = slots.(core).(i) in
        s.m_queued <- false;
        if s.m_obj >= 0 && s.m_delta <> 0 then begin
          evict core s.m_obj s.m_delta;
          s.m_delta <- 0
        end)
      (List.sort Int.compare dirty.(core));
    dirty.(core) <- []
  in
  List.iter
    (function Bump { core; obj; d } -> bump core obj d | Flush c -> flush c)
    ops;
  let true_count o =
    Array.fold_left
      (fun acc core ->
        Array.fold_left
          (fun acc s -> if s.m_obj = o then acc + s.m_delta else acc)
          acc core)
      global.(o) slots
  in
  (List.rev !evictions, List.init dc_nobjs true_count)

let dc_real ops =
  let m =
    Machine.create (Params.default ~ncores:dc_ncores ~epoch_cycles:epoch ())
  in
  let rc = Refcache.create ~cache_slots:dc_slots m in
  let c0 = Machine.core m 0 in
  (* Created in index order, so object [i] is the instance's [i]th
     object, the sequence number the cache hashes. *)
  let objs =
    Array.init dc_nobjs (fun i ->
        Refcache.make_obj ~label:(Printf.sprintf "dc%d" i) rc c0 ~init:dc_init
          ~free:(fun _ -> ()))
  in
  let evictions = ref [] in
  Obs.set_sink (Machine.obs m)
    (Some
       (function
       | Obs.Acquire { core; label; _ } -> (
           match Scanf.sscanf_opt label "dc%d%!" Fun.id with
           | Some o -> evictions := (core, o) :: !evictions
           | None -> ())
       | _ -> ()));
  List.iter
    (function
      | Bump { core; obj; d } ->
          let c = Machine.core m core in
          if d > 0 then Refcache.inc rc c objs.(obj)
          else Refcache.dec rc c objs.(obj)
      | Flush c -> Refcache.flush rc (Machine.core m c))
    ops;
  ( List.rev !evictions,
    List.init dc_nobjs (fun i -> Refcache.true_count rc objs.(i)) )

let delta_cache_model =
  QCheck.Test.make ~name:"delta cache evicts as the record model" ~count:300
    QCheck.(
      make
        ~print:(fun l -> String.concat "," (List.map dc_op_print l))
        (QCheck.Gen.list_size (QCheck.Gen.int_range 1 80) dc_op_gen))
    (fun ops -> dc_real ops = dc_model ops)

(* ------------------------------------------------------------------ *)
(* Counter schemes through the common interface                        *)

module Counter_suite (C : Refcnt.Counter_intf.S) = struct
  (* [deferred] distinguishes Refcache (zero detected epochs later) from
     the immediate schemes. *)
  let tests ~deferred =
    let settle m = if deferred then drain_epochs m 5 in
    let test_value_tracking () =
      let m = machine () in
      let sub = C.create m in
      let h =
        C.make sub (Machine.core m 0) ~init:3 ~on_free:(fun _ -> ())
      in
      C.inc sub (Machine.core m 1) h;
      C.inc sub (Machine.core m 2) h;
      C.dec sub (Machine.core m 1) h;
      settle m;
      Alcotest.(check int) "value" 4 (C.value sub h)
    in
    let test_free_on_zero () =
      let m = machine () in
      let sub = C.create m in
      let freed = ref 0 in
      let h =
        C.make sub (Machine.core m 0) ~init:2 ~on_free:(fun _ -> incr freed)
      in
      C.dec sub (Machine.core m 1) h;
      settle m;
      Alcotest.(check int) "alive at one" 0 !freed;
      C.dec sub (Machine.core m 2) h;
      settle m;
      Alcotest.(check int) "freed once at zero" 1 !freed
    in
    let test_many_cores () =
      let m = machine ~ncores:8 () in
      let sub = C.create m in
      let freed = ref 0 in
      let h =
        C.make sub (Machine.core m 0) ~init:1 ~on_free:(fun _ -> incr freed)
      in
      for c = 0 to 7 do
        C.inc sub (Machine.core m c) h
      done;
      for c = 0 to 7 do
        C.dec sub (Machine.core m c) h
      done;
      settle m;
      Alcotest.(check int) "survives balanced traffic" 0 !freed;
      Alcotest.(check int) "value back to one" 1 (C.value sub h);
      C.dec sub (Machine.core m 3) h;
      settle m;
      Alcotest.(check int) "freed" 1 !freed
    in
    [
      Alcotest.test_case (C.name ^ " value tracking") `Quick test_value_tracking;
      Alcotest.test_case (C.name ^ " free on zero") `Quick test_free_on_zero;
      Alcotest.test_case (C.name ^ " many cores") `Quick test_many_cores;
    ]
end

module Shared_suite = Counter_suite (Refcnt.Shared_counter)
module Snzi_suite = Counter_suite (Refcnt.Snzi)
module Dist_suite = Counter_suite (Refcnt.Distributed_counter)
module Rc_suite = Counter_suite (Refcnt.Refcache_counter)

let test_snzi_cross_core_dec () =
  let m = machine ~ncores:8 () in
  let sub = Refcnt.Snzi.create m in
  let freed = ref 0 in
  let h =
    Refcnt.Snzi.make sub (Machine.core m 0) ~init:1 ~on_free:(fun _ ->
        incr freed)
  in
  (* inc on core 0, dec on core 7 (different leaf): must not underflow. *)
  Refcnt.Snzi.inc sub (Machine.core m 0) h;
  Refcnt.Snzi.dec sub (Machine.core m 7) h;
  Alcotest.(check int) "value" 1 (Refcnt.Snzi.value sub h);
  Refcnt.Snzi.dec sub (Machine.core m 7) h;
  Alcotest.(check int) "freed" 1 !freed

let test_space_claims () =
  let p = Params.default ~ncores:80 () in
  let refcache = Refcnt.Refcache_counter.bytes_per_object p in
  let snzi = Refcnt.Snzi.bytes_per_object p in
  let dist = Refcnt.Distributed_counter.bytes_per_object p in
  Alcotest.(check bool) "refcache is O(1) per object" true (refcache < 100);
  Alcotest.(check bool) "snzi is O(cores)" true (snzi > 40 * 8);
  Alcotest.(check bool) "distributed is O(cores)" true (dist >= 80 * 64)

let test_shared_counter_contention_visible () =
  let m = machine ~ncores:8 () in
  let sub = Refcnt.Shared_counter.create m in
  let h =
    Refcnt.Shared_counter.make sub (Machine.core m 0) ~init:1
      ~on_free:(fun _ -> ())
  in
  let s = Machine.stats m in
  for c = 0 to 7 do
    Refcnt.Shared_counter.inc sub (Machine.core m c) h
  done;
  Alcotest.(check bool)
    "every core transferred the counter line" true
    (Stats.total_transfers s >= 7)

(* Object ids are the event stream's identity and are drawn from one
   process-global counter; two domains building independent simulations
   concurrently must never observe the same oid. (No checker here: the
   [machine] helper's bookkeeping is not meant for concurrent use.) *)
let test_oids_disjoint_across_domains () =
  let n = 2_000 in
  let alloc () =
    let m = Machine.create (Params.default ~ncores:2 ~epoch_cycles:epoch ()) in
    let rc = Refcache.create m in
    let c0 = Machine.core m 0 in
    List.init n (fun _ ->
        Refcache.oid (Refcache.make_obj rc c0 ~init:1 ~free:(fun _ -> ())))
  in
  let d = Domain.spawn alloc in
  let mine = alloc () in
  let theirs = Domain.join d in
  let seen = Hashtbl.create (4 * n) in
  List.iter
    (fun id ->
      if Hashtbl.mem seen id then Alcotest.failf "oid %d allocated twice" id;
      Hashtbl.add seen id ())
    (mine @ theirs);
  Alcotest.(check int) "all oids distinct" (2 * n) (Hashtbl.length seen)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "refcnt"
    [
      ( "refcache",
        [
          tc "free after zero" `Quick test_free_after_zero;
          tc "alive while referenced" `Quick test_not_freed_while_referenced;
          tc "batching avoids traffic" `Quick test_batching_no_global_writes;
          tc "reordered flush" `Quick test_reordered_flush_no_false_free;
          tc "dirty zero" `Quick test_dirty_zero_delays_but_frees;
          tc "oids disjoint across domains" `Quick
            test_oids_disjoint_across_domains;
          tc "no allocation without a sink" `Quick
            test_inc_dec_allocate_nothing;
          tc "freed object collected" `Quick test_freed_obj_collected;
          tc "dropped live object collected" `Quick
            test_dropped_live_obj_collected;
        ] );
      ( "weakref",
        [
          tc "tryget revives" `Quick test_tryget_revives;
          tc "tryget after free" `Quick test_tryget_after_free;
          tc "zero-init reviewed" `Quick test_zero_init_object_reviewed;
          tc "zero-init revived" `Quick test_zero_init_revived_by_inc;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest refcache_linearizable;
          QCheck_alcotest.to_alcotest delta_cache_model;
        ] );
      ("counter shared", Shared_suite.tests ~deferred:false);
      ("counter snzi", Snzi_suite.tests ~deferred:false);
      ("counter distributed", Dist_suite.tests ~deferred:false);
      ("counter refcache", Rc_suite.tests ~deferred:true);
      ( "counter misc",
        [
          tc "snzi cross-core dec" `Quick test_snzi_cross_core_dec;
          tc "space claims" `Quick test_space_claims;
          tc "shared counter contention" `Quick test_shared_counter_contention_visible;
        ] );
      ( "checker",
        [ tc "no TLB or refcount violations anywhere" `Quick test_checker_clean ] );
    ]
