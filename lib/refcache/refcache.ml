open Ccsim

type obj = {
  oid : int;  (* process-global identity, for the event stream *)
  seq : int;  (* per-instance creation index, for delta-cache hashing *)
  label : string;
  refcnt : int Cell.t;  (* the global count, on its own line *)
  lock : Lock.t;
  mutable dirty : bool;  (* global count left zero during this epoch? *)
  mutable on_review : bool;
  mutable freed : bool;
  free : Core.t -> unit;
  mutable weak : weakref option;
  mutable held : slot;
      (* [Held] of this object, built once by [make_obj]: putting the
         object into a slot allocates nothing *)
}

and weakref = {
  mutable target : obj option;
  mutable dying : bool;
  wline : Line.t;
}

(* A delta-cache slot. [Held o] has a delta pending for [o] since the last
   flush. Flush turns every [Held] slot it visits into a [Ghost]: the slot
   still occupies its way and still matches its last object, which it
   remembers only by [seq] (kept in the slot's [deltas] cell, as a ghost's
   delta is zero), so it no longer keeps an object Refcache has freed
   reachable. A ghost behaves exactly as a slot left holding its object
   with delta zero would: not empty, never evicted, a hit for its own
   object; so eviction choices and order do not depend on it. *)
and slot = Empty | Held of obj | Ghost

(* One core's delta cache as parallel arrays: slot [i] is [slots.(i)] with
   pending delta [deltas.(i)] (or, for a ghost, its object's seq), and bit
   [i land 31] of [touched.(i lsr 5)] marks it written since the last
   flush (only a write makes a slot [Held], and flush makes every slot it
   visits a ghost, so the set bits are exactly the [Held] slots). Flush
   visits only the touched slots: O(slots used this epoch), not O(cache
   size). The bits are set inline: a cross-module [Bitset.add] call on
   every inc and dec is a measurable share of its cost. *)
type percore = {
  slots : slot array;
  deltas : int array;
  touched : int array;
  review : (obj * int) Queue.t;
}

type t = {
  mask : int;
  percore : percore array;
  mutable global_epoch : int;
  flushed : bool array;
  mutable nflushed : int;
  mutable next_seq : int;  (* per-instance; deterministic for a given run *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* Object ids are process-global (like line and lock ids), not
   per-instance: a machine can host several Refcache instances (the radix
   tree's node counts and the VM's frame counts, say) whose [Rc_*] events
   share one stream, so ids from different instances must never collide.
   Atomic, because the benchmark harness runs independent simulations on
   concurrent domains and colliding oids would silently corrupt the
   checkers' ledgers. *)
let next_oid = Atomic.make 0
let fresh_oid () = Atomic.fetch_and_add next_oid 1

(* Hash the per-instance sequence number, NOT the process-global oid:
   oids interleave arbitrarily when the benchmark pool runs simulations on
   concurrent domains, and hashing them would let one job's allocations
   perturb another job's delta-cache conflict pattern (and therefore its
   measured timings). The seq space restarts per instance, so every
   simulation is a pure function of its own configuration. *)
let hash_obj t obj = obj.seq * 0x9E3779B1 land t.mask

let queue_for_review t (core : Core.t) obj =
  obj.dirty <- false;
  (match obj.weak with
  | Some w ->
      (* Setting the dying bit is part of the weakref cmpxchg protocol. *)
      Line.write_atomic core w.wline;
      w.dying <- true
  | None -> ());
  obj.on_review <- true;
  Queue.push (obj, t.global_epoch) t.percore.(core.Core.id).review

(* Apply a cached delta to the object's global count (Figure 2, evict). *)
let evict t (core : Core.t) obj delta =
  Lock.acquire core obj.lock;
  let old = Cell.fetch_add core obj.refcnt delta in
  if old + delta = 0 then
    if not obj.on_review then queue_for_review t core obj
    else obj.dirty <- true;
  Lock.release core obj.lock

(* Does slot [i] stand for [obj]: holding it, or a ghost of it? *)
let[@inline] matches slots deltas i obj =
  match slots.(i) with
  | Held o -> o == obj
  | Ghost -> deltas.(i) = obj.seq
  | Empty -> false

let is_empty = function Empty -> true | Held _ | Ghost -> false

(* The delta slot [i] has pending: a ghost's cell holds a seq. *)
let[@inline] pending slots deltas i =
  match slots.(i) with Held _ -> deltas.(i) | Empty | Ghost -> 0

(* The delta cache is two-way set-associative: an object hashes to a set
   of two slots and evicts the other way's entry only when both miss.
   This keeps the conflict rate low even when a few extremely hot objects
   (pinned interior radix nodes) coexist with a stream of cold ones
   (per-page frame counts) — the space/scalability trade-off the paper
   says the conflict rate controls. *)
let cached_delta t (core : Core.t) obj d =
  assert (not obj.freed);
  (* The delta cache is core-private: constant local cost, no line traffic. *)
  Core.tick core (2 * core.Core.params.Params.l1_hit);
  let pc = t.percore.(core.Core.id) in
  let slots = pc.slots and deltas = pc.deltas in
  let way0 = hash_obj t obj land lnot 1 in
  let way1 = way0 lor 1 in
  let i =
    if matches slots deltas way0 obj then way0
    else if matches slots deltas way1 obj then way1
    else if is_empty slots.(way0) then way0
    else if is_empty slots.(way1) then way1
    else begin
      (* Both ways busy: evict the smaller-delta way (hot pinned objects
         carry transient non-zero deltas mid-operation; evicting them
         would write their shared global count). *)
      let v =
        if abs (pending slots deltas way0) <= abs (pending slots deltas way1)
        then way0
        else way1
      in
      (match slots.(v) with
      | Held o when deltas.(v) <> 0 -> evict t core o deltas.(v)
      | Held _ | Empty | Ghost -> ());
      v
    end
  in
  (match slots.(i) with
  | Held o when o == obj -> ()
  | Held _ | Empty | Ghost ->
      slots.(i) <- obj.held;
      deltas.(i) <- 0);
  deltas.(i) <- deltas.(i) + d;
  let w = i lsr 5 in
  pc.touched.(w) <- pc.touched.(w) lor (1 lsl (i land 31))

let inc t (core : Core.t) obj =
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Rc_inc { core = core.Core.id; oid = obj.oid; label = obj.label });
  cached_delta t core obj 1

let dec t (core : Core.t) obj =
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs
      (Obs.Rc_dec { core = core.Core.id; oid = obj.oid; label = obj.label });
  cached_delta t core obj (-1)

(* Process this core's review queue (Figure 2, review). *)
let review t (core : Core.t) =
  let q = t.percore.(core.Core.id).review in
  let n = Queue.length q in
  for _ = 1 to n do
    let ((obj, objepoch) as entry) = Queue.pop q in
    if t.global_epoch < objepoch + 2 then Queue.push entry q
    else begin
      Lock.acquire core obj.lock;
      obj.on_review <- false;
      let count = Cell.read core obj.refcnt in
      if count <> 0 then begin
        (match obj.weak with
        | Some w ->
            Line.write_atomic core w.wline;
            w.dying <- false
        | None -> ());
        Lock.release core obj.lock
      end
      else begin
        (* Zero at review time. Free only if it was zero all epoch (not
           dirty) and we win the race with tryget on the weak ref. *)
        let weak_cleared =
          if obj.dirty then false
          else
            match obj.weak with
            | None -> true
            | Some w ->
                Line.write_atomic core w.wline;
                if w.dying then begin
                  w.target <- None;
                  w.dying <- false;
                  true
                end
                else false
        in
        if weak_cleared then begin
          obj.freed <- true;
          Lock.release core obj.lock;
          let obs = core.Core.obs in
          if Obs.active obs then
            Obs.emit obs
              (Obs.Rc_free
                 { core = core.Core.id; oid = obj.oid; label = obj.label });
          obj.free core
        end
        else begin
          queue_for_review t core obj;
          Lock.release core obj.lock
        end
      end
    end
  done

let flush t (core : Core.t) =
  let id = core.Core.id in
  Core.tick core core.Core.params.Params.op_cost;
  let pc = t.percore.(id) in
  (* Ascending slot order, exactly the full-array walk's eviction order —
     eviction order is observable (line-stall timing, lock events). *)
  for w = 0 to Array.length pc.touched - 1 do
    let bits = pc.touched.(w) in
    if bits <> 0 then begin
      pc.touched.(w) <- 0;
      for b = 0 to 31 do
        if bits land (1 lsl b) <> 0 then begin
          let i = (w lsl 5) + b in
          match pc.slots.(i) with
          | Held o ->
              let d = pc.deltas.(i) in
              if d <> 0 then evict t core o d;
              pc.slots.(i) <- Ghost;
              pc.deltas.(i) <- o.seq
          | Empty | Ghost -> ()
        end
      done
    end
  done;
  if not t.flushed.(id) then begin
    t.flushed.(id) <- true;
    t.nflushed <- t.nflushed + 1;
    if t.nflushed = Array.length t.flushed then begin
      t.global_epoch <- t.global_epoch + 1;
      Array.fill t.flushed 0 (Array.length t.flushed) false;
      t.nflushed <- 0
    end
  end;
  review t core

let create ?(cache_slots = 4096) machine =
  if not (is_power_of_two cache_slots) then
    invalid_arg "Refcache.create: cache_slots must be a power of two";
  let n = Machine.ncores machine in
  let t =
    {
      mask = cache_slots - 1;
      percore =
        Array.init n (fun _ ->
            {
              slots = Array.make cache_slots Empty;
              deltas = Array.make cache_slots 0;
              touched = Array.make ((cache_slots + 31) / 32) 0;
              review = Queue.create ();
            });
      global_epoch = 0;
      flushed = Array.make n false;
      nflushed = 0;
      next_seq = 0;
    }
  in
  Machine.add_maintenance machine
    ~period:(Machine.params machine).Params.epoch_cycles (fun core ->
      flush t core);
  t

let make_obj ?(label = "refcache:obj") t (core : Core.t) ~init ~free =
  if init < 0 then invalid_arg "Refcache.make_obj: negative count";
  let oid = fresh_oid () in
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let obj =
    {
      oid;
      seq;
      label;
      refcnt = Cell.make ~label core init;
      lock = Lock.create ~label core;
      dirty = false;
      on_review = false;
      freed = false;
      free;
      weak = None;
      held = Empty;
    }
  in
  obj.held <- Held obj;
  let obs = core.Core.obs in
  if Obs.active obs then
    Obs.emit obs (Obs.Rc_make { core = core.Core.id; oid; init; label });
  if init = 0 then begin
    Lock.acquire core obj.lock;
    queue_for_review t core obj;
    Lock.release core obj.lock
  end;
  obj

let make_weak_obj ?label t core ~init ~free =
  let obj = make_obj ?label t core ~init ~free in
  let w = { target = Some obj; dying = false; wline = Cell.line obj.refcnt } in
  obj.weak <- Some w;
  (obj, w)

let tryget t (core : Core.t) w =
  (* The cmpxchg of Figure 2, with the standard fast path: read the weak
     reference and only perform the (line-invalidating) atomic write when
     the dying bit is actually set. Without this, every radix-tree
     traversal would write a shared line per level and lookups could not
     scale. *)
  Line.read_atomic core w.wline;
  match w.target with
  | None -> None
  | Some obj as target ->
      if w.dying then begin
        Line.write_atomic core w.wline;
        w.dying <- false
      end;
      inc t core obj;
      (* The weak reference's own block: a revival allocates nothing. *)
      target

let is_freed obj = obj.freed
let oid obj = obj.oid

(* [cached_delta] places an object only in its own two ways, and a ghost's
   delta is zero, so the [Held] slots of those ways carry every delta. *)
let true_count t obj =
  let way0 = hash_obj t obj land lnot 1 in
  let held pc i =
    match pc.slots.(i) with Held o when o == obj -> pc.deltas.(i) | _ -> 0
  in
  Array.fold_left
    (fun acc pc -> acc + held pc way0 + held pc (way0 lor 1))
    (Cell.peek obj.refcnt) t.percore

let epoch t = t.global_epoch

let pending_review t =
  Array.fold_left (fun acc pc -> acc + Queue.length pc.review) 0 t.percore

let approx_bytes t ~live_objects =
  let slot_bytes = 16 and obj_bytes = 56 in
  (Array.length t.percore * (t.mask + 1) * slot_bytes)
  + (live_objects * obj_bytes)
