type entry = { pfn : int; writable : bool }

(* Open-addressed linear-probe table over ints: [keys.(s)] holds the vpn,
   [-1] for an empty slot; [vals.(s)] packs the translation as
   [pfn lsl 1 lor writable], and [pos.(s)] is the ring index of the vpn's
   FIFO entry. A TLB lookup happens on every simulated memory access, so
   both the lookup and the fill path must run without allocating — the
   stdlib [Hashtbl] boxes an entry record per insert and an option per
   probe.

   The table is sized at four times the capacity (live entries never
   exceed [capacity]), which keeps probe chains short. Removal shifts the
   rest of its probe chain back instead of leaving a tombstone, so the
   table never needs rebuilding. Vpns are nonnegative (they share the key
   space with the empty sentinel). *)

type t = {
  capacity : int;
  keys : int array;
  vals : int array;
  pos : int array;
  mutable live : int;  (* slots holding a current translation *)
  (* FIFO replacement order: one entry per live vpn, in the order the vpns
     became live, plus holes ([-1]) left by invalidation. *)
  ring : int array;
  mutable head : int;
  mutable len : int;
  obs : Obs.t option;
  core : int;  (* owning core id for instrumentation; -1 if unknown *)
  asid : int;  (* owning address space's id; -1 if unknown *)
}

let next_pow2 n =
  let k = ref 1 in
  while !k < n do
    k := !k * 2
  done;
  !k

let create ?obs ?(core = -1) ?(asid = -1) ~capacity () =
  if capacity <= 0 then invalid_arg "Tlb.create";
  let size = next_pow2 (4 * capacity) in
  {
    capacity;
    keys = Array.make size (-1);
    vals = Array.make size 0;
    pos = Array.make size 0;
    live = 0;
    ring = Array.make (next_pow2 (2 * capacity)) (-1);
    head = 0;
    len = 0;
    obs;
    core;
    asid;
  }

(* A vpn's first probe slot; inlined, as it sits on every lookup. *)
let[@inline] home mask vpn = vpn * 0x9E3779B1 land mask

(* Slot holding [vpn], or [-1]. Callers guard against negative vpns (they
   would collide with the sentinel). An empty slot always exists because
   occupancy is capped at a quarter of the table. *)
let find_slot t vpn =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let s = ref (home mask vpn) in
  let k = ref (Array.unsafe_get keys !s) in
  while !k <> vpn && !k <> -1 do
    s := (!s + 1) land mask;
    k := Array.unsafe_get keys !s
  done;
  if !k = vpn then !s else -1

(* Insert [vpn] (known absent) and return its slot. *)
let add_slot t vpn packed =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let s = ref (home mask vpn) in
  while Array.unsafe_get keys !s <> -1 do
    s := (!s + 1) land mask
  done;
  keys.(!s) <- vpn;
  t.vals.(!s) <- packed;
  t.live <- t.live + 1;
  !s

(* Empty slot [s], then walk the rest of its probe chain: each entry
   whose probe from its home passed the hole moves into it, leaving the
   hole where it was. Every remaining key stays reachable from its home,
   so no tombstone is needed. *)
let remove_slot t s =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while keys.(!j) <> -1 do
    let k = keys.(!j) in
    if (!j - home mask k) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- k;
      t.vals.(!hole) <- t.vals.(!j);
      t.pos.(!hole) <- t.pos.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- -1;
  t.live <- t.live - 1

(* Invalidation leaves a hole in the ring, drained only when eviction
   pops it. When a push finds the ring full, squeeze the holes out in
   place, keeping the head, and repoint each moved vpn's slot. The ring
   holds at least twice the capacity and at most [capacity] entries are
   live, so a squeeze frees at least [capacity] places: pushes stay O(1)
   amortized. *)
let compact t =
  let mask = Array.length t.ring - 1 in
  let kept = ref 0 in
  for k = 0 to t.len - 1 do
    let vpn = t.ring.((t.head + k) land mask) in
    if vpn >= 0 then begin
      let i = (t.head + !kept) land mask in
      t.ring.(i) <- vpn;
      t.pos.(find_slot t vpn) <- i;
      incr kept
    end
  done;
  t.len <- !kept

let ring_push t vpn =
  if t.len = Array.length t.ring then compact t;
  let i = (t.head + t.len) land (Array.length t.ring - 1) in
  t.ring.(i) <- vpn;
  t.len <- t.len + 1;
  i

(* Precondition: [t.len > 0]. *)
let ring_take t =
  let v = t.ring.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  v

let lookup t vpn =
  if vpn < 0 then None
  else
    let s = find_slot t vpn in
    if s < 0 then None
    else
      let packed = t.vals.(s) in
      Some { pfn = packed lsr 1; writable = packed land 1 = 1 }

let lookup_packed t vpn =
  if vpn < 0 then -1
  else
    let s = find_slot t vpn in
    if s < 0 then -1 else Array.unsafe_get t.vals s

let mem t vpn = vpn >= 0 && find_slot t vpn >= 0
let size t = t.live

(* Every membership change is reported, including silent FIFO evictions, so
   a checker's mirror of the TLB contents is exact. *)
let note_fill t vpn =
  match t.obs with
  | Some obs when Obs.active obs ->
      Obs.emit obs (Obs.Tlb_fill { core = t.core; asid = t.asid; vpn })
  | _ -> ()

let note_drop t vpn =
  match t.obs with
  | Some obs when Obs.active obs ->
      Obs.emit obs (Obs.Tlb_drop { core = t.core; asid = t.asid; vpn })
  | _ -> ()

(* Pop holes until a live vpn is evicted. Precondition: [t.live > 0]. *)
let rec evict_one t =
  let vpn = ring_take t in
  if vpn < 0 then evict_one t
  else begin
    remove_slot t (find_slot t vpn);
    note_drop t vpn
  end

let insert t ~vpn ~pfn ~writable =
  if vpn < 0 then invalid_arg "Tlb.insert: negative vpn";
  let packed = (pfn lsl 1) lor if writable then 1 else 0 in
  let s = find_slot t vpn in
  if s >= 0 then t.vals.(s) <- packed
  else begin
    if t.live >= t.capacity then evict_one t;
    let s = add_slot t vpn packed in
    t.pos.(s) <- ring_push t vpn;
    note_fill t vpn
  end

let drop_slot t s =
  let vpn = t.keys.(s) in
  t.ring.(t.pos.(s)) <- -1;
  remove_slot t s;
  note_drop t vpn

let invalidate t vpn =
  if vpn >= 0 then begin
    let s = find_slot t vpn in
    if s >= 0 then drop_slot t s
  end

let invalidate_range t ~lo ~hi =
  (* Probe per vpn while the range is narrower than the capacity (each
     probe is a word or two); scan the slots — bounded by [4 * capacity] —
     only for wide ranges. A drop can shift a later key into the slot just
     scanned, so the scan re-reads it before moving on. Either branch
     drops the same entries; drop order carries no cost and no stats. *)
  if hi - lo <= t.capacity then
    for vpn = lo to hi - 1 do
      invalidate t vpn
    done
  else begin
    let s = ref 0 in
    while !s < Array.length t.keys do
      let k = t.keys.(!s) in
      if k >= 0 && k >= lo && k < hi then drop_slot t !s else incr s
    done
  end

let queue_length t = t.len

let flush t =
  (match t.obs with
  | Some obs when Obs.active obs ->
      let keys = t.keys in
      for s = 0 to Array.length keys - 1 do
        let k = Array.unsafe_get keys s in
        if k >= 0 then
          Obs.emit obs (Obs.Tlb_drop { core = t.core; asid = t.asid; vpn = k })
      done
  | _ -> ());
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.live <- 0;
  t.head <- 0;
  t.len <- 0
