open Ccsim
module Refcache = Refcnt.Refcache

type 'v slot = Empty | Folded of 'v | Child of 'v node

and 'v node = {
  level : int;  (* 0 = leaf *)
  base : int;  (* first vpn covered by this node *)
  slots : 'v slot array;
  lines : Line.t array;  (* slot i lives on line (i / slots_per_line) *)
  locks : Lock.t array;  (* the per-slot lock bit, on the slot's line *)
  obj : Refcache.obj;  (* used-slot count (plus traversal pins) *)
  weak : Refcache.weakref;
  mutable parent : ('v node * int) option;
  mutable dead : bool;
}

(* How ranges are locked. [Embedded] is the paper's design: per-slot lock
   bits walked by [lock_range], optionally with DragonFly-style
   partitioning of huge folds. [External] delegates the whole range to a
   pluggable backend ({!Locks.Range_lock}) and walks the tree lock-free
   under its protection. *)
type backend =
  | Embedded of { partition : int option }
  | External of Locks.Range_lock.t

type 'v t = {
  rc : Refcache.t;
  fanout : int;
  levels : int;
  collapse : bool;
  backend : backend;
  pages_per_slot : int array;  (* indexed by level: fanout^level *)
  mutable root : 'v node option;  (* None only while [create] runs *)
  mutable nodes : int;
}

let root t =
  match t.root with
  | Some node -> node
  | None -> invalid_arg "Radix: tree not initialized"


type 'v locked = {
  lk_lo : int;
  lk_hi : int;
  mutable spans : ('v node * int * int) list;
  mutable pins : 'v node list;
  mutable ext : Locks.Range_lock.handle option;  (* [External] backends *)
}

(* Interior slots are pointer-sized, eight per 64-byte line (false sharing
   between neighbouring slots is real and modeled). Leaf slots hold the
   per-page mapping metadata inline (~40-64 bytes in sv6, Figure 3), so
   each leaf slot occupies its own line — page faults on adjacent pages
   do not share cache lines. *)
let slots_per_line level = if level = 0 then 1 else 8

let line_of node i = node.lines.(i / slots_per_line node.level)
let max_vpn t = t.pages_per_slot.(t.levels - 1) * t.fanout

let read_slot core node i =
  Line.read core (line_of node i);
  node.slots.(i)

(* Write a slot and maintain the node's used-slot count through Refcache. *)
let write_slot t core node i v =
  Line.write core (line_of node i);
  let old = node.slots.(i) in
  node.slots.(i) <- v;
  match (old, v) with
  | Empty, Empty -> ()
  | Empty, _ -> Refcache.inc t.rc core node.obj
  | _, Empty -> Refcache.dec t.rc core node.obj
  | _, _ -> ()

(* Collapse: called by Refcache when a node's count reaches a stable zero
   (only reachable when [collapse] is on — otherwise the permanent anchor
   reference keeps every node alive). Unlinks the node from its parent. *)
let on_node_free t core node =
  node.dead <- true;
  t.nodes <- t.nodes - 1;
  match node.parent with
  | None -> ()
  | Some (p, i) ->
      Lock.acquire core p.locks.(i);
      (match p.slots.(i) with
      | Child n when n == node -> write_slot t core p i Empty
      | Empty | Folded _ | Child _ -> ());
      Lock.release core p.locks.(i)

let alloc_node t (core : Core.t) ~level ~base ~content =
  let fanout = t.fanout in
  let spl = slots_per_line level in
  let nlines = (fanout + spl - 1) / spl in
  let lines =
    Array.init nlines (fun _ ->
        Line.create ~label:"radix:slot" core.Core.params core.Core.stats
          ~home_socket:core.Core.socket)
  in
  let used = match content with Empty -> 0 | Folded _ | Child _ -> fanout in
  let anchor = if t.collapse then 0 else 1 in
  let node_ref = ref None in
  let free c = match !node_ref with Some n -> on_node_free t c n | None -> () in
  let obj, weak =
    Refcache.make_weak_obj ~label:"radix:node" t.rc core
      ~init:(used + anchor) ~free
  in
  let node =
    {
      level;
      base;
      slots = Array.make fanout content;
      lines;
      locks =
        Array.init fanout (fun i -> Lock.create_on core lines.(i / spl));
      obj;
      weak;
      parent = None;
      dead = false;
    }
  in
  node_ref := Some node;
  t.nodes <- t.nodes + 1;
  (* Allocating and initializing a node costs about a page of writes. *)
  Core.tick core core.Core.params.Params.page_zero;
  node

let create ?(bits = 9) ?(levels = 4) ?(collapse = false)
    ?(backend = Locks.Range_lock.Radix_embedded) ?partition machine rc core =
  if bits < 1 || bits > 9 then invalid_arg "Radix.create: bits";
  if levels < 1 then invalid_arg "Radix.create: levels";
  (match partition with
  | Some p when p < 1 -> invalid_arg "Radix.create: partition"
  | _ -> ());
  let backend =
    match Locks.Range_lock.create_external machine core backend with
    | None -> Embedded { partition }
    | Some rl ->
        if collapse then
          invalid_arg
            "Radix.create: external range-lock backends require \
             collapse=false (collapse unlinks nodes under per-slot locks)";
        if Option.is_some partition then
          invalid_arg
            "Radix.create: ~partition applies only to the embedded backend";
        External rl
  in
  let fanout = 1 lsl bits in
  let pages_per_slot =
    Array.init levels (fun l ->
        let rec pow acc k = if k = 0 then acc else pow (acc * fanout) (k - 1) in
        pow 1 l)
  in
  let t =
    {
      rc;
      fanout;
      levels;
      collapse;
      backend;
      pages_per_slot;
      root = None;
      nodes = 0;
    }
  in
  let root = alloc_node t core ~level:(levels - 1) ~base:0 ~content:Empty in
  (* The root must never be collapsed: give it a permanent reference even
     when collapsing is enabled. *)
  if collapse then Refcache.inc rc core root.obj;
  t.root <- Some root;
  t

(* A child for interior slot [i] of [parent], born with [content] in
   every slot and linked to its parent; the caller writes the slot. *)
let new_child t core parent i content =
  assert (parent.level > 0);
  let child =
    alloc_node t core ~level:(parent.level - 1)
      ~base:(parent.base + (i * t.pages_per_slot.(parent.level)))
      ~content
  in
  child.parent <- Some (parent, i);
  child

(* Expand a locked interior slot one level: the child replicates the slot's
   folded content and is born with every slot locked by the expanding
   operation (the paper's lock-bit propagation). Under an external
   range-lock backend the tree carries no lock bits, so the child is born
   unlocked and no span is recorded. *)
let expand t core parent i content lk =
  let child = new_child t core parent i content in
  (match t.backend with
  | Embedded _ ->
      for j = 0 to t.fanout - 1 do
        Lock.acquire core child.locks.(j)
      done;
      lk.spans <- (child, 0, t.fanout - 1) :: lk.spans
  | External _ -> ());
  write_slot t core parent i (Child child);
  child

(* DragonFly's partitioning trick (their vm_map splits reservations above
   a 32 MB threshold): a huge folded run only partially covered by the
   range being locked is split one level before locking, so concurrent
   faults into one big mapping take locks on disjoint finer slots instead
   of serializing on the single covering slot. The parent slot lock is
   held only for the split itself; the caller then descends into the
   child. Refcounts match [expand]: the child is born with every slot
   folded (count [fanout] + anchor) and the parent slot's Folded->Child
   rewrite leaves its used count unchanged. *)
let split_fold t core parent i v =
  write_slot t core parent i (Child (new_child t core parent i (Folded v)))

(* The walks below are top-level functions, not local closures, and keep
   slot bounds in locals, not tuples: a one-page lock and unlock allocate
   only the lock record and its pin and span cells. *)

let rec lock_node t core lk partition node lo hi =
  let span = t.pages_per_slot.(node.level) in
  let first = (lo - node.base) / span in
  let last = (hi - 1 - node.base) / span in
  if node.level = 0 then begin
    for i = first to last do
      Lock.acquire core node.locks.(i)
    done;
    lk.spans <- (node, first, last) :: lk.spans
  end
  else
    for i = first to last do
      lock_slot t core lk partition node lo hi i
    done

and lock_slot t core lk partition node lo hi i =
  let span = t.pages_per_slot.(node.level) in
  let slot_lo = node.base + (i * span) in
  let slot_hi = slot_lo + span in
  match read_slot core node i with
  | Child n -> (
      match Refcache.tryget t.rc core n.weak with
      | Some _ ->
          lk.pins <- n :: lk.pins;
          lock_node t core lk partition n (Int.max lo slot_lo)
            (Int.min hi slot_hi)
      | None ->
          (* The child was collapsed under us; clean up, retry. *)
          Lock.acquire core node.locks.(i);
          (match node.slots.(i) with
          | Child n' when n'.dead -> write_slot t core node i Empty
          | Empty | Folded _ | Child _ -> ());
          Lock.release core node.locks.(i);
          lock_slot t core lk partition node lo hi i)
  | Folded _
    when (match partition with
         | Some p -> span > p && not (lo <= slot_lo && slot_hi <= hi)
         | None -> false) ->
      (* Partitioning: split the huge fold rather than lock it whole.
         Taking the slot lock briefly serializes racing splitters of this
         one slot; after the split both descend into disjoint parts of the
         child. *)
      Lock.acquire core node.locks.(i);
      (match node.slots.(i) with
      | Folded v' -> split_fold t core node i v'
      | Empty | Child _ -> ());
      Lock.release core node.locks.(i);
      lock_slot t core lk partition node lo hi i
  | Empty | Folded _ ->
      (* Lock at interior granularity; expansion, if needed, happens later
         under this lock. *)
      Lock.acquire core node.locks.(i);
      lk.spans <- (node, i, i) :: lk.spans

let lock_range t core ~lo ~hi =
  if not (0 <= lo && lo < hi && hi <= max_vpn t) then
    invalid_arg "Radix.lock_range: bad range";
  let lk = { lk_lo = lo; lk_hi = hi; spans = []; pins = []; ext = None } in
  (match t.backend with
  | External rl -> lk.ext <- Some (Locks.Range_lock.acquire core rl ~lo ~hi)
  | Embedded { partition } -> lock_node t core lk partition (root t) lo hi);
  lk

(* Spans are prepended as they are locked, so walking the list releases
   in reverse acquisition order; releasing each span back-to-front makes
   the whole sequence LIFO (and keeps the checker's held-lock stack pops
   at the top instead of scanning). *)
let rec release_spans core = function
  | [] -> ()
  | (node, i0, i1) :: rest ->
      for i = i1 downto i0 do
        Lock.release core node.locks.(i)
      done;
      release_spans core rest

let rec drop_pins t core = function
  | [] -> ()
  | node :: rest ->
      Refcache.dec t.rc core node.obj;
      drop_pins t core rest

let unlock_range t core lk =
  release_spans core lk.spans;
  drop_pins t core lk.pins;
  (match lk.ext with
  | None -> ()
  | Some h ->
      (match t.backend with
      | External rl -> Locks.Range_lock.release core rl h
      | Embedded _ -> assert false);
      lk.ext <- None);
  lk.spans <- [];
  lk.pins <- []

let check_in_range lk ~lo ~hi op =
  if lo < lk.lk_lo || hi > lk.lk_hi then
    invalid_arg (op ^ ": outside the locked range")

let rec fill_node t core lk v node lo hi =
  let span = t.pages_per_slot.(node.level) in
  let first = (lo - node.base) / span in
  let last = (hi - 1 - node.base) / span in
  for i = first to last do
    let slot_lo = node.base + (i * span) in
    let slot_hi = slot_lo + span in
    if node.level = 0 then begin
      (match node.slots.(i) with
      | Empty -> ()
      | Folded _ | Child _ -> invalid_arg "Radix.fill_range: page mapped");
      write_slot t core node i (Folded v)
    end
    else
      match read_slot core node i with
      | Child n ->
          fill_node t core lk v n (Int.max lo slot_lo) (Int.min hi slot_hi)
      | Folded _ -> invalid_arg "Radix.fill_range: range mapped"
      | Empty ->
          if lo <= slot_lo && slot_hi <= hi then
            write_slot t core node i (Folded v)
          else
            fill_node t core lk v
              (expand t core node i Empty lk)
              (Int.max lo slot_lo) (Int.min hi slot_hi)
  done

let fill_range t core lk v = fill_node t core lk v (root t) lk.lk_lo lk.lk_hi

(* The walk behind [clear_range] and [update_range]: visit every mapped
   slot of the locked range and replace each fully covered fold of [n]
   pages from [lo] by [f lo n v]. A fold the range covers only in part is
   expanded first, so the pages outside the range keep their mapping. *)
let rec rewrite_node t core lk f node lo hi =
  let span = t.pages_per_slot.(node.level) in
  let first = (lo - node.base) / span in
  let last = (hi - 1 - node.base) / span in
  for i = first to last do
    let slot_lo = node.base + (i * span) in
    let slot_hi = slot_lo + span in
    match read_slot core node i with
    | Empty -> ()
    | Child n ->
        assert (node.level > 0);
        rewrite_node t core lk f n (Int.max lo slot_lo) (Int.min hi slot_hi)
    | Folded v ->
        (* A leaf slot is one page, always covered. *)
        if lo <= slot_lo && slot_hi <= hi then
          write_slot t core node i (f slot_lo span v)
        else
          rewrite_node t core lk f
            (expand t core node i (Folded v) lk)
            (Int.max lo slot_lo) (Int.min hi slot_hi)
  done

let rewrite_range t core lk f = rewrite_node t core lk f (root t) lk.lk_lo lk.lk_hi

let clear_range t core lk =
  let acc = ref [] in
  rewrite_range t core lk (fun lo n v ->
      acc := (lo, n, v) :: !acc;
      Empty);
  List.rev !acc

let update_range t core lk ~f =
  rewrite_range t core lk (fun _ _ v -> Folded (f v))

let rec get_node t core vpn node =
  let i = (vpn - node.base) / t.pages_per_slot.(node.level) in
  match read_slot core node i with
  | Empty -> None
  | Folded v -> Some v
  | Child n -> get_node t core vpn n

let get_page t core lk vpn =
  check_in_range lk ~lo:vpn ~hi:(vpn + 1) "Radix.get_page";
  get_node t core vpn (root t)

let rec set_node t core lk vpn v node =
  let i = (vpn - node.base) / t.pages_per_slot.(node.level) in
  if node.level = 0 then write_slot t core node i (Folded v)
  else
    match read_slot core node i with
    | Child n -> set_node t core lk vpn v n
    | (Empty | Folded _) as content ->
        set_node t core lk vpn v (expand t core node i content lk)

let set_page t core lk vpn v =
  check_in_range lk ~lo:vpn ~hi:(vpn + 1) "Radix.set_page";
  set_node t core lk vpn v (root t)

let lookup t core vpn =
  if vpn < 0 || vpn >= max_vpn t then invalid_arg "Radix.lookup";
  let rec look node =
    let span = t.pages_per_slot.(node.level) in
    let i = (vpn - node.base) / span in
    match read_slot core node i with
    | Empty -> None
    | Folded v -> Some v
    | Child n -> (
        match Refcache.tryget t.rc core n.weak with
        | Some _ ->
            let r = look n in
            Refcache.dec t.rc core n.obj;
            r
        | None -> None)
  in
  look (root t)

let node_count t = t.nodes

let approx_bytes t =
  (* slots + lock bits + header, per node *)
  let node_bytes = (t.fanout * 8) + 64 in
  t.nodes * node_bytes

let peek t vpn =
  let rec look node =
    let span = t.pages_per_slot.(node.level) in
    let i = (vpn - node.base) / span in
    match node.slots.(i) with
    | Empty -> None
    | Folded v -> Some v
    | Child n -> look n
  in
  if vpn < 0 || vpn >= max_vpn t then None else look (root t)

let fold_mapped t ~init ~f =
  let rec walk node acc =
    let span = t.pages_per_slot.(node.level) in
    let acc = ref acc in
    for i = 0 to t.fanout - 1 do
      match node.slots.(i) with
      | Empty -> ()
      | Child n -> acc := walk n !acc
      | Folded v ->
          let base = node.base + (i * span) in
          for p = base to base + span - 1 do
            acc := f !acc p v
          done
    done;
    !acc
  in
  walk (root t) init

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  let rec walk node =
    if node.dead then fail "live tree references dead node at %d" node.base;
    let used = ref 0 in
    Array.iteri
      (fun i s ->
        match s with
        | Empty -> ()
        | Folded _ -> incr used
        | Child n ->
            incr used;
            if node.level = 0 then fail "leaf node has a child slot";
            if n.level <> node.level - 1 then fail "child level mismatch";
            let span = t.pages_per_slot.(node.level) in
            if n.base <> node.base + (i * span) then fail "child base mismatch";
            (match n.parent with
            | Some (p, j) when p == node && j = i -> ()
            | _ -> fail "child parent link mismatch");
            walk n)
      node.slots;
    let anchor =
      if node == root t then 1 else if t.collapse then 0 else 1
    in
    let expected = !used + anchor in
    let actual = Refcache.true_count t.rc node.obj in
    if actual <> expected then
      fail "node at %d (level %d): used=%d anchor=%d but true count=%d"
        node.base node.level !used anchor actual
  in
  walk (root t)
