(** The conventional VM design shared by the paper's two baselines: a tree
    of VMA (virtual memory area) objects keyed by start page, one object
    per contiguous mapping; a single shared hardware page table holding the
    canonical page-to-frame bindings; broadcast TLB shootdowns to every
    core that ever used the address space (shared page tables give no usage
    information); and an address-space-wide lock.

    The functor parameters choose the index structure and the locking
    policy, yielding:
    - {!Linux_vm}: red-black tree, read-write lock — page faults take the
      read lock (whose cache line serializes them), mmap/munmap take the
      write lock;
    - {!Bonsai_vm}: COW balanced tree with lock-free lookups — page faults
      take no lock at all, while mmap/munmap serialize on a mutex
      (Clements et al., ASPLOS 2012). *)

open Ccsim
module Vm_types = Vm.Vm_types
module Mmu = Vm.Mmu
module Page_table = Vm.Page_table

type vma = {
  start : int;
  len : int;
  prot : Vm_types.prot;
  backing : Vm_types.backing;
}

let vma_end v = v.start + v.len

(** Index structures usable as a VMA tree. *)
module type INDEX = sig
  type 'v t

  val create : Core.t -> 'v t
  val insert : Core.t -> 'v t -> int -> 'v -> unit
  val remove : Core.t -> 'v t -> int -> bool
  val floor : Core.t -> 'v t -> int -> (int * 'v) option
  val ceiling : Core.t -> 'v t -> int -> (int * 'v) option
  val to_alist : 'v t -> (int * 'v) list
end

(** Address-space locking policies. *)
module type LOCKING = sig
  type lk

  val create : Core.t -> lk
  val read_lock : Core.t -> lk -> unit
  val read_unlock : Core.t -> lk -> unit
  val write_lock : Core.t -> lk -> unit
  val write_unlock : Core.t -> lk -> unit
end

module Make (Ix : INDEX) (L : LOCKING) (Cfg : sig
  val name : string
end) =
struct
  type t = {
    machine : Machine.t;
    index : vma Ix.t;
    lock : L.lk;
    mmu : Mmu.t;
    ever_active : Bitset.t;
  }

  let name = Cfg.name

  let create machine =
    let core0 = Machine.core machine 0 in
    {
      machine;
      index = Ix.create core0;
      lock = L.create core0;
      mmu = Mmu.create machine Page_table.Shared;
      ever_active = Bitset.create (Machine.ncores machine);
    }

  let machine t = t.machine
  let mmu t = t.mmu

  (* Collect the VMAs overlapping [lo, hi); caller holds the write lock.
     A VMA starting strictly before [lo] can only be found by [floor];
     everything else starts in [lo, hi) and is enumerated with [ceiling]. *)
  let overlapping t core ~lo ~hi =
    let before =
      match Ix.floor core t.index lo with
      | Some (start, v) when start < lo && vma_end v > lo -> [ v ]
      | _ -> []
    in
    let rec scan pos acc =
      match Ix.ceiling core t.index pos with
      | Some (start, v) when start < hi -> scan (start + 1) (v :: acc)
      | _ -> List.rev acc
    in
    before @ scan lo []

  (* Remove [v] from the VMA index, reinserting its parts outside
     [lo, hi). *)
  let split_out t core ~lo ~hi v =
    ignore (Ix.remove core t.index v.start);
    if v.start < lo then
      Ix.insert core t.index v.start { v with len = lo - v.start };
    if vma_end v > hi then
      Ix.insert core t.index hi { v with start = hi; len = vma_end v - hi }

  (* Remove [lo, hi) from the VMA index, splitting partial overlaps. *)
  let carve t core ~lo ~hi =
    let doomed = overlapping t core ~lo ~hi in
    List.iter (split_out t core ~lo ~hi) doomed;
    doomed <> []

  (* Remove the shared page table's PTEs for [lo, hi); returns the
     removed [(vpn, pfn)] pairs in the order they were cleared. *)
  let clear_present t ~lo ~hi =
    let present = ref [] in
    Page_table.clear_range (Mmu.page_table t.mmu) ~owner:0 ~lo ~hi
      (fun vpn pfn -> present := (vpn, pfn) :: !present);
    List.rev !present

  (* Clear the shared page table and every active core's TLB for [lo, hi),
     broadcasting shootdown IPIs; returns the frames to free. Caller holds
     the write lock. *)
  let shootdown_range t (core : Core.t) ~lo ~hi =
    let removed = clear_present t ~lo ~hi in
    if removed = [] then []
    else begin
      let targets =
        Bitset.fold
          (fun c acc -> if c = core.Core.id then acc else c :: acc)
          t.ever_active []
      in
      Bitset.iter
        (fun c -> Mmu.drop_for_core t.mmu ~owner:c ~lo ~hi)
        t.ever_active;
      Core.tick core core.Core.params.Params.op_cost;
      if targets <> [] then Ipi.multicast t.machine core ~targets;
      List.map snd removed
    end

  (* The unmapped range's shootdown round is over (or there was nothing to
     shoot down): no core may still cache a translation for [lo, hi). *)
  let unmap_done t (core : Core.t) ~lo ~hi =
    let obs = Machine.obs t.machine in
    if Obs.active obs then
      Obs.emit obs
        (Obs.Unmap_done
           { core = core.Core.id; asid = Mmu.asid t.mmu; lo; hi })

  let free_frames t core frames =
    List.iter (fun pfn -> Physmem.free (Machine.physmem t.machine) core pfn) frames

  (* Insert a fresh VMA, merging with adjacent compatible neighbours the
     way Linux merges anonymous mappings. *)
  let insert_vma t core v =
    let v =
      match Ix.floor core t.index (v.start - 1) with
      | Some (_, p)
        when vma_end p = v.start && p.prot = v.prot && p.backing = v.backing
        ->
          ignore (Ix.remove core t.index p.start);
          { v with start = p.start; len = p.len + v.len }
      | _ -> v
    in
    let v =
      match Ix.ceiling core t.index (vma_end v) with
      | Some (start, n)
        when start = vma_end v && n.prot = v.prot && n.backing = v.backing ->
          ignore (Ix.remove core t.index start);
          { v with len = v.len + n.len }
      | _ -> v
    in
    Ix.insert core t.index v.start v

  let mmap t (core : Core.t) ~vpn ~npages ?(prot = Vm_types.Read_write)
      ?(backing = Vm_types.Anon) () =
    if npages <= 0 then invalid_arg (name ^ ".mmap: npages");
    let stats = core.Core.stats in
    stats.Stats.mmaps <- stats.Stats.mmaps + 1;
    Bitset.add t.ever_active core.Core.id;
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    L.write_lock core t.lock;
    let had_overlap = carve t core ~lo ~hi in
    let frames = if had_overlap then shootdown_range t core ~lo ~hi else [] in
    unmap_done t core ~lo ~hi;
    insert_vma t core { start = lo; len = npages; prot; backing };
    L.write_unlock core t.lock;
    free_frames t core frames

  let munmap t (core : Core.t) ~vpn ~npages =
    if npages <= 0 then invalid_arg (name ^ ".munmap: npages");
    let stats = core.Core.stats in
    stats.Stats.munmaps <- stats.Stats.munmaps + 1;
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    L.write_lock core t.lock;
    let had_overlap = carve t core ~lo ~hi in
    let frames = if had_overlap then shootdown_range t core ~lo ~hi else [] in
    unmap_done t core ~lo ~hi;
    L.write_unlock core t.lock;
    free_frames t core frames

  let pagefault t (core : Core.t) vpn ~write =
    let stats = core.Core.stats in
    stats.Stats.pagefaults <- stats.Stats.pagefaults + 1;
    L.read_lock core t.lock;
    match
      match Ix.floor core t.index vpn with
      | Some (_, v) when vma_end v > vpn ->
          if write && v.prot = Vm_types.Read_only then Vm_types.Segfault
          else begin
            let writable = v.prot = Vm_types.Read_write in
            (* Another core may have faulted this page between our
               translate miss and here; the shared page table is the
               truth. *)
            (match Page_table.peek (Mmu.page_table t.mmu) ~owner:0 ~vpn with
            | Some pte ->
                stats.Stats.fill_faults <- stats.Stats.fill_faults + 1;
                (* e.g. a stale read-only PTE after an mprotect upgrade *)
                if pte.Page_table.writable <> writable then
                  Mmu.install t.mmu core ~vpn ~pfn:pte.Page_table.pfn
                    ~writable
            | None ->
                stats.Stats.alloc_faults <- stats.Stats.alloc_faults + 1;
                let pfn = Physmem.alloc (Machine.physmem t.machine) core in
                Mmu.install t.mmu core ~vpn ~pfn ~writable);
            Vm_types.Ok
          end
      | _ -> Vm_types.Segfault
    with
    | result ->
        L.read_unlock core t.lock;
        result
    | exception Physmem.Out_of_frames ->
        (* Frame budget exhausted mid-fault: nothing was installed.
           Release the lock and report memory pressure instead of
           corrupting the address space. *)
        L.read_unlock core t.lock;
        Vm_types.Oom
    | exception e ->
        L.read_unlock core t.lock;
        raise e

  let access t (core : Core.t) ~vpn ~write =
    Bitset.add t.ever_active core.Core.id;
    match Mmu.translate t.mmu core ~vpn ~write with
    | Mmu.Hit _ ->
        Core.tick core core.Core.params.Params.l1_hit;
        Vm_types.Ok
    | Mmu.Miss | Mmu.Prot_fault _ -> pagefault t core vpn ~write

  let touch t core ~vpn = access t core ~vpn ~write:true
  let read t core ~vpn = access t core ~vpn ~write:false

  (* mprotect: update the VMAs (splitting at the boundaries), rewrite the
     affected PTEs with the new permission, and broadcast a shootdown so
     no stale writable translation survives a downgrade. *)
  let mprotect t (core : Core.t) ~vpn ~npages prot =
    if npages <= 0 then invalid_arg (name ^ ".mprotect: npages");
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    L.write_lock core t.lock;
    let affected = overlapping t core ~lo ~hi in
    List.iter
      (fun v ->
        split_out t core ~lo ~hi v;
        let seg_lo = max v.start lo and seg_hi = min (vma_end v) hi in
        insert_vma t core
          { start = seg_lo; len = seg_hi - seg_lo; prot; backing = v.backing })
      affected;
    (* Rewrite present PTEs with the new permission. *)
    let pt = Mmu.page_table t.mmu in
    let writable = prot = Vm_types.Read_write in
    let present = clear_present t ~lo ~hi in
    List.iter
      (fun (vpn, pfn) -> Page_table.install pt core ~vpn ~pfn ~writable)
      present;
    (* A downgrade must invalidate every TLB that may cache the old
       writable translation. *)
    if prot = Vm_types.Read_only && present <> [] then begin
      let targets =
        Bitset.fold
          (fun c acc -> if c = core.Core.id then acc else c :: acc)
          t.ever_active []
      in
      Bitset.iter
        (fun c -> Mmu.drop_tlb_range t.mmu ~owner:c ~lo ~hi)
        t.ever_active;
      if targets <> [] then Ipi.multicast t.machine core ~targets
    end;
    L.write_unlock core t.lock

  let mapped t ~vpn =
    List.exists
      (fun (_, v) -> v.start <= vpn && vpn < vma_end v)
      (Ix.to_alist t.index)

  let vma_count t = List.length (Ix.to_alist t.index)

  let vma_bytes = 200
  (* roughly sizeof(struct vm_area_struct) plus tree linkage *)

  let index_bytes t = vma_count t * vma_bytes
  let pt_bytes t = Page_table.bytes (Mmu.page_table t.mmu)
end
