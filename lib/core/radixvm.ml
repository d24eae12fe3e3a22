open Ccsim
module Refcache = Refcnt.Refcache

module Make (C : Refcnt.Counter_intf.S) = struct
  module Cache = Page_cache.Make (C)

  (* Per-page mapping metadata. A freshly mmapped range shares one folded,
     immutable record; a page's record is privatized (replaced via
     [Radix.set_page]) before anything mutable — the frame pointer, the
     COW bit, or the TLB core set — is written. The record lives inline in
     the page's leaf slot (Figure 3), so its mutations are charged against
     the slot's cache line, which the fault path already owns through the
     slot lock. *)
  type meta = {
    prot : Vm_types.prot;
    backing : Vm_types.backing;
    mutable frame : (int * C.handle) option;
    mutable cow : bool;  (* shared frame: a write must copy first *)
    tlb_cores : Bitset.t;  (* cores that may cache this page's translation *)
  }

  type t = {
    machine : Machine.t;
    rc : Refcache.t;  (* tracks radix-tree nodes *)
    csub : C.t;  (* tracks physical frames *)
    cache : Cache.t;  (* file-backed pages, shared across address spaces *)
    tree : meta Radix.t;
    mmu : Mmu.t;
    ever_active : Bitset.t;  (* cores that ever used this address space *)
    rangelock : Locks.Range_lock.kind;  (* forked children inherit *)
    rl_partition : int option;
    mutable crashed : (unit -> unit) option;
        (* Pending crash repair: set when [Fault.Injected_crash] killed an
           operation mid-critical-section, consumed by [reap]. The closure
           backs out the half-done work — what a real kernel reconstructs
           from the dead CPU's journal. *)
  }

  let name = "radixvm+" ^ C.name

  let fresh_meta (core : Core.t) ~prot ~backing =
    {
      prot;
      backing;
      frame = None;
      cow = false;
      tlb_cores = Bitset.create core.Core.params.Params.ncores;
    }

  let create_with ?(mmu = Page_table.Per_core)
      ?(rangelock = Locks.Range_lock.Radix_embedded) ?partition ?share_state
      machine =
    let rc, csub, cache =
      match share_state with
      | Some other -> (other.rc, other.csub, other.cache)
      | None ->
          let rc = Refcache.create machine in
          let csub = C.create machine in
          (rc, csub, Cache.create machine csub)
    in
    let core0 = Machine.core machine 0 in
    {
      machine;
      rc;
      csub;
      cache;
      tree = Radix.create ~backend:rangelock ?partition machine rc core0;
      mmu = Mmu.create machine mmu;
      ever_active = Bitset.create (Machine.ncores machine);
      rangelock;
      rl_partition = partition;
      crashed = None;
    }

  let create machine = create_with machine
  let machine t = t.machine
  let counters t = t.csub
  let refcache t = t.rc
  let page_cache t = t.cache
  let cached_file_pages t = Cache.cached_pages t.cache
  let evict_file_page t core ~file ~page = Cache.evict t.cache core ~file ~page
  let radix_nodes t = Radix.node_count t.tree
  let mmu t = t.mmu
  let address_space_pages t = Radix.max_vpn t.tree

  let writable m =
    (match m.prot with Vm_types.Read_write -> true | Vm_types.Read_only -> false)
    && not m.cow

  (* The one shootdown rule. Clear the translations for [lo, hi) of every
     core that may cache one and interrupt the remote ones; the caller
     holds the range lock. [targets] arrives as the union of the affected
     pages' TLB core sets, and [any_frames] says whether any affected page
     had a frame:
     - per-core tables shoot down exactly the recorded cores;
     - grouped tables widen the targets to whole groups, since any group
       member may fill its TLB from the group table without faulting;
     - a shared table records no cores, so once any affected page had a
       frame, every core that ever used the address space is a target. *)
  let shootdown t (core : Core.t) ~any_frames ~lo ~hi targets =
    (match Mmu.kind t.mmu with
    | Page_table.Per_core -> ()
    | Page_table.Grouped g ->
        let ncores = Machine.ncores t.machine in
        let widened = Bitset.create ncores in
        Bitset.iter
          (fun c ->
            let base = c / g * g in
            for i = base to Int.min (ncores - 1) (base + g - 1) do
              Bitset.add widened i
            done)
          targets;
        Bitset.union_into ~dst:targets widened
    | Page_table.Shared ->
        if any_frames then Bitset.union_into ~dst:targets t.ever_active);
    if not (Bitset.is_empty targets) then begin
      (* Targets drop their translations in ascending core order; only
         remote ones are listed, so a local shootdown builds no list. *)
      let remote = ref [] in
      for c = 0 to Bitset.capacity targets - 1 do
        if Bitset.mem targets c then begin
          Mmu.drop_for_core t.mmu ~owner:c ~lo ~hi;
          if c <> core.Core.id then remote := c :: !remote
        end
      done;
      (* Local invalidation is a few instructions. *)
      Core.tick core core.Core.params.Params.op_cost;
      match !remote with
      | [] -> ()
      | targets -> Ipi.multicast t.machine core ~targets
    end

  (* Add the TLB core sets of the removed pages that had a frame to
     [targets]; true if any had one. *)
  let rec frame_targets targets any = function
    | [] -> any
    | (_, _, { frame = Some _; tlb_cores; _ }) :: rest ->
        Bitset.union_into ~dst:targets tlb_cores;
        frame_targets targets true rest
    | _ :: rest -> frame_targets targets any rest

  (* Unmap bookkeeping shared by munmap and map-over: with the range still
     locked, shoot down the cores that may cache the removed frames'
     translations. The caller drops the frames' references *after*
     unlocking (the paper's ordering), with [drop_frames]. *)
  let cleanup_removed t (core : Core.t) ~lo ~hi removed =
    let targets = Bitset.create (Machine.ncores t.machine) in
    let any_frames = frame_targets targets false removed in
    shootdown t core ~any_frames ~lo ~hi targets;
    (* The range is gone and the shootdown round is over: no core may still
       cache a translation for [lo, hi). The TLB checker verifies this. *)
    let obs = Machine.obs t.machine in
    if Obs.active obs then
      Obs.emit obs
        (Obs.Unmap_done
           { core = core.Core.id; asid = Mmu.asid t.mmu; lo; hi })

  (* Drop the removed mappings' frame references, last page first: the
     order is observable (it sets the delta caches' conflict pattern). *)
  let rec drop_frames t core = function
    | [] -> ()
    | (_, _, m) :: rest -> (
        drop_frames t core rest;
        match m.frame with Some (_, h) -> C.dec t.csub core h | None -> ())

  (* ---------------------------------------------------------------- *)
  (* Fault-injection plumbing. *)

  let abort_point (core : Core.t) ~op ~point =
    match core.Core.fault with
    | None -> ()
    | Some f -> Fault.abort_now f ~op ~point

  (* The one failure path, which makes every operation below
     exception-safe. Whatever escapes a critical section (an injected
     abort, frame exhaustion from [Physmem.alloc]) lands here with
     [repair], which backs the operation out from wherever it stopped:
     it undoes the half-done mutation and releases the range locks, so a
     failed operation is a no-op. An [Injected_crash] kills the process
     instead: the dying operation must NOT unwind — no rollback, no
     unlock; the tree stays exactly as the dead core left it, locks and
     all — so [repair] is stashed for [reap]. The [rollback_broken]
     escape hatch skips the graceful path; it exists so tests can prove
     the leak checkers catch a missing rollback. Either way the exception
     propagates. *)
  let fail t (core : Core.t) repair e =
    (match e with
    | Fault.Injected_crash _ ->
        if Option.is_some t.crashed then
          raise
            (Vm_types.Invariant_violation
               {
                 subsystem = "radixvm";
                 detail = "second crash before the first was reaped";
               });
        t.crashed <- Some repair
    | _ -> (
        match core.Core.fault with
        | Some f when Fault.rollback_broken f -> ()
        | Some _ | None -> repair ()));
    raise e

  let crash_pending t = Option.is_some t.crashed

  (* Reinstall the mappings a [clear_range] removed, page by page, undoing
     a partially applied operation. The displaced records still own their
     frame references (the caller must not have dropped the collected
     handles), so putting the same records back restores the refcount
     picture exactly. Pages of a folded run go back as per-page slots
     sharing one record — the same sharing [Radix.expand] produces. *)
  let reinstate t core lk removed =
    List.iter
      (fun (vpn, count, m) ->
        for p = vpn to vpn + count - 1 do
          Radix.set_page t.tree core lk p m
        done)
      removed

  let mmap t (core : Core.t) ~vpn ~npages ?(prot = Vm_types.Read_write)
      ?(backing = Vm_types.Anon) () =
    if npages <= 0 then invalid_arg "Radixvm.mmap: npages";
    let stats = core.Core.stats in
    stats.Stats.mmaps <- stats.Stats.mmaps + 1;
    Bitset.add t.ever_active core.Core.id;
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    let lk = Radix.lock_range t.tree core ~lo ~hi in
    (* The displaced mappings, once cleared and shot down: until then
       backing out is just unlocking. *)
    let removed = ref None in
    match
      abort_point core ~op:"mmap" ~point:"locked";
      let r = Radix.clear_range t.tree core lk in
      cleanup_removed t core ~lo ~hi r;
      removed := Some r;
      abort_point core ~op:"mmap" ~point:"cleared";
      Radix.fill_range t.tree core lk (fresh_meta core ~prot ~backing);
      abort_point core ~op:"mmap" ~point:"filled";
      r
    with
    | r ->
        Radix.unlock_range t.tree core lk;
        drop_frames t core r
    | exception e ->
        fail t core
          (fun () ->
            (match !removed with
            | None -> ()
            | Some r ->
                (* Drop any partial fill (its fresh records carry no
                   frames) and put the displaced mappings back — they
                   still own the collected handles' references. The
                   shootdown that already happened only over-invalidated
                   TLBs, which is always safe. *)
                let _ : (int * int * meta) list =
                  Radix.clear_range t.tree core lk
                in
                reinstate t core lk r);
            Radix.unlock_range t.tree core lk)
          e

  let munmap t (core : Core.t) ~vpn ~npages =
    if npages <= 0 then invalid_arg "Radixvm.munmap: npages";
    let stats = core.Core.stats in
    stats.Stats.munmaps <- stats.Stats.munmaps + 1;
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    let lk = Radix.lock_range t.tree core ~lo ~hi in
    let removed = ref None in
    match
      abort_point core ~op:"munmap" ~point:"locked";
      let r = Radix.clear_range t.tree core lk in
      cleanup_removed t core ~lo ~hi r;
      removed := Some r;
      abort_point core ~op:"munmap" ~point:"cleared";
      r
    with
    | r ->
        Radix.unlock_range t.tree core lk;
        drop_frames t core r
    | exception e ->
        fail t core
          (fun () ->
            Option.iter (reinstate t core lk) !removed;
            Radix.unlock_range t.tree core lk)
          e

  let destroy t core =
    (* Process teardown must not fail: like a real kernel's exit path it
       runs with injection suppressed (the frame budget is irrelevant —
       teardown only releases frames). *)
    Fault.with_suppressed core.Core.fault (fun () ->
        munmap t core ~vpn:0 ~npages:(Radix.max_vpn t.tree))

  (* Reap a process that died mid-operation: run the crashed operation's
     pending repair — backing out its half-done work and force-releasing
     the range locks it died holding — then tear the dead address space
     down, reclaiming its frames through the refcounting layer. Siblings
     sharing frames keep them (their references are untouched). Must be
     called with the dead process's own core: lock releases are attributed
     to the core that acquired them, which both the time-based lock model
     and the checker's per-core held-lock accounting require. Like any
     exit path, reaping runs with injection suppressed. *)
  let reap t core =
    Fault.with_suppressed core.Core.fault (fun () ->
        (match t.crashed with
        | Some repair ->
            t.crashed <- None;
            repair ()
        | None -> ());
        destroy t core)

  (* mprotect: rewrite the metadata under the range lock. Removing write
     permission must invalidate cached (possibly writable) translations;
     granting it needs no shootdown — stale read-only translations upgrade
     lazily through protection faults. *)
  let mprotect t (core : Core.t) ~vpn ~npages prot =
    if npages <= 0 then invalid_arg "Radixvm.mprotect: npages";
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    let lk = Radix.lock_range t.tree core ~lo ~hi in
    match
      (* The only abort point is before the first mutation: a permission
         rewrite cannot be partially rolled back page by page, so the
         injection model aborts it atomically or not at all. *)
      abort_point core ~op:"mprotect" ~point:"locked";
      let targets = Bitset.create (Machine.ncores t.machine) in
      let any_frames = ref false in
      Radix.update_range t.tree core lk ~f:(fun m ->
          if Option.is_some m.frame then begin
            any_frames := true;
            Bitset.union_into ~dst:targets m.tlb_cores
          end;
          { m with prot });
      if prot = Vm_types.Read_only then
        shootdown t core ~any_frames:!any_frames ~lo ~hi targets
    with
    | () -> Radix.unlock_range t.tree core lk
    | exception e -> fail t core (fun () -> Radix.unlock_range t.tree core lk) e

  let mmap_shared_frame t (core : Core.t) ~vpn ~npages ~pfn handle =
    if npages <= 0 then invalid_arg "Radixvm.mmap_shared_frame: npages";
    let stats = core.Core.stats in
    stats.Stats.mmaps <- stats.Stats.mmaps + 1;
    Bitset.add t.ever_active core.Core.id;
    Core.tick core core.Core.params.Params.op_cost;
    let lo = vpn and hi = vpn + npages in
    let lk = Radix.lock_range t.tree core ~lo ~hi in
    match
      abort_point core ~op:"mmap" ~point:"locked";
      let removed = Radix.clear_range t.tree core lk in
      cleanup_removed t core ~lo ~hi removed;
      for p = lo to hi - 1 do
        C.inc t.csub core handle;
        let m =
          fresh_meta core ~prot:Vm_types.Read_write ~backing:Vm_types.Anon
        in
        m.frame <- Some (pfn, handle);
        Radix.set_page t.tree core lk p m
      done;
      removed
    with
    | removed ->
        Radix.unlock_range t.tree core lk;
        drop_frames t core removed
    | exception e ->
        (* The one injection point fires before any mutation (the fill
           loop that follows cannot fail), so backing out is unlocking. *)
        fail t core (fun () -> Radix.unlock_range t.tree core lk) e

  (* Attach a frame to a faulting page, privatizing its metadata record:
     anonymous pages get a zeroed frame, file pages come from the shared
     page cache (MAP_SHARED semantics: every mapping of the file page uses
     the one cached frame). *)
  let attach_frame t (core : Core.t) lk vpn m =
    let stats = core.Core.stats in
    stats.Stats.alloc_faults <- stats.Stats.alloc_faults + 1;
    let frame =
      match m.backing with
      | Vm_types.Anon ->
          let pfn = Physmem.alloc (Machine.physmem t.machine) core in
          let handle =
            C.make t.csub core ~init:1 ~on_free:(fun c ->
                Physmem.free (Machine.physmem t.machine) c pfn)
          in
          (pfn, handle)
      | Vm_types.File fd -> Cache.get t.cache core ~file:fd ~page:vpn
    in
    let m' = fresh_meta core ~prot:m.prot ~backing:m.backing in
    m'.frame <- Some frame;
    m'.cow <- m.cow;
    Radix.set_page t.tree core lk vpn m';
    m'

  (* Break copy-on-write: copy the shared frame into a private one and
     drop the reference on the original. *)
  let break_cow t (core : Core.t) m =
    match m.frame with
    | None -> assert false
    | Some (old_pfn, old_handle) ->
        let pm = Machine.physmem t.machine in
        let pfn = Physmem.alloc pm core in
        (* copying the old page's contents *)
        Physmem.set_content pm pfn (Physmem.get_content pm old_pfn);
        Core.tick core core.Core.params.Params.page_zero;
        let handle =
          C.make t.csub core ~init:1 ~on_free:(fun c ->
              Physmem.free (Machine.physmem t.machine) c pfn)
        in
        m.frame <- Some (pfn, handle);
        m.cow <- false;
        C.dec t.csub core old_handle

  (* The software page-fault handler (section 3.4), for both misses and
     protection faults (COW breaks and lazy RO->RW upgrades). Returns the
     frame the access may now use, or [None] for a genuine violation. *)
  let pagefault t (core : Core.t) vpn ~write =
    let stats = core.Core.stats in
    stats.Stats.pagefaults <- stats.Stats.pagefaults + 1;
    let lk = Radix.lock_range t.tree core ~lo:vpn ~hi:(vpn + 1) in
    match
      (* Pre-mutation abort point; [Physmem.alloc] inside [attach_frame]
         and [break_cow] can additionally raise [Out_of_frames], in both
         cases before the page's metadata record is touched — so an OOM
         fault leaves the page exactly as it was. *)
      abort_point core ~op:"pagefault" ~point:"locked";
      match Radix.get_page t.tree core lk vpn with
      | None -> None
      | Some m
        when write
             && match m.prot with
                | Vm_types.Read_only -> true
                | Vm_types.Read_write -> false ->
          None
      | Some m ->
          let m =
            match m.frame with
            | Some _ ->
                stats.Stats.fill_faults <- stats.Stats.fill_faults + 1;
                m
            | None -> attach_frame t core lk vpn m
          in
          if write && m.cow then break_cow t core m;
          let pfn =
            match m.frame with Some (p, _) -> p | None -> assert false
          in
          (match Mmu.kind t.mmu with
          | Page_table.Per_core | Page_table.Grouped _ ->
              (* Record this core in the page's shootdown set — a local
                 store; the metadata shares the locked slot's line. *)
              Core.tick core core.Core.params.Params.l1_hit;
              Bitset.add m.tlb_cores core.Core.id
          | Page_table.Shared -> ());
          Mmu.install t.mmu core ~vpn ~pfn ~writable:(writable m);
          Some pfn
    with
    | r ->
        Radix.unlock_range t.tree core lk;
        r
    | exception e -> fail t core (fun () -> Radix.unlock_range t.tree core lk) e

  (* Resolve one user access to the frame it may use. *)
  let resolve t (core : Core.t) ~vpn ~write =
    Bitset.add t.ever_active core.Core.id;
    match Mmu.translate t.mmu core ~vpn ~write with
    | Mmu.Hit pfn ->
        (* the user load/store itself *)
        Core.tick core core.Core.params.Params.l1_hit;
        Some pfn
    | Mmu.Miss | Mmu.Prot_fault _ -> pagefault t core vpn ~write

  let access t core ~vpn ~write =
    match resolve t core ~vpn ~write with
    | Some _ -> Vm_types.Ok
    | None -> Vm_types.Segfault

  let touch t core ~vpn = access t core ~vpn ~write:true
  let read t core ~vpn = access t core ~vpn ~write:false

  let store t core ~vpn value =
    match resolve t core ~vpn ~write:true with
    | Some pfn ->
        Physmem.set_content (Machine.physmem t.machine) pfn value;
        Vm_types.Ok
    | None -> Vm_types.Segfault

  let load t core ~vpn =
    match resolve t core ~vpn ~write:false with
    | Some pfn -> Some (Physmem.get_content (Machine.physmem t.machine) pfn)
    | None -> None

  (* fork: duplicate the address space. File-backed pages stay shared
     through the page cache; anonymous pages become copy-on-write in both
     parent and child, which requires demoting the parent's cached
     writable translations (a shootdown that keeps the frames). The whole
     space is range-locked, so fork serializes against concurrent VM
     operations on this address space, as in real kernels. *)
  let fork t (core : Core.t) =
    Core.tick core core.Core.params.Params.op_cost;
    let child =
      create_with ~mmu:(Mmu.kind t.mmu) ~rangelock:t.rangelock
        ?partition:t.rl_partition ~share_state:t t.machine
    in
    let lo = 0 and hi = Radix.max_vpn t.tree in
    let lk = Radix.lock_range t.tree core ~lo ~hi in
    let child_lk = Radix.lock_range child.tree core ~lo ~hi in
    (* Metadata records this fork demotes to COW (records that were not
       COW before): a failure must restore their bits, or the parent's
       still-cached writable translations would contradict the tree. *)
    let demoted = ref [] in
    match
    abort_point core ~op:"fork" ~point:"locked";
    let targets = Bitset.create (Machine.ncores t.machine) in
    let any_frames = ref false in
    (* Demote the parent's writable anonymous pages to COW. *)
    Radix.update_range t.tree core lk ~f:(fun m ->
        (match (m.frame, m.backing, m.prot) with
        | Some _, Vm_types.Anon, Vm_types.Read_write ->
            any_frames := true;
            Bitset.union_into ~dst:targets m.tlb_cores;
            if not m.cow then demoted := m :: !demoted;
            m.cow <- true
        | _ -> ());
        m);
    abort_point core ~op:"fork" ~point:"demoted";
    (* Build the child's mappings page by page. *)
    ignore
      (Radix.fold_mapped t.tree ~init:() ~f:(fun () vpn m ->
           abort_point core ~op:"fork" ~point:"copy";
           Core.tick core core.Core.params.Params.l1_hit;
           match m.frame with
           | None ->
               (* lazy page: child inherits the mapping, no frame *)
               Radix.set_page child.tree core child_lk vpn
                 (fresh_meta core ~prot:m.prot ~backing:m.backing)
           | Some (pfn, handle) ->
               C.inc t.csub core handle;
               let cm = fresh_meta core ~prot:m.prot ~backing:m.backing in
               cm.frame <- Some (pfn, handle);
               cm.cow <- m.cow;
               Radix.set_page child.tree core child_lk vpn cm));
    abort_point core ~op:"fork" ~point:"copied";
    (* Drop the parent's (possibly writable) translations for demoted
       pages so the next write faults and copies. *)
    shootdown t core ~any_frames:!any_frames ~lo ~hi targets
    with
    | () ->
        Radix.unlock_range child.tree core child_lk;
        Radix.unlock_range t.tree core lk;
        child
    | exception e ->
        (* One repair covers every fork failure point. No shootdown has
           happened before the last one, so restoring the demoted records'
           COW bits restores the parent exactly (its cached translations
           were valid for the pre-fork state). The records are per-page
           private — never folded, since only faulted pages carry frames —
           so clearing the bit cannot leak into other pages. Tearing the
           half-built child down returns the frame references the copy
           loop took; like process exit, it runs with injection
           suppressed. *)
        fail t core
          (fun () ->
            List.iter (fun m -> m.cow <- false) !demoted;
            Radix.unlock_range child.tree core child_lk;
            Radix.unlock_range t.tree core lk;
            destroy child core)
          e

  (* Memory pressure: RadixVM's page tables are caches of the radix tree
     and can simply be dropped (section 3.2: "the hardware page tables
     themselves are cacheable memory that can be discarded by the OS to
     free memory"). Later accesses re-fault and rebuild them. *)
  let discard_page_tables t (core : Core.t) =
    Core.tick core core.Core.params.Params.op_cost;
    let lo = 0 and hi = Radix.max_vpn t.tree in
    let lk = Radix.lock_range t.tree core ~lo ~hi in
    match
      let ncores = Machine.ncores t.machine in
      let remote = ref [] in
      for c = 0 to ncores - 1 do
        Mmu.discard_for_core t.mmu ~owner:c;
        if c <> core.Core.id then remote := c :: !remote
      done;
      Ipi.multicast t.machine core ~targets:!remote;
      (* No core caches anything now: reset the per-page tracking. *)
      Radix.update_range t.tree core lk ~f:(fun m ->
          Bitset.clear m.tlb_cores;
          m)
    with
    | () -> Radix.unlock_range t.tree core lk
    | exception e -> fail t core (fun () -> Radix.unlock_range t.tree core lk) e

  let mapped t ~vpn = Option.is_some (Radix.peek t.tree vpn)

  (* Table 2 accounting: tree nodes plus the per-page copies of mapping
     metadata (pages that have faulted carry a private ~32-byte record;
     folded pages share one). *)
  let meta_bytes = 32

  let index_bytes t =
    let private_records =
      Radix.fold_mapped t.tree ~init:0 ~f:(fun acc _vpn m ->
          if Option.is_some m.frame then acc + 1 else acc)
    in
    Radix.approx_bytes t.tree + (meta_bytes * private_records)

  let pt_bytes t = Page_table.bytes (Mmu.page_table t.mmu)

  let inv_fail fmt =
    Format.kasprintf
      (fun detail ->
        raise (Vm_types.Invariant_violation { subsystem = "radixvm"; detail }))
      fmt

  let check_invariants t =
    (try Radix.check_invariants t.tree
     with Failure detail ->
       raise (Vm_types.Invariant_violation { subsystem = "radix"; detail }));
    (* After quiescence no writable translation may survive for a
       read-only or COW page, under every page-table kind. Under per-core
       tables, any cached translation must also be covered by the page's
       TLB core set; shared and grouped tables let cores fill without
       faulting, so they record no such set. *)
    let per_core =
      match Mmu.kind t.mmu with
      | Page_table.Per_core -> true
      | Page_table.Shared | Page_table.Grouped _ -> false
    in
    ignore
      (Radix.fold_mapped t.tree ~init:() ~f:(fun () vpn m ->
           match m.frame with
           | None -> ()
           | Some (pfn, _) ->
               for c = 0 to Machine.ncores t.machine - 1 do
                 let pt = Mmu.pt_entry t.mmu ~core:c ~vpn in
                 (if per_core then
                    let cached =
                      Mmu.tlb_mem t.mmu ~core:c ~vpn
                      ||
                      match pt with
                      | Some pte -> pte.Page_table.pfn = pfn
                      | None -> false
                    in
                    if cached && not (Bitset.mem m.tlb_cores c) then
                      inv_fail "core %d caches vpn %d outside its TLB set" c
                        vpn);
                 match pt with
                 | Some pte when pte.Page_table.writable && not (writable m)
                   ->
                     inv_fail
                       "core %d holds a writable PTE for protected vpn %d" c
                       vpn
                 | Some _ | None -> ()
               done))
end

module Default = Make (Refcnt.Refcache_counter)
