open Ccsim

(* The range-lock crossover workload: a fault storm on one huge mapping.

   Core 0 maps a [region_pages] region with a single mmap — at the
   default radix geometry (9 bits) 512 aligned pages collapse into one
   folded interior slot. Every core then fault-writes its own disjoint
   stripe of the region, and once all stripes are faulted core 0 unmaps
   and remaps the whole region so the next round starts from a fresh
   fold. Stripes are disjoint, so an ideal range lock would let all
   faults proceed in parallel; what actually happens depends on the
   backend:

   - embedded: the first fault must expand the fold, and expansion
     propagates the range lock to every slot of the new node — one core
     briefly holds all 512 pages, and the other cores' faults pile up on
     their born-locked slots each round.
   - embedded + partition: expansion-by-splitting replaces propagation
     (DragonFly's trick); faults on distinct pages never share a lock.
   - list: no tree locks at all, but every fault walks and splices the
     one shared ordered list.
   - global: every fault serializes on the whole-address-space lock.

   The result reuses [Microbench.result] (total page writes per second),
   so the crossover figure renders with the same machinery as Figure 5. *)

module Make (V : Vm.Vm_intf.S) = struct
  type state =
    | Mapping
    | Wait_mapped of int
    | Faulting of int  (* next vpn within this core's stripe *)
    | Wait_faulted of int
    | Unmapping

  let bigmap ?(warmup = 4_000_000) ?(region_pages = 512) ?(on_machine = ignore)
      ?(on_measure = ignore) ~ncores ~duration make_vm =
    if region_pages < ncores then
      invalid_arg "Rangelock_bench.bigmap: fewer pages than cores";
    let machine = Machine.create (Params.default ~ncores ()) in
    on_machine machine;
    let vm = make_vm machine in
    let writes = ref 0 in
    let barrier = Barrier.create (Machine.core machine 0) ~parties:ncores in
    let stripe = region_pages / ncores in
    (* The last core absorbs the remainder so every page is faulted. *)
    let stripe_lo c = c * stripe in
    let stripe_hi c = if c = ncores - 1 then region_pages else (c + 1) * stripe in
    let chunk = 16 in
    for c = 0 to ncores - 1 do
      let core = Machine.core machine c in
      let state = ref Mapping in
      Machine.set_workload machine c (fun () ->
          (match !state with
          | Mapping ->
              if c = 0 then V.mmap vm core ~vpn:0 ~npages:region_pages ();
              state := Wait_mapped (Barrier.arrive core barrier)
          | Wait_mapped gen ->
              if Barrier.passed core barrier gen then
                state := Faulting (stripe_lo c)
              else Machine.wait_hint machine core
          | Faulting pos ->
              let stop = min (pos + chunk) (stripe_hi c) in
              for p = pos to stop - 1 do
                (match V.touch vm core ~vpn:p with
                | Vm.Vm_types.Ok -> ()
                | Vm.Vm_types.Segfault -> failwith "bigmap: unexpected segfault"
                | Vm.Vm_types.Oom -> failwith "bigmap: out of frames");
                incr writes
              done;
              if stop = stripe_hi c then
                state := Wait_faulted (Barrier.arrive core barrier)
              else state := Faulting stop
          | Wait_faulted gen ->
              if Barrier.passed core barrier gen then state := Unmapping
              else Machine.wait_hint machine core
          | Unmapping ->
              if c = 0 then V.munmap vm core ~vpn:0 ~npages:region_pages;
              state := Mapping);
          true)
    done;
    let measured =
      Microbench.measure ~warmup ~duration ~on_measure machine writes
    in
    Microbench.finish ~name:"bigmap" ~ncores ~duration machine measured
end
