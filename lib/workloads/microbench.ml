open Ccsim

type result = {
  name : string;
  ncores : int;
  page_writes : int;
  cycles : int;
  writes_per_sec : float;
  ipis : int;
  shootdown_events : int;
  transfers : int;
  lock_wait : int;
  shootdown_wait : int;
  line_stall : int;
}

let make_machine ncores =
  Machine.create (Params.default ~ncores ())

(* Run the warmup window, discard its counters, then measure the steady
   state over [duration] — the paper reports steady-state averages. *)
let measure ~warmup ~duration ~on_measure machine (writes : int ref) =
  Machine.run_for machine ~cycles:warmup;
  let writes0 = !writes in
  Stats.reset (Machine.stats machine);
  (* Same boundary for an attached checker (Check.reset_window). *)
  on_measure ();
  Machine.run_for machine ~cycles:(warmup + duration);
  !writes - writes0

let finish ~name ~ncores ~duration machine page_writes =
  let s = Machine.stats machine in
  {
    name;
    ncores;
    page_writes;
    cycles = duration;
    writes_per_sec =
      float_of_int page_writes /. Machine.seconds machine duration;
    ipis = s.Stats.ipis;
    shootdown_events = s.Stats.shootdown_events;
    transfers = Stats.total_transfers s;
    lock_wait = s.Stats.lock_wait_cycles;
    shootdown_wait = s.Stats.shootdown_wait_cycles;
    line_stall = s.Stats.line_stall_cycles;
  }

module Make (V : Vm.Vm_intf.S) = struct
  (* Cores' regions are spaced a full leaf node apart so the benchmark
     measures the design, not accidental false sharing between
     neighbouring slots (allocators place per-thread pools far apart). *)
  let local_spacing = 4096

  let local ?(warmup = 4_000_000) ?(on_machine = ignore) ?(on_measure = ignore)
      ~ncores ~duration make_vm =
    let machine = make_machine ncores in
    on_machine machine;
    let vm = make_vm machine in
    let writes = ref 0 in
    for c = 0 to ncores - 1 do
      let core = Machine.core machine c in
      let vpn = c * local_spacing in
      Machine.set_workload machine c (fun () ->
          V.mmap vm core ~vpn ~npages:1 ();
          (match V.touch vm core ~vpn with
          | Vm.Vm_types.Ok -> ()
          | Vm.Vm_types.Segfault -> failwith "local: unexpected segfault"
          | Vm.Vm_types.Oom -> failwith "local: out of frames");
          incr writes;
          V.munmap vm core ~vpn ~npages:1;
          true)
    done;
    let measured = measure ~warmup ~duration ~on_measure machine writes in
    finish ~name:"local" ~ncores ~duration machine measured

  (* Pipeline: a ring. Each core owns [nbuf] buffer slots in its own part
     of the address space; it maps a slot, writes it, and sends it to the
     next core, which writes it again, unmaps it, and returns the slot to
     its owner through an ack channel. *)
  type pipe_msg = { owner : int; slot : int; vpn : int }

  let pipeline ?(warmup = 4_000_000) ?(on_machine = ignore)
      ?(on_measure = ignore) ~ncores ~duration make_vm =
    if ncores < 2 then invalid_arg "Microbench.pipeline: needs >= 2 cores";
    let machine = make_machine ncores in
    on_machine machine;
    let vm = make_vm machine in
    let writes = ref 0 in
    let nbuf = 4 in
    let slot_spacing = 16 in
    let data_ch =
      Array.init ncores (fun c -> Channel.create (Machine.core machine c))
    in
    let ack_ch =
      Array.init ncores (fun c -> Channel.create (Machine.core machine c))
    in
    for c = 0 to ncores - 1 do
      let core = Machine.core machine c in
      let base = c * local_spacing in
      let free_slots = ref (List.init nbuf (fun i -> i)) in
      let next = (c + 1) mod ncores in
      let write vpn =
        (match V.touch vm core ~vpn with
        | Vm.Vm_types.Ok -> ()
        | Vm.Vm_types.Segfault -> failwith "pipeline: unexpected segfault"
        | Vm.Vm_types.Oom -> failwith "pipeline: out of frames");
        incr writes
      in
      Machine.set_workload machine c (fun () ->
          (* Reclaim slots the downstream core has finished with. *)
          let rec drain_acks () =
            match Channel.recv core ack_ch.(c) with
            | Some slot ->
                free_slots := slot :: !free_slots;
                drain_acks ()
            | None -> ()
          in
          drain_acks ();
          (* Prefer consuming (bounds queue depth), then producing. *)
          (match Channel.recv core data_ch.(c) with
          | Some msg ->
              write msg.vpn;
              V.munmap vm core ~vpn:msg.vpn ~npages:1;
              Channel.send core ack_ch.(msg.owner) msg.slot
          | None -> (
              match !free_slots with
              | slot :: rest ->
                  free_slots := rest;
                  let vpn = base + (slot * slot_spacing) in
                  V.mmap vm core ~vpn ~npages:1 ();
                  write vpn;
                  Channel.send core data_ch.(next) { owner = c; slot; vpn }
              | [] -> Machine.wait_hint machine core));
          true)
    done;
    let measured = measure ~warmup ~duration ~on_measure machine writes in
    finish ~name:"pipeline" ~ncores ~duration machine measured

  (* Global: iterate map-slice / write-everything / unmap-slice with
     barriers between the phases. Page accesses happen in a per-core
     shuffled order, a chunk per step. *)
  type global_state =
    | Mapping
    | Writing of int array * int  (* shuffled pages, position *)
    | Waiting_write of int
    | Unmapping
    | Waiting_next of int

  let global ?(warmup = 4_000_000) ?(on_machine = ignore) ?(on_measure = ignore)
      ~ncores ~duration make_vm =
    let machine = make_machine ncores in
    on_machine machine;
    let vm = make_vm machine in
    let writes = ref 0 in
    let region_base = 0 in
    (* 256 KB per core: the paper's 20 MB region at 80 cores. *)
    let slice_pages = 64 in
    let total_pages = ncores * slice_pages in
    let barrier = Barrier.create (Machine.core machine 0) ~parties:ncores in
    (* Small chunks keep scheduler steps fine-grained: a step must be much
       shorter than the measurement window. *)
    let chunk = 16 in
    for c = 0 to ncores - 1 do
      let core = Machine.core machine c in
      let state = ref Mapping in
      let shuffled () =
        let a = Array.init total_pages (fun i -> region_base + i) in
        let rng = core.Core.rng in
        for i = total_pages - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        a
      in
      Machine.set_workload machine c (fun () ->
          (match !state with
          | Mapping ->
              V.mmap vm core ~vpn:(region_base + (c * slice_pages))
                ~npages:slice_pages ();
              let gen = Barrier.arrive core barrier in
              state := Waiting_write gen
          | Waiting_write gen ->
              if Barrier.passed core barrier gen then
                state := Writing (shuffled (), 0)
              else Machine.wait_hint machine core
          | Writing (pages, pos) ->
              let stop = min (pos + chunk) total_pages in
              for i = pos to stop - 1 do
                (match V.touch vm core ~vpn:pages.(i) with
                | Vm.Vm_types.Ok -> ()
                | Vm.Vm_types.Segfault ->
                    failwith "global: unexpected segfault"
                | Vm.Vm_types.Oom -> failwith "global: out of frames");
                incr writes
              done;
              if stop = total_pages then begin
                let gen = Barrier.arrive core barrier in
                state := Waiting_next gen
              end
              else state := Writing (pages, stop)
          | Waiting_next gen ->
              if Barrier.passed core barrier gen then state := Unmapping
              else Machine.wait_hint machine core
          | Unmapping ->
              V.munmap vm core ~vpn:(region_base + (c * slice_pages))
                ~npages:slice_pages;
              state := Mapping);
          true)
    done;
    let measured = measure ~warmup ~duration ~on_measure machine writes in
    finish ~name:"global" ~ncores ~duration machine measured
end
