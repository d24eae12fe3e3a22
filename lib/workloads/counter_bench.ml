open Ccsim

type result = {
  scheme : string;
  ncores : int;
  iterations : int;
  iters_per_sec : float;
  transfers : int;
}

module Make (C : Refcnt.Counter_intf.S) = struct
  module R = Vm.Radixvm.Make (C)

  let warmup = 1_000_000

  let run ~ncores ~duration () =
    let machine = Machine.create (Params.default ~ncores ()) in
    let vm = R.create machine in
    let core0 = Machine.core machine 0 in
    (* The one shared physical page; the benchmark holds a base reference
       so it is never actually freed. *)
    let pfn = Physmem.alloc (Machine.physmem machine) core0 in
    let handle = C.make (R.counters vm) core0 ~init:1 ~on_free:(fun _ -> ()) in
    (* start measurement from the post-setup clock *)
    let start = Machine.elapsed machine in
    Array.iter
      (fun (c : Core.t) -> c.Core.clock <- max c.Core.clock start)
      (Machine.cores machine);
    let iters = ref 0 in
    for c = 0 to ncores - 1 do
      let core = Machine.core machine c in
      let vpn = (c + 1) * 4096 in
      Machine.set_workload machine c (fun () ->
          R.mmap_shared_frame vm core ~vpn ~npages:1 ~pfn handle;
          R.munmap vm core ~vpn ~npages:1;
          incr iters;
          true)
    done;
    (* Warm up (initial radix expansion, first Refcache epochs), then
       measure the steady state. *)
    Machine.run_for machine ~cycles:(start + warmup);
    let iters0 = !iters in
    Stats.reset (Machine.stats machine);
    Machine.run_for machine ~cycles:(start + warmup + duration);
    {
      scheme = C.name;
      ncores;
      iterations = !iters - iters0;
      iters_per_sec =
        float_of_int (!iters - iters0) /. Machine.seconds machine duration;
      transfers = Stats.total_transfers (Machine.stats machine);
    }
end
