(** The range-lock crossover workload ("bigmap"): concurrent page faults
    on disjoint stripes of one huge mapping, remapped each round so the
    mapping is always freshly folded.

    This is the workload on which the range-lock backends diverge
    hardest: an ideal range lock admits every fault in parallel (the
    stripes are disjoint), the embedded backend pays lock propagation
    when the first fault expands the fold, the partitioned variant
    splits instead of propagating, the list backend funnels every fault
    through one shared ordered list, and the global backend serializes
    outright. See DESIGN.md section 12 and the [rangelock] bench
    target. *)

module Make (V : Vm.Vm_intf.S) : sig
  val bigmap :
    ?warmup:int ->
    ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int ->
    duration:int ->
    (Ccsim.Machine.t -> V.t) ->
    Microbench.result
  (** [bigmap ~ncores ~duration make_vm] runs rounds of map / barrier /
      fault-stripes / barrier / unmap over a 512-page region (exactly one
      folded interior slot at the default 9-bit radix geometry) and
      reports total page writes per second of simulated time. Optional
      arguments as in {!Microbench.Make}. *)
end
