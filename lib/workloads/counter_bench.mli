(** The Figure 8 workload: page sharing throughput under different
    reference-counting schemes. One physical page is repeatedly mmapped
    into the shared address space and munmapped by every core (at disjoint
    virtual addresses), driving the page's reference count up and down
    concurrently from n cores. The VM is RadixVM instantiated over the
    scheme under test — the paper's "three different versions of
    RadixVM". *)

type result = {
  scheme : string;
  ncores : int;
  iterations : int;
  iters_per_sec : float;
  transfers : int;
}

module Make (_ : Refcnt.Counter_intf.S) : sig
  val run :
    ?warmup:int -> ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int -> duration:int -> unit -> result
  (** Fresh machine, [warmup] cycles (default 1M) discarded, then
      [duration] cycles measured. [on_machine] runs on the fresh machine
      before the VM is built (used to attach a [Check]); [on_measure]
      runs right after the warmup-boundary stats reset (used for
      [Check.reset_window]). *)
end
