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
  val run : ncores:int -> duration:int -> unit -> result
  (** Fresh machine, 1M warmup cycles discarded, then [duration] cycles
      measured. *)
end
