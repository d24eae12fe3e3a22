(** The three section-5.3 microbenchmarks — local, pipeline, global —
    runnable against any VM system (Figure 5) and any MMU configuration
    (Figure 9).

    - {b local}: each core mmaps a private 4 KB region, writes it, and
      munmaps it, in a loop — the per-thread memory-pool pattern.
    - {b pipeline}: each core mmaps a region, writes it, and passes it to
      the next core, which writes it again and munmaps it — the
      producer/consumer pattern (each munmap needs exactly one remote
      shootdown under targeted tracking).
    - {b global}: each core mmaps a slice of one large shared region
      (256 KB/core, giving the paper's 20 MB region at 80 cores), all
      cores write every page of the whole region in shuffled
      order, then each core munmaps its slice — the
      shared-data-structure pattern.

    Results are reported as total page writes per second of simulated time,
    the paper's Figure 5 metric. *)

type result = {
  name : string;
  ncores : int;
  page_writes : int;
  cycles : int;  (** simulated duration *)
  writes_per_sec : float;
  ipis : int;
  shootdown_events : int;
  transfers : int;  (** cache-line transfers during the run *)
  lock_wait : int;  (** cycles spent waiting on locks *)
  shootdown_wait : int;  (** cycles senders waited for shootdown acks *)
  line_stall : int;  (** cycles queued on busy cache lines *)
}

val measure :
  warmup:int -> duration:int -> on_measure:(unit -> unit) ->
  Ccsim.Machine.t -> int ref -> int
(** Run [warmup] cycles, reset the Stats, call [on_measure], run
    [duration] more; returns how much [writes] grew in that window. *)

val finish :
  name:string -> ncores:int -> duration:int -> Ccsim.Machine.t -> int ->
  result
(** The result of a [duration]-cycle window with this many page writes. *)

module Make (V : Vm.Vm_intf.S) : sig
  val local :
    ?warmup:int -> ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int -> duration:int ->
    (Ccsim.Machine.t -> V.t) -> result
  (** [local ~ncores ~duration make_vm] builds a fresh machine with
      [ncores] cores and the VM via [make_vm], runs [warmup] cycles
      (default 4M) to reach steady state — initial radix expansion and the
      first Refcache epochs are startup effects the paper's steady-state
      averages exclude — then measures for [duration] cycles.
      [on_machine] runs on the fresh machine before the VM is built —
      the hook used to attach a [Check] instance; [on_measure] runs at
      the warmup/measure boundary, right after the stats reset (the hook
      for [Check.reset_window], so sharing is judged over the same
      steady-state window as the cost model's counters). *)

  val pipeline :
    ?warmup:int -> ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int -> duration:int ->
    (Ccsim.Machine.t -> V.t) -> result

  val global :
    ?warmup:int -> ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int -> duration:int ->
    (Ccsim.Machine.t -> V.t) -> result
end
