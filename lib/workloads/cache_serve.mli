(** The shared-memory cache serving workload ("mmap in anger").

    The production pattern of mmap-backed caches like Cache::FastMmap:
    many serving cores — optionally many forked processes — map one
    shared region over a page-cache-backed file, hash keys to
    page-granular slots, and run a Zipf-skewed get/set/delete mix. An LRU
    sweep periodically munmaps + remaps cold slots and drops them from
    the page cache (real targeted shootdowns plus Refcache-deferred frame
    reclamation under live traffic), with occasional slot-resize
    mprotects. Unlike the microbenchmarks, every VM operation here is on
    the workload's own hot path: the figure this produces is
    throughput-per-core of the *service*, not of mmap itself.

    Every entry point drives one process shape — per-process load,
    store, munmap, map and mprotect over the region, the page-cache
    hooks, compaction, crash reap and exit — built from threads of one
    {!Vm.Vm_intf.S} address space, forked {!Vm.Radixvm} address spaces,
    or {!Os.Kernel} processes:
    - {!Make.serve} and {!Procs.serve}: one concurrent serving loop, over
      threads (any VM system) or one kernel process per core;
    - {!Session.run}: the sequential, model-checked correctness oracle —
      every observable operation is cross-checked against {!Cache_model},
      with page-cache eviction, VFS truncate compaction, and one refusal
      policy for ENOMEM, injected aborts and crashes. *)

type result = {
  ncores : int;
  ops : int;  (* operations completed in the measured window *)
  gets : int;
  sets : int;
  dels : int;
  lost : int;  (* accesses that faulted on a slot mid-eviction *)
  evictions : int;
  writebacks : int;  (* dirty slots written back before eviction *)
  resizes : int;  (* slot-resize mprotect round-trips *)
  ops_per_sec : float;
  ops_per_core : float;
  cycles : int;
  ipis : int;
  shootdown_events : int;
  lock_wait : int;
  shootdown_wait : int;
  line_stall : int;
}

(** The page-cache hooks a VM system may provide. The generic serve loop
    cannot name RadixVM's page cache, so callers inject the three
    operations the sweep needs; [None] (the baselines) means eviction is
    munmap + remap only and writeback accounting is off. *)
type 'vm cache_ops = {
  co_evict : 'vm -> Ccsim.Core.t -> page:int -> unit;
  co_mark_dirty : 'vm -> Ccsim.Core.t -> page:int -> unit;
  co_dirty : 'vm -> page:int -> bool;
  co_clear_dirty : 'vm -> Ccsim.Core.t -> page:int -> unit;
}

val radixvm_cache_ops : file:int -> Vm.Radixvm.Default.t cache_ops
(** RadixVM's page-cache hooks for the file [file]: what the file-backed
    RadixVM rows pass to {!Make.serve}, and what the session's shapes
    use. *)

module Make (V : Vm.Vm_intf.S) : sig
  val serve :
    ?warmup:int ->
    ?slots:int ->
    ?evict_every:int ->
    ?seed:int ->
    ?file:int ->
    ?cache_ops:V.t cache_ops ->
    ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int ->
    duration:int ->
    (Ccsim.Machine.t -> V.t) ->
    result
  (** One shared address space, every core serving. [file] backs the
      region with that fd (shared through the page cache on RadixVM);
      absent, the region is anonymous. Core 0 runs the LRU sweep every
      [evict_every] (default 512) of its own operations and a slot-resize
      mprotect every 8 sweeps. Keys are Zipf(1.1) over [2 * slots] ranks
      (so distinct keys collide in slots, as in a real direct-mapped page
      cache). *)
end

module Procs : sig
  val serve :
    ?warmup:int ->
    ?slots:int ->
    ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?on_measure:(unit -> unit) ->
    ncores:int ->
    duration:int ->
    unit ->
    result
  (** The multi-process shape: boot {!Os.Kernel}, [Kernel.sys_fork] one
      process per core from init, each mapping the cache file with
      [sys_mmap]; every serving operation and every sweep munmap/remap
      goes through the syscall layer. The sweep runs as in {!Make.serve}
      at its defaults, and every 32 sweeps the file is also truncated to
      zero and back ({!Os.Vfs}'s resize hook drops every cached page) —
      bulk memory pressure. *)
end

module Session : sig
  type outcome = {
    ops_done : int;
    gets : int;
    hits : int;
    misses : int;
    sets : int;
    dels : int;
    evictions : int;
    writebacks : int;
    compactions : int;
    resizes : int;
    enomem : int;  (* operations refused under a frame budget *)
    aborts : int;  (* operations refused at an injected abort point *)
    crashes_reaped : int;
    served_after_crash : bool;  (* a sibling completed a get/set after a crash *)
    divergences : string list;  (* observable mismatches vs Cache_model *)
    history : string;  (* one line per observable operation *)
  }

  val run :
    ?procs:int ->
    ?via_kernel:bool ->
    ?slots:int ->
    ?compact_every:int ->
    ?rangelock:Locks.Range_lock.kind ->
    ?seed:int ->
    ?ops:int ->
    ?on_machine:(Ccsim.Machine.t -> unit) ->
    ?arm:(unit -> unit) ->
    unit ->
    outcome
  (** The correctness oracle: a sequential driver applies [ops]
      operations across [procs] forked address spaces (direct
      {!Vm.Radixvm} forks by default; [via_kernel] boots {!Os.Kernel} and
      uses [sys_fork]/[sys_mmap]/user access instead), rotating the
      driving core over 4 cores, and cross-checks every get/set/delete
      against {!Cache_model}. Keys are Zipf(1.1) over [2 * slots] ranks.
      Every 256 operations the model's coldest slots are written back if
      dirty, munmapped from every live address space, dropped from the
      page cache, remapped, and drained — so the next access is a genuine
      reload and its emptiness is exactly predicted by the model; every
      fourth such sweep resizes the hottest slot. [compact_every > 0] adds
      whole-file truncate-to-zero compactions through the VFS resize hook.
      A divergence-free run's [history] is a pure function of the
      configuration — byte-identical across range-lock backends.

      Fault tolerant: ENOMEM and injected aborts are counted and leave
      the model consistent — the sweep's, compaction's and heal's own VM
      steps retry an abort (it was rolled back), an operation whose heal
      is still refused is refused, and a compaction some process refuses
      truncates nothing; an injected crash reaps exactly the crashed
      address space while siblings keep serving. [arm] runs after setup
      (initial mmap + forks) and before the first operation — the place
      to turn on a fault plan so setup itself stays clean. *)
end
