(** Machine-wide event counters.

    One [Stats.t] per simulated machine. Counters are plain mutable fields
    updated by the cost model; benchmarks read them to report cache-line
    movement, shootdowns, fault mixes, and so on (the paper reports several
    of these directly, e.g. L2/L3 misses per iteration in section 5.3). *)

type t = {
  mutable l1_hits : int;  (** accesses satisfied by the local cache *)
  mutable transfers_local : int;  (** same-socket cache-to-cache transfers *)
  mutable transfers_remote : int;  (** cross-socket transfers *)
  mutable dram_fills : int;  (** misses served from DRAM *)
  mutable line_stall_cycles : int;  (** cycles spent queued on busy lines *)
  mutable lock_acquires : int;
  mutable lock_contended : int;  (** acquires that had to wait *)
  mutable lock_wait_cycles : int;
  mutable ipis : int;  (** individual inter-processor interrupts *)
  mutable shootdown_events : int;  (** shootdown rounds (one per munmap) *)
  mutable shootdown_targets : int;  (** total cores targeted *)
  mutable shootdown_retries : int;
      (** targets re-interrupted after an acknowledgment timeout (only
          nonzero under fault injection) *)
  mutable shootdown_wait_cycles : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable hw_walks : int;  (** TLB fills from a page table, no VM entry *)
  mutable pagefaults : int;  (** software faults into the VM system *)
  mutable fill_faults : int;  (** faults that found an existing frame *)
  mutable alloc_faults : int;  (** faults that allocated a fresh frame *)
  mutable frames_allocated : int;
  mutable frames_freed : int;
  mutable mmaps : int;
  mutable munmaps : int;
}

val create : unit -> t
val reset : t -> unit

val total_transfers : t -> int
(** Cache-line transfers of any distance (the "cache-line movement" the
    paper's design minimizes). *)

val pp : Format.formatter -> t -> unit
