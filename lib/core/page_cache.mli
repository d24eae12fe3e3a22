(** A page cache for file-backed mappings.

    Maps (file, page) to a physical frame shared by every mapping of that
    file page — across cores and across address spaces — with the frame's
    lifetime tracked by the pluggable reference-counting scheme (each
    cached page holds one base reference; every mapping holds one more).
    This is the workload behind the paper's Figure 8: processes repeatedly
    mapping and unmapping shared library pages drive these counts up and
    down from every core.

    Buckets are individually locked and live on their own cache lines, so
    lookups of different files do not contend. A miss "reads from disk"
    (a fixed latency) into a fresh frame.

    Entries are keyed by [(file, page)] packed into one int, so [file]
    must lie in \[0, 2{^22}) and [page] in \[0, 2{^40}). Every operation
    raises [Invalid_argument] on a pair outside that range, before any
    simulated work.

    Pages additionally carry a dirty bit for the cache-serving workload's
    writeback accounting: a store through a file mapping marks the page
    ({!Make.set_dirty}); an LRU sweep consults {!Make.dirty} to charge a
    writeback before dropping the page. The bit is bookkeeping only — it
    adds no cost to the fault or eviction paths themselves. *)

module Make (C : Refcnt.Counter_intf.S) : sig
  type t

  val create : Ccsim.Machine.t -> C.t -> t

  val get : t -> Ccsim.Core.t -> file:int -> page:int -> int * C.handle
  (** The frame caching this file page, loading it on a miss. Takes one
      reference for the caller (dropped when the caller unmaps). If the
      page was evicted but mappings kept it alive, the cache re-adopts
      its base reference here. *)

  val evict : t -> Ccsim.Core.t -> file:int -> page:int -> unit
  (** Drop the cache's base reference (memory pressure): the frame is
      freed once the last mapping goes away; a later [get] reloads it.
      Idempotent — evicting an already-evicted (but still mapped)
      page is a no-op. *)

  val set_dirty : t -> Ccsim.Core.t -> file:int -> page:int -> unit
  (** Mark a resident page dirty (a store went through a mapping).
      No-op for non-resident pages. *)

  val clear_dirty : t -> Ccsim.Core.t -> file:int -> page:int -> unit
  (** Writeback done: unmark the page. *)

  val dirty : t -> file:int -> page:int -> bool
  (** Inspection (eviction policy / tests): is the resident page dirty? *)

  val cached_pages : t -> int
  (** Resident cache entries (for tests). *)
end

val file_content : file:int -> page:int -> int
(** The deterministic content word "on disk" for a file page (what a miss
    loads into the fresh frame). *)
