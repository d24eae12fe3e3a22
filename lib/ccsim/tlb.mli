(** Per-core translation lookaside buffer.

    A bounded map from virtual page number to physical frame number with
    FIFO replacement. The TLB itself is core-private hardware, so its
    operations cost nothing in the coherence model; callers charge the
    appropriate [tlb_hit] / walk / fault costs. What matters for the paper
    is *when* entries must be removed: x86 hardware gives no notice of what
    a TLB caches, so the kernel must shoot down remote TLBs explicitly. *)

type entry = { pfn : int; writable : bool }

type t

val create : ?obs:Obs.t -> ?core:int -> ?asid:int -> capacity:int -> unit -> t
(** [obs]/[core]/[asid] wire the TLB into the instrumentation stream: every
    membership change (fill, invalidation, silent FIFO eviction, flush) is
    reported as a [Tlb_fill]/[Tlb_drop] on [core] in address space [asid]
    (from {!Obs.fresh_asid}; distinguishes the TLBs of different MMUs),
    letting a checker keep an exact mirror of the contents. Omit all three
    for an unobserved TLB. *)

val lookup : t -> int -> entry option
(** [lookup t vpn] is the cached translation for [vpn], if present. *)

val lookup_packed : t -> int -> int
(** Allocation-free variant of {!lookup} for the MMU fast path: [-1] when
    absent, otherwise [pfn lsl 1 lor writable]. *)

val insert : t -> vpn:int -> pfn:int -> writable:bool -> unit
(** Insert a translation. A vpn not yet cached joins the back of the
    FIFO, evicting the entry that has been cached longest if full;
    replacing a cached vpn's translation keeps its place. *)

val invalidate : t -> int -> unit
(** Drop the entry for one vpn (no-op if absent). *)

val invalidate_range : t -> lo:int -> hi:int -> unit
(** Drop entries for vpns in [lo, hi). *)

val flush : t -> unit
(** Drop everything (full TLB flush). *)

val size : t -> int
val mem : t -> int -> bool

val queue_length : t -> int
(** Length of the internal FIFO replacement queue, including the holes
    invalidation leaves in it. At most twice the capacity, rounded up to a
    power of two — holes are squeezed out when the queue fills — which is
    the invariant the leak-regression tests assert. *)
