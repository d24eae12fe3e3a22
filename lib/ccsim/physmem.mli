(** Simulated physical memory: a frame allocator with per-core free lists.

    Frames are small integers. Each frame has a home core (its first
    allocator); freeing returns it to the home core's free list, touching
    that list's cache line — so cross-core frees generate the coherence
    traffic the paper observes when the pipeline benchmark "returns freed
    pages to their home nodes". Allocation of a fresh or recycled frame
    charges the page-zeroing cost (the dominant per-iteration cache-miss
    source in section 5.3). *)

type t

exception Out_of_frames
(** Raised by {!alloc} when an attached fault plan's frame budget
    ({!Fault.set_frame_budget}) is exhausted. Never raised otherwise —
    without a budget, simulated memory is unbounded. *)

exception Double_free of int
(** Raised by {!free} for a frame that is not currently allocated: the
    payload is the frame number. (Freeing a frame twice would otherwise
    silently put it on the free list twice, so two later allocations
    would share it.) *)

val create : Params.t -> Stats.t -> t

val set_fault : t -> Fault.t option -> unit
(** Attach (or detach) the fault plan consulted by {!alloc}; installed by
    {!Machine.set_fault}. *)

val alloc : t -> Core.t -> int
(** Allocate (and zero) a frame for [core].
    @raise Out_of_frames when a fault plan's frame budget is exhausted. *)

val try_alloc : t -> Core.t -> int option
(** [alloc] returning [None] instead of raising {!Out_of_frames}. *)

val free : t -> Core.t -> int -> unit
(** Return a frame to its home core's free list.
    @raise Double_free if the frame is not currently allocated.
    @raise Invalid_argument if the frame was never allocated at all. *)

val live_frames : t -> int
(** Frames currently allocated (for leak tests and memory accounting). *)

val set_content : t -> int -> int -> unit
(** [set_content t frame v] records a one-word summary of the frame's
    contents — enough to test copy-on-write and page-cache sharing
    end-to-end on real values. Access costs are charged by the VM layer's
    load/store paths, not here. *)

val get_content : t -> int -> int
(** The frame's content word (0 for a freshly allocated frame). *)
