(** Timed spinlocks.

    A lock is a serializing resource: acquiring it performs one write access
    to the lock's cache line (so contended locks also generate cache-line
    movement) and then waits, if necessary, until the previous holder's
    release time. Because the scheduler executes each simulated operation
    atomically, critical sections are expressed as
    [acquire; ...accesses...; release] within one operation; the lock's
    [free_time] timestamp carries mutual exclusion across operations. *)

type t

val create : ?label:string -> Core.t -> t
(** A fresh unlocked lock on its own cache line. [label] names the lock in
    checker reports; no effect on the cost model. *)

val create_on : ?label:string -> Core.t -> Line.t -> t
(** A lock sharing an existing line (e.g. a per-slot lock bit living in the
    slot's line, as in the radix tree), created by [core]. [label]
    defaults to the line's. *)

val id : t -> int
(** Stable identity used to correlate instrumentation events: the
    creating core's machine numbers its locks 0, 1, 2, ... in creation
    order ({!Obs.fresh_lock_id}), so two machines' locks can share an
    id. *)

val acquire : Core.t -> t -> unit
val release : Core.t -> t -> unit

val free_time : t -> int
(** Time of the last release (for tests). *)
