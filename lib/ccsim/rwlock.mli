(** Timed reader-writer lock.

    Models the single read-write lock per address space used by Linux and
    similar kernels (section 2 of the paper). Readers do not exclude each
    other in time, but every reader acquire and release performs an atomic
    update of the lock word's cache line — so with many concurrent readers
    the lock line itself serializes them, which is exactly why concurrent
    page faults fail to scale on Linux even though they only "read". *)

type t

val create : ?label:string -> Core.t -> t

val id : t -> int
(** Stable identity used to correlate instrumentation events, drawn from
    the same per-machine counter as {!Lock.id}. *)

val label : t -> string
val read_acquire : Core.t -> t -> unit
val read_release : Core.t -> t -> unit
val write_acquire : Core.t -> t -> unit
val write_release : Core.t -> t -> unit
