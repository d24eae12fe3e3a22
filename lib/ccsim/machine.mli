(** The simulated machine: cores, scheduler, and shared resources.

    Workloads are per-core step functions. The scheduler repeatedly runs the
    active core with the least effective clock ([clock + pending_intr]),
    ties going to the lowest core id, so cross-core causality is
    respected at step granularity; each step executes atomically and
    advances its core's clock through the cost model. A step returning
    [false] retires its core's workload.

    Clocks only move forward: a write to a core's [clock] must never
    lower it, and {!Core.interrupt} only adds. The scheduler
    keeps the active cores in a min-heap whose keys may lag the live
    clocks, and relies on this rule to re-key lazily; a live clock found
    below its stored key raises [Failure].

    Maintenance hooks (used for Refcache epoch flushes) fire on every core
    with a fixed period of simulated time, including on cores whose
    workloads have already retired — the paper's epoch barrier needs every
    core to keep flushing. *)

type t

val create : Params.t -> t
val params : t -> Params.t
val stats : t -> Stats.t

val obs : t -> Obs.t
(** The machine-wide instrumentation stream, shared by every core. Sink-less
    (and therefore free) unless a checker attaches. *)

val physmem : t -> Physmem.t
val ncores : t -> int
val core : t -> int -> Core.t
val cores : t -> Core.t array

val set_fault : t -> Fault.t option -> unit
(** Attach a fault-injection plan (or detach with [None]): the plan is
    propagated to every core and to physical memory, and from there
    consulted by {!Physmem.alloc}, {!Ipi.multicast}, and the VM layers'
    injection points. No plan attached (the default)
    means the fault machinery costs nothing. *)

val fault : t -> Fault.t option

val set_workload : t -> int -> (unit -> bool) -> unit
(** [set_workload t i step] installs [step] on core [i], replacing any
    workload already there. It may be called from inside a step, for
    example to wake an idle core. *)

val add_maintenance : t -> period:int -> (Core.t -> unit) -> unit
(** Register a hook to run on every core once per [period] cycles. *)

val run : t -> unit
(** Run until every workload has retired. *)

val run_for : t -> cycles:int -> unit
(** Run until every workload has retired or the earliest active core's
    effective clock reaches the absolute time [cycles]. Cores at or past
    the horizon take no further step, but their workloads stay
    installed: a later [run_for] with a larger horizon, or [run], resumes
    them (warm-up/measure splits rely on this). *)

val drain : t -> cycles:int -> unit
(** Advance simulated time by [cycles] on all cores, firing only
    maintenance hooks (used to let Refcache epochs settle after a run). *)

val elapsed : t -> int
(** Largest core clock (total simulated time so far). *)

val seconds : t -> int -> float
(** Convert cycles to seconds at the machine's clock rate. *)

val wait_hint : t -> Core.t -> unit
(** Advance [core]'s clock just past the earliest effective clock of the
    other active cores, and by at least a polling interval — used by
    workloads polling for cross-core events (channel receive, barrier). *)

(* Shared IPI interconnect state; used by {!Ipi}. *)
val ipi_free_at : t -> int
val set_ipi_free_at : t -> int -> unit

val idle : t -> bool
(** Every workload has retired ([run] would return immediately). *)
