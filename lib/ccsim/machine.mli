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

(** Cross-shard event payloads (see {!Harness.Shard}): when a machine is
    one node of a sharded world, sends to remote nodes are buffered
    through its uplink and delivered by the epoch-barrier engine in a
    canonical (send time, source node, sequence) order at the next epoch
    boundary, never immediately. *)
type xpayload =
  | Xshootdown of { core : int; handler : int }
      (** interrupt [core] on the destination node for [handler] cycles *)
  | Xrc of { oid : int; delta : int }
      (** shared-frame refcount flush for object [oid]'s home node *)
  | Xmsg of { tag : int; a : int; b : int }
      (** workload-defined; interpreted by the destination node's handler *)

type xevent = { xdst : int; xsent : int; xpayload : xpayload }

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

val node : t -> int
(** This machine's node id within a sharded world; [0] standalone. *)

val set_uplink : t -> node:int -> (xevent -> unit) -> unit
(** Install the shard engine's outbox hook and this machine's node id.
    Reserved to {!Harness.Shard} (enforced by simlint [ds-cross-shard]). *)

val uplink_send : t -> dst:int -> sent:int -> xpayload -> unit
(** Buffer one cross-shard event into the epoch batch. [sent] is the
    sending core's virtual time; delivery happens at the destination no
    earlier than the next epoch boundary. @raise Invalid_argument when no
    uplink is installed. *)

val deliver_interrupt : t -> core:int -> cycles:int -> unit
(** Deliver a cross-shard shootdown: charge [cycles] of handler time to
    [core] (folded into its clock at its next step) and count one IPI on
    this machine's stats. A delivery endpoint reserved to the
    epoch-barrier engine — simlint's [ds-cross-shard] rule flags any
    other caller. *)
