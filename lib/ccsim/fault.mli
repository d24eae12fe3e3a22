(** Seeded, deterministic fault injection.

    A fault plan is attached to a {!Machine} ({!Machine.set_fault}) and is
    consulted from the hot paths it perturbs: {!Physmem.alloc} (finite
    frame budget), {!Ipi.multicast} (delayed or stalled acknowledgments),
    and the VM operations' injection points (mid-critical-section aborts
    and crashes). With no plan attached ([None] everywhere) every query
    short-circuits on an option match — the fault machinery costs nothing
    when absent.

    All randomized decisions come from one private [Random.State] seeded
    at {!create}: the same seed against the same (deterministic) simulated
    run replays the same faults at the same points, which is what makes
    fuzzer transcripts byte-identical across replays. *)

type t

(** How a target core responds to an IPI under the plan. *)
type ipi_response =
  | Prompt  (** normal acknowledgment *)
  | Delayed of int  (** acknowledgment arrives [cycles] late *)
  | Stalled  (** the core never acknowledges (e.g. spinning with
                 interrupts disabled) *)

exception Injected_abort of { op : string; point : string }
(** Raised by {!abort_now} when an {!abort_ops} rule fires: the named VM
    operation abandons its critical section at the named injection point.
    VM layers catch this (and roll back) — it must never escape to user
    code. *)

exception Injected_crash of { op : string; point : string }
(** Raised by {!abort_now} when a {!crash_ops} rule fires: the process
    executing the named VM operation dies on the spot, mid-critical-section.
    Unlike {!Injected_abort}, the VM layers must NOT unwind it — no
    rollback, no unlock. The operation records enough context for a later
    {!Radixvm.reap} to repair the half-done work, and the exception
    propagates to the session driver, which models the kernel noticing the
    dead process and reaping it. *)

val create : ?seed:int -> unit -> t
(** A fresh plan with no faults configured. [seed] (default 0) fixes every
    probabilistic decision the plan will ever make. *)

val seed : t -> int

(** {1 Configuring faults} *)

val set_frame_budget : t -> int option -> unit
(** [set_frame_budget t (Some n)] caps live physical frames at [n]:
    {!Physmem.alloc} raises {!Physmem.Out_of_frames} while [n] frames are
    live. [None] removes the cap. *)

val frame_budget : t -> int option

val delay_ipi : t -> core:int -> cycles:int -> unit
(** Make [core] acknowledge IPIs [cycles] late. *)

val stall_ipi : t -> core:int -> unit
(** Make [core] never acknowledge IPIs. *)

val ipi_response : t -> core:int -> ipi_response

val ipi_faults_active : t -> bool
(** Any core configured to delay or stall? {!Ipi.multicast} engages its
    timeout/retry machinery only when this is true, so fault-free runs
    keep the exact legacy timing. *)

val abort_ops : t -> op:string -> ?point:string -> prob:float -> unit -> unit
(** Make VM operation [op] ("mmap", "munmap", "mprotect", "pagefault")
    abort with probability [prob] at each of its injection points — or
    only at [point] ("locked", "cleared", "filled") when given. *)

val crash_ops : t -> op:string -> ?point:string -> prob:float -> unit -> unit
(** Like {!abort_ops}, but the rule raises {!Injected_crash}: the process
    dies mid-critical-section instead of unwinding gracefully. Crash rules
    are drawn after abort rules at each injection point, so adding crash
    rules never perturbs the rng stream of an abort-only plan. *)

(** {1 Hot-path queries} *)

val abort_now : t -> op:string -> point:string -> unit
(** Draw against every matching {!abort_ops} entry (raises
    {!Injected_abort} if one fires), then every matching {!crash_ops}
    entry (raises {!Injected_crash}). No-op while suppressed. *)

(** {1 Suppression}

    Teardown paths (process exit, address-space destroy, rollback of a
    failed syscall) must not themselves fail — like a real kernel's exit
    path, they run with injection suppressed. The frame budget stays in
    force (it models a resource, not an injected event), but teardown only
    releases frames. *)

val with_suppressed : t option -> (unit -> 'a) -> 'a
(** Run the thunk with abort and crash injection disabled (re-entrant;
    exception-safe). [None] just runs the thunk. *)

val suppressed : t -> bool

(** {1 Known-bad mode (tests only)} *)

val set_break_rollback : t -> bool -> unit
(** Deliberately skip the VM layers' rollback-and-unlock handling when an
    injected abort fires. Exists so tests can prove the checkers (leaked
    locks, frame leaks) actually catch a missing rollback. *)

val rollback_broken : t -> bool

(** {1 Injection counters} *)

val note_oom : t -> unit
val injected_oom : t -> int
(** Allocation attempts refused by the frame budget. *)

val injected_aborts : t -> int

val injected_crashes : t -> int
(** Crash rules fired (processes killed mid-critical-section). *)

val note_ipi_delay : t -> unit
val ipi_delays : t -> int
(** IPI acknowledgments perturbed (delayed or stalled). *)

val note_ipi_abandoned : t -> unit
val ipi_abandoned : t -> int
(** Shootdown targets given up on after the retry budget. *)
