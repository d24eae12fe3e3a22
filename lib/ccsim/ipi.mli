(** Inter-processor interrupts over a serializing interconnect.

    Models the x86 APIC behaviour the paper measures: IPIs are delivered
    through a shared channel whose per-message occupancy serializes
    concurrent senders ("the protocol used by the APIC hardware ... appears
    to be non-scalable"), each targeted core pays an interrupt-handler cost,
    and the sender waits for all acknowledgments. A shootdown round to many
    cores therefore costs hundreds of thousands of cycles, while a round
    with no remote targets costs nothing. *)

val multicast : Machine.t -> Core.t -> targets:int list -> unit
(** [multicast m sender ~targets] sends one IPI to each core in [targets]
    (the sender itself is skipped if listed) and blocks the sender until the
    last acknowledgment. Counts one shootdown event even when [targets] is
    empty or self-only.

    When the machine's fault plan delays or stalls acknowledgments
    ({!Fault.delay_ipi}, {!Fault.stall_ipi}), the sender instead waits at
    most [Params.ipi_ack_timeout] cycles per target (doubling per retry,
    counted in [Stats.shootdown_retries]) and abandons a target after
    [Params.ipi_max_retries] attempts — safe because the invalidations
    themselves happen before the IPI; only the handshake is lost. Without
    such a plan the wait is unbounded, exactly the legacy timing. *)
