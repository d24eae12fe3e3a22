(** A simulated CPU core.

    A core is a clock plus identity: the scheduler in {!Machine} always runs
    the ready core with the smallest clock, and every simulated memory
    access, lock operation, or IPI advances the acting core's clock by its
    modeled cost. *)

type t = {
  id : int;
  socket : int;
  params : Params.t;
  stats : Stats.t;
  obs : Obs.t;  (** the machine's instrumentation stream (shared) *)
  mutable clock : int;
      (** local time in cycles; never lowered (the scheduler relies on
          it, see {!Machine}) *)
  mutable pending_intr : int;
      (** interrupt-handler cycles charged by IPIs received while this core
          was logically behind; folded into [clock] at its next step *)
  rng : Random.State.t;  (** deterministic per-core randomness *)
  mutable fault : Fault.t option;
      (** the machine's fault-injection plan, if one is attached
          ({!Machine.set_fault}); consulted by {!Lock} and the VM layers'
          injection points *)
}

val create : ?obs:Obs.t -> Params.t -> Stats.t -> id:int -> t
(** [obs] defaults to a fresh (sink-less) stream; {!Machine.create} passes
    one shared stream to every core. *)

val tick : t -> int -> unit
(** [tick c n] advances [c]'s clock by [n] cycles ([n >= 0]). *)

val now : t -> int
(** Current local clock, after folding in any pending interrupt cost. *)

val interrupt : t -> cycles:int -> unit
(** Charge [cycles] of interrupt-handler time to this core: the cost is
    accumulated in [pending_intr] and folded into the clock at the core's
    next step. This is {!Ipi}'s delivery primitive: each IPI it sends
    lands on its target core through this call. *)

val pp : Format.formatter -> t -> unit
