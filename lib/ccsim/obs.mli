(** Instrumentation event stream for dynamic analysis over the simulator.

    One [Obs.t] per machine, shared by every core. When no sink is
    installed the hooks in {!Line}, {!Lock}, {!Rwlock}, {!Tlb}, and the
    higher layers cost one branch each ([active] is false and no event is
    allocated), so instrumentation is free for ordinary runs. A checker
    (see the [check] library) installs a sink with [set_sink] and receives
    every shared-memory access, lock transition, TLB fill/drop, unmap
    completion, and reference-count transition in simulated-time order —
    the scheduler runs one core at a time, so the stream is a legal
    interleaving of the run.

    Events carry integer identities plus the human label given at
    creation ([Line.create ~label], [Lock.create ~label], ...), so
    reports can name the owning subsystem ("radix:slot", "pt:shared",
    "linux:aslock") without the checker knowing any data-structure
    types. *)

(** How an access participates in the concurrency discipline:
    - [Plain] — an ordinary load/store; racing plain accesses are bugs.
    - [Atomic] — a modeled hardware atomic (cmpxchg, fetch-add, a
      lock-free free-list push). Pays full coherence cost but cannot
      race by itself. *)
type kind = Plain | Atomic

type event =
  | Read of { core : int; line : int; label : string; kind : kind }
  | Write of { core : int; line : int; label : string; kind : kind }
  | Acquire of { core : int; lock : int; line : int; label : string; rd : bool }
      (** [rd] marks a read-side (shared-mode) acquisition of an rwlock. *)
  | Release of { core : int; lock : int; line : int; label : string; rd : bool }
  | Tlb_fill of { core : int; asid : int; vpn : int }
      (** [asid] names the address space (from {!fresh_asid}, unique on
          one machine): each MMU has its own per-core TLB instances, and
          two address spaces caching the same vpn on the same core are
          unrelated translations. *)
  | Tlb_drop of { core : int; asid : int; vpn : int }
  | Unmap_done of { core : int; asid : int; lo : int; hi : int }
      (** A VM implementation finished removing \[lo,hi) from address
          space [asid] — including its shootdown round. Emitted by
          [Radixvm] and [Region_vm]; the TLB checker validates that no
          core still caches a translation for the range in that space. *)
  | Rc_make of { core : int; oid : int; init : int; label : string }
  | Rc_inc of { core : int; oid : int; label : string }
  | Rc_dec of { core : int; oid : int; label : string }
  | Rc_free of { core : int; oid : int; label : string }

type t

val create : unit -> t

val set_sink : t -> (event -> unit) option -> unit
(** Install (or remove) the single event consumer. *)

val active : t -> bool
(** A sink is installed and emission is not suppressed — check this before
    allocating an event. *)

val emit : t -> event -> unit

val quiet_incr : t -> unit
(** Suppress emission (nestable). {!Lock} and {!Rwlock} wrap their internal
    line writes with this so one logical lock operation produces one
    [Acquire]/[Release] event rather than a spurious data [Write]. *)

val quiet_decr : t -> unit

val fresh_line_id : unit -> int
(** The next line id: unique across the process, from one counter shared
    by every domain. *)

val fresh_lock_id : t -> int
(** The next lock id on this machine: 0, 1, 2, ... in the order its
    locks ({!Lock.create}, {!Lock.create_on}, {!Rwlock.create}) are
    created. The ids are dense, so a checker can index its per-lock state
    by them. *)

val fresh_asid : t -> int
(** The next address-space id for TLB events on this machine: 0, 1, 2,
    ... in the order its MMUs are created. *)
