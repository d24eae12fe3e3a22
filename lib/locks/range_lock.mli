(** Pluggable range-lock backends.

    RadixVM embeds range locks in the mapping index itself: per-slot lock
    bits in the radix tree ({!Radix.lock_range}), so disjoint operations
    touch disjoint cache lines. That is one point in a design space; this
    interface names the alternatives so the simulator can measure the
    crossover:

    - {!Radix_embedded} — the paper's design, implemented inside
      {!Radix}; this module only names it (there is no external state).
    - {!List_based} — a Kogan-style ordered list of locked [lo, hi)
      ranges ({!List_lock}): correct range granularity, but every
      acquisition walks and writes one shared list.
    - {!Global} — one lock over the whole address space (the classical
      [mmap_sem] strawman): every operation serializes.

    External backends ([List_based], [Global]) plug into
    {!Radix.lock_range}/[unlock_range]: acquisition goes through this
    interface and the tree is walked lock-free under its protection. The
    checker needs no special wiring — both are built from {!Ccsim.Lock},
    so lock-order, leaked-lock and lockset analysis see their
    acquire/release events like any other lock's. *)

type kind = Radix_embedded | List_based | Global

val all : kind list

val name : kind -> string
(** ["radix"], ["list"], ["global"]. *)

val of_string : string -> (kind, string) result
(** Inverse of {!name} (accepts ["embedded"] for [Radix_embedded] too). *)

val labels : kind -> string list
(** The line labels the backend introduces, for checker allowlists
    ([Check.ok]'s [race_allow] / zero-sharing [allow]): the list
    backend's head and node lines are traversed and spliced by every
    core — that sharing is its design (and its measured cost), not a
    bug; the global backend's one lock line likewise. Empty for
    {!Radix_embedded}. *)

type t
(** An instantiated external backend (one per address space). *)

type handle
(** A held range. *)

val create_external : Ccsim.Machine.t -> Ccsim.Core.t -> kind -> t option
(** Backend state for one address space; [None] for {!Radix_embedded},
    whose state lives in the radix tree. *)

val acquire : Ccsim.Core.t -> t -> lo:int -> hi:int -> handle
val release : Ccsim.Core.t -> t -> handle -> unit
(** Release a held range — also on behalf of a process that died holding
    it ({!Radixvm.reap}), which must run on the dead process's own core so
    the checker's per-core held-lock accounting balances. *)
