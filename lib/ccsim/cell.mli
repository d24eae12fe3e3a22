(** Typed simulated memory cells.

    A cell is an OCaml mutable value bound to a simulated cache {!Line}:
    reading or writing it through this interface charges the acting core
    according to the coherence cost model. Each cell has a line of its
    own.

    [peek]/[poke] bypass the cost model; they are for tests and for
    initialization that is not part of a measured run. *)

type 'a t

val make : ?label:string -> Core.t -> 'a -> 'a t
(** [make core v] is a cell on a fresh private line homed on [core]'s
    socket. [label] names the line in checker reports. *)

val line : 'a t -> Line.t
val read : Core.t -> 'a t -> 'a
val write : Core.t -> 'a t -> 'a -> unit

val write_atomic : Core.t -> 'a t -> 'a -> unit
(** Atomic store (e.g. a release-publish in a lock-free protocol). Costs
    the same as {!write} but is tagged [Atomic] in the event stream, so a
    race checker knows it is part of a synchronization protocol rather
    than an unprotected plain store. *)

val cas : Core.t -> 'a t -> expect:'a -> update:'a -> bool
(** Atomic compare-and-swap; always charges a write access (x86 semantics:
    the line is taken exclusive whether or not the CAS succeeds).
    Equality is structural. *)

val fetch_add : Core.t -> int t -> int -> int
(** Atomic add returning the previous value; charges a write access. *)

val peek : 'a t -> 'a
val poke : 'a t -> 'a -> unit
