(** Cache lines with a MESI-style directory and timed serialization.

    This is the heart of the simulator's cost model. Every shared datum in
    the simulated system lives on some line. An access by a core that
    already holds the line in a suitable state costs an L1 hit; any other
    access is a miss that (a) pays a distance-dependent transfer latency and
    (b) serializes at the line: concurrent missing cores queue behind each
    other through the line's [free_at] timestamp. A line written from many
    cores therefore bounds aggregate throughput at one transfer per latency
    — the scalability cliff the paper designs around — while a line private
    to one core costs an L1 hit forever. *)

type t

val create : ?label:string -> Params.t -> Stats.t -> home_socket:int -> t
(** A fresh line, present in no cache; its backing DRAM lives on
    [home_socket]. [label] names the owning subsystem in checker reports
    (e.g. ["radix:slot"]); it has no effect on the cost model. *)

val read : Core.t -> t -> unit
(** Charge [core] for a load from the line and update the directory. *)

val write : Core.t -> t -> unit
(** Charge [core] for a store to the line (invalidating other holders) and
    update the directory. *)

val read_atomic : Core.t -> t -> unit
(** Like {!read} but tagged [Atomic] in the instrumentation stream: part of
    a modeled hardware atomic, so excluded from race detection. Identical
    cost to {!read}. *)

val write_atomic : Core.t -> t -> unit
(** Like {!write} but tagged [Atomic] (cmpxchg, fetch-add, lock-free list
    push). Identical cost to {!write}. *)

val id : t -> int
(** Stable identity used to correlate instrumentation events. *)

val label : t -> string

val holder : t -> int option
(** Exclusive owner, if any (for tests). *)

val sharers : t -> int list
(** Cores holding the line in shared state (for tests). *)
