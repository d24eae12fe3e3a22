(** Deterministic sharded worlds: many simulated machines ("nodes")
    advancing in parallel on host domains, interacting only through
    epoch-quantized batches of cross-shard events.

    A {e world} is an array of nodes, each its own {!Ccsim.Machine} (own
    cores, stats, observation stream, physical memory) hosting its own
    address spaces. Nodes simulate independently up to a virtual-time
    horizon (one {e epoch}); at the epoch barrier the engine gathers
    every node's outbox of cross-shard events — remote IPI shootdowns
    ({!Ccsim.Ipi.remote}), shared-frame refcount flushes, fork/reap
    messages — sorts the batch into the canonical (send time, source
    node, sequence) order, delivers it, and advances the horizon.

    The load-bearing property: cross-shard sends are {e always} buffered
    into the epoch batch, never delivered immediately, even when the
    whole world runs on one domain. World semantics are therefore a
    function of the node topology and epoch length only — the shard
    width [~shards] (how many host domains execute the per-node run
    loops) is a pure execution mapping, and every artifact derived from
    a world is byte-identical at any width. The shard tests assert this
    at widths 1, 2, and 4.

    Determinism rules enforced around this module:
    - A node's state may only be mutated by its own run loop, or by the
      engine's exchange at a barrier. The simlint rule
      [ds-cross-shard] statically flags the delivery endpoints
      ({!Ccsim.Machine.deliver_interrupt}, {!Ccsim.Channel.post},
      {!Ccsim.Core.interrupt}) outside this engine.
    - Message handlers run at the barrier, in canonical batch order, on
      the coordinating worker; they may mutate their own node and send
      further events (delivered one epoch later). *)

type t
type node

type delivery = {
  d_epoch : int;  (** epoch in which the event was delivered *)
  d_src : int;
  d_dst : int;
  d_sent : int;  (** sender-side virtual send time *)
  d_time : int;  (** delivery time: the epoch-boundary virtual time *)
  d_payload : Ccsim.Machine.xpayload;
}

val create : ?keep_log:bool -> epoch:int -> Ccsim.Params.t list -> t
(** One machine per params entry, node ids in list order, each with its
    uplink installed. [epoch] is the barrier period in simulated cycles —
    cross-shard latency is quantized up to the next boundary, so pick it
    comparable to (or above) the modeled IPI delivery latency.
    [keep_log] records every delivery for tests ({!log}). *)

val node : t -> int -> node
val machine : node -> Ccsim.Machine.t
val node_id : node -> int

val on_message : node ->
  (time:int -> src:int -> Ccsim.Machine.xpayload -> unit) -> unit
(** Install the node's handler for [Xrc]/[Xmsg] payloads ([Xshootdown]
    is delivered by the engine itself). Called at epoch barriers in
    canonical batch order; [time] is the boundary's virtual time. Events
    arriving on a node with no handler are dropped. *)

val post : node -> 'a Ccsim.Channel.t -> 'a -> time:int -> unit
(** For use inside an {!on_message} handler: hand a message to one of
    the node's own workload channels, ready at the delivery time. This is
    the sanctioned wrapper around {!Ccsim.Channel.post} — calling the
    raw endpoint outside the engine trips simlint's [ds-cross-shard]. *)

val run : ?shards:int -> t -> unit
(** Run the epoch loop until every node is idle and no events are
    pending. [shards] host domains execute the per-node run loops, node
    [i] on domain [i mod shards] (clamped to the node count); [1] — the
    default — runs everything on the calling domain. Any value yields
    bit-identical simulation results; the width is used as given, so the
    caller decides how many host domains a world may take. *)

val epoch : t -> int
(** Completed epochs. *)

val sent : t -> int
(** Cross-shard events gathered into batches so far. *)

val delivered : t -> int
(** Events actually delivered (shootdowns + handled messages). *)

val log : t -> delivery list
(** Delivery log in delivery order; empty unless [~keep_log:true]. *)

val total_stats : t -> Ccsim.Stats.t
(** Fresh accumulator: every node's counters summed in node order. *)

val elapsed : t -> int
(** Largest node-machine elapsed time. *)
