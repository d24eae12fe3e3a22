(** Multi-address-space worlds for the shard-scaling figure.

    Three scenarios over a {!Harness.Shard} world of [nodes] machines ×
    [cores] cores each, all running until a fixed virtual duration:

    - ["disjoint"] — every core mmaps/touches/munmaps its own private
      region; zero cross-shard traffic (the scaling best case).
    - ["fork"] — core 0 of each node churns short-lived address spaces
      and periodically asks the next node to spawn one (epoch-batched
      fork request, answered by a reap acknowledgment one epoch later).
    - ["shared"] — all nodes map one shared file; writes shoot down the
      other nodes' mappings through {!Ccsim.Ipi.remote} and flush a
      refcount delta to the page's home node (high cross-shard rate).

    Every field of {!result} except nothing — including the [digest]
    folding per-node progress and merged stats — is a pure function of
    the configuration: running the same config at a different [shards]
    width yields the identical result, which the determinism tests
    assert at widths 1, 2, and 4. *)

type config = {
  nodes : int;
  cores : int;
  shards : int;  (** host domains executing the world, used as given *)
  duration : int;  (** simulated cycles each node runs for *)
  epoch : int;  (** barrier period in simulated cycles *)
}

type result = {
  scenario : string;
  nodes : int;
  cores : int;
  shards : int;
  ops : int;
  remote_acks : int;
  epochs : int;
  xs_sent : int;
  xs_delivered : int;
  sim_cycles : int;
  ipis : int;
  shootdown_events : int;
  digest : string;
}

val scenarios : string list
(** [["disjoint"; "fork"; "shared"]]. *)

module Make (_ : Vm.Vm_intf.S) : sig
  val run : config -> scenario:string -> result
  (** @raise Invalid_argument on an unknown scenario name. *)
end
