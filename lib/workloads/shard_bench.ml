open Ccsim

module Shard = Harness.Shard

type config = {
  nodes : int;  (** simulated machines in the world *)
  cores : int;  (** cores per node *)
  shards : int;  (** host domains executing the world *)
  duration : int;  (** simulated cycles each node runs for *)
  epoch : int;  (** barrier period in simulated cycles *)
}

type result = {
  scenario : string;
  nodes : int;
  cores : int;
  shards : int;
  ops : int;  (** total scenario operations (page writes) *)
  remote_acks : int;  (** fork/reap round trips completed (fork scenario) *)
  epochs : int;
  xs_sent : int;
  xs_delivered : int;
  sim_cycles : int;
  ipis : int;
  shootdown_events : int;
  digest : string;
      (** MD5 over per-node progress and the merged stats: identical for
          any [shards], which the determinism tests assert *)
}

let scenarios = [ "disjoint"; "fork"; "shared" ]

module Make (V : Vm.Vm_intf.S) = struct
  let spacing = 4096

  (* Build the world, let [setup] install each node's workloads and
     handlers, run to completion, and fold the counters into one
     layout-independent result. *)
  let run_world (cfg : config) ~scenario ~setup =
    if cfg.nodes < 1 || cfg.cores < 1 then invalid_arg "Shard_bench";
    let params =
      List.init cfg.nodes (fun _ -> Params.default ~ncores:cfg.cores ())
    in
    let w = Shard.create ~epoch:cfg.epoch params in
    let ops = Array.make cfg.nodes 0 in
    let acks = Array.make cfg.nodes 0 in
    for n = 0 to cfg.nodes - 1 do
      setup w cfg (Shard.node w n) ~ops ~acks
    done;
    Shard.run ~shards:cfg.shards w;
    let stats = Shard.total_stats w in
    let total a = Array.fold_left ( + ) 0 a in
    let buf = Buffer.create 256 in
    Buffer.add_string buf scenario;
    for n = 0 to cfg.nodes - 1 do
      Buffer.add_string buf
        (Printf.sprintf " %d:%d:%d:%d" n
           (Machine.elapsed (Shard.machine (Shard.node w n)))
           ops.(n) acks.(n))
    done;
    Buffer.add_string buf
      (Printf.sprintf " x%d/%d " (Shard.sent w) (Shard.delivered w));
    Buffer.add_string buf (Format.asprintf "%a" Stats.pp stats);
    {
      scenario;
      nodes = cfg.nodes;
      cores = cfg.cores;
      shards = cfg.shards;
      ops = total ops;
      remote_acks = total acks;
      epochs = Shard.epoch w;
      xs_sent = Shard.sent w;
      xs_delivered = Shard.delivered w;
      sim_cycles = Shard.elapsed w;
      ipis = stats.Stats.ipis;
      shootdown_events = stats.Stats.shootdown_events;
      digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    }

  let expect_ok what = function
    | Vm.Vm_types.Ok -> ()
    | Vm.Vm_types.Segfault -> failwith (what ^ ": unexpected segfault")
    | Vm.Vm_types.Oom -> failwith (what ^ ": out of frames")

  (* Each core of each node mmaps, touches, and munmaps its own private
     region: the RadixVM best case. Zero cross-shard traffic, so the
     world decomposes perfectly over shards. *)
  let disjoint_pages = 4

  let setup_disjoint_core (cfg : config) nd ~ops c =
    let machine = Shard.machine nd in
    let n = Shard.node_id nd in
    let vm = V.create machine in
    let core = Machine.core machine c in
    let vpn = c * spacing in
    Machine.set_workload machine c (fun () ->
        if Core.now core >= cfg.duration then false
        else begin
          V.mmap vm core ~vpn ~npages:disjoint_pages ();
          for p = vpn to vpn + disjoint_pages - 1 do
            expect_ok "disjoint" (V.touch vm core ~vpn:p);
            ops.(n) <- ops.(n) + 1
          done;
          V.munmap vm core ~vpn ~npages:disjoint_pages;
          true
        end)

  let setup_disjoint _w (cfg : config) nd ~ops ~acks:_ =
    for c = 0 to cfg.cores - 1 do
      setup_disjoint_core cfg nd ~ops c
    done

  (* Fork-heavy: core 0 of each node builds and tears down short-lived
     address spaces; every [fork_remote_period]-th iteration it asks the
     next node to spawn one instead (an epoch-batched Xmsg), whose
     spawner core answers with a reap acknowledgment one epoch later.
     Remaining cores run the disjoint filler. *)
  let fork_pages = 8
  let fork_remote_period = 2
  let tag_spawn = 1
  let tag_reap = 2

  let setup_fork w (cfg : config) nd ~ops ~acks =
    let machine = Shard.machine nd in
    let n = Shard.node_id nd in
    let spawn_ch = Channel.create (Machine.core machine (min 1 (cfg.cores - 1))) in
    Shard.on_message nd (fun ~time ~src payload ->
        match payload with
        | Machine.Xmsg { tag; _ } when tag = tag_spawn ->
            Shard.post nd spawn_ch src ~time
        | Machine.Xmsg { tag; _ } when tag = tag_reap ->
            acks.(n) <- acks.(n) + 1
        | _ -> ());
    let spawn_one core base =
      let vm = V.create machine in
      V.mmap vm core ~vpn:base ~npages:fork_pages ();
      for p = base to base + fork_pages - 1 do
        expect_ok "fork" (V.touch vm core ~vpn:p);
        ops.(n) <- ops.(n) + 1
      done;
      V.munmap vm core ~vpn:base ~npages:fork_pages
    in
    let core0 = Machine.core machine 0 in
    let iter = ref 0 in
    Machine.set_workload machine 0 (fun () ->
        if Core.now core0 >= cfg.duration then false
        else begin
          spawn_one core0 0;
          incr iter;
          if cfg.nodes > 1 && !iter mod fork_remote_period = 0 then
            Machine.uplink_send machine
              ~dst:((n + 1) mod cfg.nodes)
              ~sent:(Core.now core0)
              (Machine.Xmsg { tag = tag_spawn; a = n; b = !iter });
          true
        end);
    if cfg.cores > 1 then begin
      let core1 = Machine.core machine 1 in
      Machine.set_workload machine 1 (fun () ->
          if Core.now core1 >= cfg.duration then false
          else begin
            (match Channel.recv core1 spawn_ch with
            | Some src ->
                spawn_one core1 spacing;
                Machine.uplink_send machine ~dst:src ~sent:(Core.now core1)
                  (Machine.Xmsg { tag = tag_reap; a = n; b = 0 })
            | None -> Machine.wait_hint machine core1);
            true
          end)
    end;
    ignore w;
    for c = 2 to cfg.cores - 1 do
      setup_disjoint_core cfg nd ~ops c
    done

  (* Shared-cache style: every node maps the same [file_pages]-page file;
     reads touch the local mapping, writes additionally shoot down every
     other node's mapping of the page (remote IPIs through the epoch
     batch) and flush a refcount delta to the page's home node, which
     keeps the authoritative per-page ledger. *)
  let file_pages = 64
  let chunk = 8

  let setup_shared w (cfg : config) nd ~ops ~acks:_ =
    let machine = Shard.machine nd in
    let n = Shard.node_id nd in
    let vm = V.create machine in
    let ledger = Array.make file_pages 0 in
    Shard.on_message nd (fun ~time:_ ~src:_ payload ->
        match payload with
        | Machine.Xrc { oid; delta } ->
            ledger.(oid) <- ledger.(oid) + delta
        | _ -> ());
    (* The whole file is mapped up front on core 0 (setup time, before
       the world runs). *)
    V.mmap vm (Machine.core machine 0) ~vpn:0 ~npages:file_pages ();
    let others =
      List.filter (fun m -> m <> n) (List.init cfg.nodes (fun m -> m))
    in
    for c = 0 to cfg.cores - 1 do
      let core = Machine.core machine c in
      Machine.set_workload machine c (fun () ->
          if Core.now core >= cfg.duration then false
          else begin
            for _ = 1 to chunk do
              let rng = core.Core.rng in
              let page =
                if Random.State.int rng 4 < 3 then Random.State.int rng 8
                else Random.State.int rng file_pages
              in
              expect_ok "shared" (V.touch vm core ~vpn:page);
              ops.(n) <- ops.(n) + 1;
              if Random.State.int rng 4 = 0 && cfg.nodes > 1 then begin
                Ipi.remote machine core
                  ~targets:
                    (List.map (fun m -> (m, page mod cfg.cores)) others);
                Machine.uplink_send machine ~dst:(page mod cfg.nodes)
                  ~sent:(Core.now core)
                  (Machine.Xrc { oid = page; delta = 1 })
              end
            done;
            true
          end)
    done;
    ignore w

  let run cfg ~scenario =
    let setup =
      match scenario with
      | "disjoint" -> setup_disjoint
      | "fork" -> setup_fork
      | "shared" -> setup_shared
      | s -> invalid_arg ("Shard_bench.run: unknown scenario " ^ s)
    in
    run_world cfg ~scenario ~setup
end
