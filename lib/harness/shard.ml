module Machine = Ccsim.Machine
module Stats = Ccsim.Stats
module Channel = Ccsim.Channel

type node = {
  id : int;
  machine : Machine.t;
  mutable outbox : (Machine.xevent * int) list;  (* newest first, with seq *)
  mutable seq : int;
  mutable handler : (time:int -> src:int -> Machine.xpayload -> unit) option;
}

type delivery = {
  d_epoch : int;
  d_src : int;
  d_dst : int;
  d_sent : int;
  d_time : int;
  d_payload : Machine.xpayload;
}

type t = {
  nodes : node array;
  epoch_cycles : int;
  mutable epoch : int;
  mutable sent : int;
  mutable delivered : int;
  mutable log : delivery list;  (* newest first *)
  keep_log : bool;
}

let create ?(keep_log = false) ~epoch params_list =
  if epoch <= 0 then invalid_arg "Shard.create: epoch";
  if params_list = [] then invalid_arg "Shard.create: no nodes";
  let nodes =
    Array.of_list
      (List.mapi
         (fun id params ->
           {
             id;
             machine = Machine.create params;
             outbox = [];
             seq = 0;
             handler = None;
           })
         params_list)
  in
  Array.iter
    (fun nd ->
      Machine.set_uplink nd.machine ~node:nd.id (fun (ev : Machine.xevent) ->
          if ev.Machine.xdst < 0 || ev.Machine.xdst >= Array.length nodes then
            invalid_arg "Shard: event to unknown node";
          nd.outbox <- (ev, nd.seq) :: nd.outbox;
          nd.seq <- nd.seq + 1))
    nodes;
  {
    nodes;
    epoch_cycles = epoch;
    epoch = 0;
    sent = 0;
    delivered = 0;
    log = [];
    keep_log;
  }

let node t i = t.nodes.(i)
let machine nd = nd.machine
let node_id nd = nd.id
let epoch t = t.epoch
let sent t = t.sent
let delivered t = t.delivered
let on_message nd fn = nd.handler <- Some fn
let log t = List.rev t.log

let pending t =
  Array.exists (fun nd -> nd.outbox <> []) t.nodes

let world_idle t =
  Array.for_all (fun nd -> Machine.idle nd.machine) t.nodes

(* Deliver every buffered cross-shard event sent before virtual time
   [time] (an epoch boundary), in the canonical (send time, source node,
   sequence) order. An event whose send time already overshot the
   boundary (a single workload step can run past the horizon) is held
   for the boundary of the epoch it was really sent in, so delivery is
   always quantized to the first boundary after the send. Batch content
   and order are thus a pure function of each node's own simulation —
   independent of how nodes are laid out over host domains. *)
let exchange t ~time =
  let batch = ref [] in
  Array.iter
    (fun nd ->
      let deliver, keep =
        List.partition
          (fun ((ev : Machine.xevent), _) -> ev.Machine.xsent < time)
          (List.rev nd.outbox)
      in
      List.iter (fun (ev, seq) -> batch := (ev, nd.id, seq) :: !batch) deliver;
      nd.outbox <- List.rev keep)
    t.nodes;
  let batch =
    List.sort
      (fun ((a : Machine.xevent), sa, qa) ((b : Machine.xevent), sb, qb) ->
        let c = Int.compare a.Machine.xsent b.Machine.xsent in
        if c <> 0 then c
        else
          let c = Int.compare sa sb in
          if c <> 0 then c else Int.compare qa qb)
      (List.rev !batch)
  in
  List.iter
    (fun ((ev : Machine.xevent), src, _seq) ->
      let dst = t.nodes.(ev.Machine.xdst) in
      t.sent <- t.sent + 1;
      (match ev.Machine.xpayload with
      | Machine.Xshootdown { core; handler } ->
          Machine.deliver_interrupt dst.machine ~core ~cycles:handler;
          t.delivered <- t.delivered + 1
      | Machine.Xrc _ | Machine.Xmsg _ -> (
          match dst.handler with
          | Some fn ->
              fn ~time ~src ev.Machine.xpayload;
              t.delivered <- t.delivered + 1
          | None -> ()));
      if t.keep_log then
        t.log <-
          {
            d_epoch = t.epoch;
            d_src = src;
            d_dst = ev.Machine.xdst;
            d_sent = ev.Machine.xsent;
            d_time = time;
            d_payload = ev.Machine.xpayload;
          }
          :: t.log)
    batch

let post (_ : node) ch v ~time = Channel.post ch v ~ready:time

(* A reusable sense-reversing barrier: [await] blocks until all [total]
   participants arrive, then releases the round together. The mutex
   establishes the happens-before edges that make the coordinator's
   exchange (and its writes to t.epoch and the running flag) visible to
   every worker in the next round. *)
type barrier = {
  mutex : Mutex.t;
  cond : Condition.t;
  total : int;
  mutable arrived : int;
  mutable phase : int;
}

let barrier total =
  { mutex = Mutex.create (); cond = Condition.create (); total; arrived = 0;
    phase = 0 }

let await b =
  Mutex.lock b.mutex;
  let phase = b.phase in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.total then begin
    b.arrived <- 0;
    b.phase <- phase + 1;
    Condition.broadcast b.cond
  end
  else
    while b.phase = phase do
      Condition.wait b.cond b.mutex
    done;
  Mutex.unlock b.mutex

let run ?(shards = 1) t =
  let shards = max 1 (min shards (Array.length t.nodes)) in
  let finished () = world_idle t && not (pending t) in
  (* Worker [w] owns nodes with id mod shards = w; between the two
     barriers of a round only worker 0 touches shared world state. At
     width 1 the calling domain is the only worker and the barriers
     return at once. *)
  let b = barrier shards in
  let running = ref (not (finished ())) in
  let worker w =
    while !running do
      let horizon = (t.epoch + 1) * t.epoch_cycles in
      Array.iter
        (fun nd ->
          if nd.id mod shards = w then
            Machine.run_for nd.machine ~cycles:horizon)
        t.nodes;
      await b;
      if w = 0 then begin
        exchange t ~time:horizon;
        t.epoch <- t.epoch + 1;
        running := not (finished ())
      end;
      await b
    done
  in
  let domains =
    Array.init (shards - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
  in
  worker 0;
  Array.iter Domain.join domains

let total_stats t =
  let acc = Stats.create () in
  Array.iter
    (fun nd -> Stats.add ~into:acc (Machine.stats nd.machine))
    t.nodes;
  acc

let elapsed t =
  Array.fold_left (fun m nd -> max m (Machine.elapsed nd.machine)) 0 t.nodes
