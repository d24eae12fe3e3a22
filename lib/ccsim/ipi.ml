let multicast machine (sender : Core.t) ~targets =
  let p = Machine.params machine and stats = Machine.stats machine in
  stats.Stats.shootdown_events <- stats.Stats.shootdown_events + 1;
  let fault = Machine.fault machine in
  let faulty =
    match fault with Some f -> Fault.ipi_faults_active f | None -> false
  in
  (* One IPI to [target]: returns the send completion time and the time
     the target's handler would acknowledge. *)
  let send_one (target : Core.t) =
    (* The interconnect briefly serializes every IPI machine-wide;
       the dominant cost is the sender's own APIC protocol, paid
       serially per target. *)
    let start = Int.max (Core.now sender) (Machine.ipi_free_at machine) in
    Machine.set_ipi_free_at machine (start + p.Params.ipi_channel);
    let sent = start + p.Params.ipi_send in
    sender.Core.clock <- sent;
    let deliver = sent + p.Params.ipi_deliver in
    let begun = Int.max (target.Core.clock + target.Core.pending_intr) deliver in
    let ack = begun + p.Params.ipi_handler in
    Core.interrupt target ~cycles:p.Params.ipi_handler;
    stats.Stats.ipis <- stats.Stats.ipis + 1;
    stats.Stats.shootdown_targets <- stats.Stats.shootdown_targets + 1;
    (sent, ack)
  in
  let ack_max = ref 0 in
  List.iter
    (fun id ->
      if id <> sender.Core.id then begin
        let target = Machine.core machine id in
        if not faulty then begin
          let _, ack = send_one target in
          ack_max := Int.max !ack_max ack
        end
        else begin
          (* Sender-side timeout with bounded retry and exponential
             backoff: a target whose acknowledgment is late gets
             re-interrupted with a doubled wait budget; a target that
             never responds is abandoned after [ipi_max_retries] rounds.
             Correctness is unaffected — the page-table and TLB
             invalidations happened synchronously before the IPI; only
             the completion handshake is missing — so the sender may
             proceed rather than hang the address space. *)
          let f = Option.get fault in
          let rec attempt try_no =
            let sent, ack = send_one target in
            let timeout = p.Params.ipi_ack_timeout lsl try_no in
            let acked =
              match Fault.ipi_response f ~core:id with
              | Fault.Prompt -> Some ack
              | Fault.Delayed d ->
                  Fault.note_ipi_delay f;
                  if ack + d - sent <= timeout then Some (ack + d) else None
              | Fault.Stalled ->
                  Fault.note_ipi_delay f;
                  None
            in
            match acked with
            | Some ack -> ack_max := Int.max !ack_max ack
            | None ->
                stats.Stats.shootdown_retries <-
                  stats.Stats.shootdown_retries + 1;
                (* The sender spun the whole timeout on this target. *)
                sender.Core.clock <- Int.max sender.Core.clock (sent + timeout);
                if try_no + 1 < p.Params.ipi_max_retries then
                  attempt (try_no + 1)
                else Fault.note_ipi_abandoned f
          in
          attempt 0
        end
      end)
    targets;
  if !ack_max > 0 then begin
    let now = Core.now sender in
    if !ack_max > now then begin
      stats.Stats.shootdown_wait_cycles <-
        stats.Stats.shootdown_wait_cycles + (!ack_max - now);
      sender.Core.clock <- !ack_max
    end
  end
