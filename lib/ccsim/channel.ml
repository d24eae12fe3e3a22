type 'a t = { q : ('a * int) Queue.t; line : Line.t }

let create (core : Core.t) =
  let line =
    Line.create ~label:"channel" core.Core.params core.Core.stats
      ~home_socket:core.Core.socket
  in
  { q = Queue.create (); line }

(* A channel is itself a synchronization primitive: its queue updates model
   atomic operations on the queue head, so they are tagged [Atomic] rather
   than racing plain accesses. *)
let send core t v =
  Line.write_atomic core t.line;
  Queue.push (v, Core.now core) t.q

let recv core t =
  Line.read_atomic core t.line;
  match Queue.peek_opt t.q with
  | None -> None
  | Some (v, ready) ->
      if ready > Core.now core then None
      else begin
        ignore (Queue.pop t.q);
        (* Taking the message dirties the queue's line. *)
        Line.write_atomic core t.line;
        Some v
      end
