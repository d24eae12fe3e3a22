type 'a t = { mutable v : 'a; line : Line.t }

let make ?(label = "cell") (core : Core.t) v =
  let line =
    Line.create ~label core.Core.params core.Core.stats
      ~home_socket:core.Core.socket
  in
  { v; line }

let line t = t.line

let read core t =
  Line.read core t.line;
  t.v

let write core t v =
  Line.write core t.line;
  t.v <- v

let write_atomic core t v =
  Line.write_atomic core t.line;
  t.v <- v

let cas core t ~expect ~update =
  Line.write_atomic core t.line;
  if t.v = expect then begin
    t.v <- update;
    true
  end
  else false

let fetch_add core t n =
  Line.write_atomic core t.line;
  let old = t.v in
  t.v <- old + n;
  old

let peek t = t.v
let poke t v = t.v <- v
