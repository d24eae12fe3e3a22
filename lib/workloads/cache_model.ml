type t = {
  slots : int;
  key : int array;  (* -1 = empty slot *)
  value : int array;
  (* Intrusive doubly-linked recency list over resident slots; -1 = nil.
     Head is most-recently-used. *)
  prev : int array;
  next : int array;
  mutable head : int;
  mutable tail : int;
}

let create ~slots =
  if slots <= 0 then invalid_arg "Cache_model.create";
  {
    slots;
    key = Array.make slots (-1);
    value = Array.make slots 0;
    prev = Array.make slots (-1);
    next = Array.make slots (-1);
    head = -1;
    tail = -1;
  }

let slot_of_key t key = key mod t.slots

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p;
  t.prev.(s) <- -1;
  t.next.(s) <- -1

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

let touch t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

let peek t ~key =
  let s = slot_of_key t key in
  if t.key.(s) = key then Some t.value.(s) else None

let get t ~key =
  let s = slot_of_key t key in
  if t.key.(s) = key then begin
    touch t s;
    Some t.value.(s)
  end
  else None

let set t ~key ~value =
  let s = slot_of_key t key in
  if t.key.(s) = -1 then push_front t s else touch t s;
  t.key.(s) <- key;
  t.value.(s) <- value

let drop t s =
  unlink t s;
  t.key.(s) <- -1

let delete t ~key =
  let s = slot_of_key t key in
  if t.key.(s) = key then begin
    drop t s;
    true
  end
  else false

let evict_slot t s = if t.key.(s) >= 0 then drop t s

let coldest t ~n =
  let rec walk acc s n =
    if s < 0 || n = 0 then List.rev acc
    else walk (s :: acc) t.prev.(s) (n - 1)
  in
  walk [] t.tail n

let hottest t = if t.head >= 0 then Some t.head else None

let clear t =
  Array.fill t.key 0 t.slots (-1);
  Array.fill t.prev 0 t.slots (-1);
  Array.fill t.next 0 t.slots (-1);
  t.head <- -1;
  t.tail <- -1
