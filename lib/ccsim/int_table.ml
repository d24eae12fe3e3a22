(* Open-addressed linear-probe map over nonnegative int keys. The stdlib
   [Hashtbl] costs a [caml_hash] call, a bucket-list walk, and an
   allocation per insert; simulator structures keyed by vpn or frame
   number sit on the per-access hot path and need none of that.

   [keys.(s)] is [-1] for an empty slot, [-2] for a tombstone left by
   [remove]. Values live in a parallel array seeded with a caller-provided
   dummy (never returned: absent keys take the caller's default). The
   table doubles when live entries pass a quarter of the slots and
   rebuilds in place when tombstones accumulate, so probe chains stay
   short under churn. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable live : int;
  mutable occupied : int;  (* live + tombstones *)
  dummy : 'a;
}

let create ?(size_hint = 16) dummy =
  let size = ref 8 in
  while !size < 4 * size_hint do
    size := !size * 2
  done;
  {
    keys = Array.make !size (-1);
    vals = Array.make !size dummy;
    live = 0;
    occupied = 0;
    dummy;
  }

let length t = t.live

let find_slot t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let s = ref (key * 0x9E3779B1 land mask) in
  let k = ref (Array.unsafe_get keys !s) in
  while !k <> key && !k <> -1 do
    s := (!s + 1) land mask;
    k := Array.unsafe_get keys !s
  done;
  if !k = key then !s else -1

let raw_add keys vals key v =
  let mask = Array.length keys - 1 in
  let s = ref (key * 0x9E3779B1 land mask) in
  while Array.unsafe_get keys !s <> -1 do
    s := (!s + 1) land mask
  done;
  Array.unsafe_set keys !s key;
  Array.unsafe_set vals !s v

(* Grow when genuinely full, rebuild at the same size when tombstones are
   the problem. *)
let rebuild t =
  let old_size = Array.length t.keys in
  let size = if t.live * 4 > old_size then old_size * 2 else old_size in
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make size (-1);
  t.vals <- Array.make size t.dummy;
  for s = 0 to old_size - 1 do
    let k = Array.unsafe_get old_keys s in
    if k >= 0 then raw_add t.keys t.vals k (Array.unsafe_get old_vals s)
  done;
  t.occupied <- t.live

let set t key v =
  if key < 0 then invalid_arg "Int_table.set: negative key";
  let s = find_slot t key in
  if s >= 0 then t.vals.(s) <- v
  else begin
    (* Absent: claim the first reusable slot (a tombstone mid-chain is
       safe to take once absence is established). *)
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let s = ref (key * 0x9E3779B1 land mask) in
    let k = ref (Array.unsafe_get keys !s) in
    while !k <> -1 && !k <> -2 do
      s := (!s + 1) land mask;
      k := Array.unsafe_get keys !s
    done;
    if !k = -1 then t.occupied <- t.occupied + 1;
    keys.(!s) <- key;
    t.vals.(!s) <- v;
    t.live <- t.live + 1;
    if t.occupied * 2 > Array.length keys then rebuild t
  end

let find_default t key default =
  if key < 0 then default
  else
    let s = find_slot t key in
    if s < 0 then default else Array.unsafe_get t.vals s

let remove t key =
  if key >= 0 then begin
    let s = find_slot t key in
    if s >= 0 then begin
      t.keys.(s) <- -2;
      t.vals.(s) <- t.dummy;
      t.live <- t.live - 1
    end
  end

(* Ascending slot order (arbitrary but deterministic for a given insertion
   history). *)
let iter f t =
  let keys = t.keys in
  for s = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys s in
    if k >= 0 then f k (Array.unsafe_get t.vals s)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
