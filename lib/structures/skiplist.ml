open Ccsim

type 'v node = {
  key : int;
  mutable value : 'v option;  (* None only for the head sentinel *)
  next : 'v node option array;
  line : Line.t;
}

type 'v t = { head : 'v node; mutable length : int }

let max_level = 16

let fresh_line (core : Core.t) =
  Line.create ~label:"skiplist:node" core.Core.params core.Core.stats
    ~home_socket:core.Core.socket

let create core =
  {
    head =
      {
        key = min_int;
        value = None;
        next = Array.make max_level None;
        line = fresh_line core;
      };
    length = 0;
  }

(* Deterministic tower height: one plus the number of trailing one bits of
   a hash of the key — geometric(1/2), independent of insertion order. *)
let height_of key =
  let h = key * 0x9E3779B1 land max_int in
  let rec count h acc = if h land 1 = 1 then count (h lsr 1) (acc + 1) else acc in
  min max_level (1 + count h 0)

(* Walk down from the top level, collecting the predecessor at each level.
   Every node whose line we inspect is charged as a read. *)
let find_preds core t key =
  let preds = Array.make max_level t.head in
  Line.read core t.head.line;
  let cur = ref t.head in
  for level = max_level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match !cur.next.(level) with
      | Some n when n.key < key ->
          Line.read core n.line;
          cur := n
      | Some n ->
          (* Peek at the successor's key: costs a read of its line. *)
          Line.read core n.line;
          continue := false
      | None -> continue := false
    done;
    preds.(level) <- !cur
  done;
  preds

let find core t key =
  let preds = find_preds core t key in
  match preds.(0).next.(0) with
  | Some n when n.key = key -> n.value
  | _ -> None

let mem core t key = find core t key <> None

let floor core t key =
  let preds = find_preds core t key in
  match preds.(0).next.(0) with
  | Some n when n.key = key -> Some (n.key, Option.get n.value)
  | _ ->
      let p = preds.(0) in
      if p == t.head then None else Some (p.key, Option.get p.value)

let insert core t key value =
  let preds = find_preds core t key in
  match preds.(0).next.(0) with
  | Some n when n.key = key ->
      (* Replacement writes the node itself. *)
      Line.write core n.line;
      n.value <- Some value
  | _ ->
      let h = height_of key in
      let node =
        { key; value = Some value; next = Array.make h None; line = fresh_line core }
      in
      Line.write core node.line;
      for level = 0 to h - 1 do
        node.next.(level) <- preds.(level).next.(level);
        (* Linking in mutates the predecessor: the interior write that
           makes skip lists contend under unrelated inserts. *)
        Line.write core preds.(level).line;
        preds.(level).next.(level) <- Some node
      done;
      t.length <- t.length + 1

let remove core t key =
  let preds = find_preds core t key in
  match preds.(0).next.(0) with
  | Some n when n.key = key ->
      (* Logical delete marks the node, then unlinks at each level. *)
      Line.write core n.line;
      for level = 0 to Array.length n.next - 1 do
        if
          match preds.(level).next.(level) with
          | Some m -> m == n
          | None -> false
        then begin
          Line.write core preds.(level).line;
          preds.(level).next.(level) <- n.next.(level)
        end
      done;
      t.length <- t.length - 1;
      true
  | _ -> false

let length t = t.length

let to_alist t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, Option.get n.value) :: acc) n.next.(0)
  in
  go [] t.head.next.(0)

let check_invariants t =
  (* Level-0 keys strictly ascend; every higher level is a subsequence. *)
  let rec check_sorted prev = function
    | None -> ()
    | Some n ->
        if n.key <= prev then failwith "Skiplist: keys not ascending";
        check_sorted n.key n.next.(0)
  in
  check_sorted min_int t.head.next.(0);
  let count =
    let rec go acc = function None -> acc | Some n -> go (acc + 1) n.next.(0) in
    go 0 t.head.next.(0)
  in
  if count <> t.length then failwith "Skiplist: length mismatch";
  for level = 1 to max_level - 1 do
    let rec check = function
      | None -> ()
      | Some n ->
          (* every node at this level must be reachable at level - 1 *)
          let rec present = function
            | None -> false
            | Some m -> m == n || (m.key <= n.key && present m.next.(level - 1))
          in
          if not (present t.head.next.(level - 1)) then
            failwith "Skiplist: tower not grounded";
          check n.next.(level)
    in
    check t.head.next.(level)
  done
