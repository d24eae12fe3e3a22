(* A member [x] lives in the leaf keyed by its prefix [x lsr 5], as bit
   [x land 31] of that leaf's bitmap ([bits] is never 0). A branch at bit
   [m] (a power of two) splits the prefixes that agree above [m]: [p] is
   that common part, with bit [m] and everything below it cleared; [l]
   holds the prefixes with bit [m] clear and [r] those with it set.
   Neither child of a branch is ever empty, so a set has exactly one
   shape. Prefixes are nonnegative (a logical shift), so the int order of
   two branching bits is the order of their tree levels. *)

type t =
  | Empty
  | Leaf of { p : int; bits : int }
  | Branch of { p : int; m : int; l : t; r : t }

let empty = Empty
let is_empty = function Empty -> true | Leaf _ | Branch _ -> false

(* The bits of [k] above [m]. *)
let mask k m = k land lnot ((2 * m) - 1)
let zero_bit k m = k land m = 0
let match_prefix k p m = mask k m = p

let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x land lnot (x lsr 1)

(* The branch over two subtrees with distinct prefixes [p0] and [p1]. *)
let join p0 t0 p1 t1 =
  let m = highest_bit (p0 lxor p1) in
  if zero_bit p0 m then Branch { p = mask p0 m; m; l = t0; r = t1 }
  else Branch { p = mask p0 m; m; l = t1; r = t0 }

(* A branch whose children may have emptied. *)
let branch p m l r =
  match (l, r) with
  | Empty, s | s, Empty -> s
  | _ -> Branch { p; m; l; r }

(* [b] is a single bit throughout: [add] and [remove] edit one member. *)
let rec add_bit k b s =
  match s with
  | Empty -> Leaf { p = k; bits = b }
  | Leaf { p; bits } ->
      if p <> k then join k (Leaf { p = k; bits = b }) p s
      else if bits land b <> 0 then s
      else Leaf { p; bits = bits lor b }
  | Branch { p; m; l; r } ->
      if not (match_prefix k p m) then join k (Leaf { p = k; bits = b }) p s
      else if zero_bit k m then
        let l' = add_bit k b l in
        if l' == l then s else Branch { p; m; l = l'; r }
      else
        let r' = add_bit k b r in
        if r' == r then s else Branch { p; m; l; r = r' }

let add x s = add_bit (x lsr 5) (1 lsl (x land 31)) s

let rec remove_bit k b s =
  match s with
  | Empty -> s
  | Leaf { p; bits } ->
      if p <> k || bits land b = 0 then s
      else if bits = b then Empty
      else Leaf { p; bits = bits land lnot b }
  | Branch { p; m; l; r } ->
      if not (match_prefix k p m) then s
      else if zero_bit k m then
        let l' = remove_bit k b l in
        if l' == l then s else branch p m l' r
      else
        let r' = remove_bit k b r in
        if r' == r then s else branch p m l r'

let remove x s = remove_bit (x lsr 5) (1 lsl (x land 31)) s

(* The bitmap of prefix [k] in [s]; 0 when no member has that prefix. *)
let rec find_bits k = function
  | Empty -> 0
  | Leaf { p; bits } -> if p = k then bits else 0
  | Branch { p; m; l; r } ->
      if not (match_prefix k p m) then 0
      else find_bits k (if zero_bit k m then l else r)

let rec inter s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ -> s
    | _, Empty -> t
    | Leaf { p; bits }, _ ->
        let b = bits land find_bits p t in
        if b = bits then s else if b = 0 then Empty else Leaf { p; bits = b }
    | Branch _, Leaf { p; bits } ->
        let b = bits land find_bits p s in
        if b = bits then t else if b = 0 then Empty else Leaf { p; bits = b }
    | Branch { p = p1; m = m1; l = l1; r = r1 },
      Branch { p = p2; m = m2; l = l2; r = r2 } ->
        if m1 = m2 && p1 = p2 then
          let l = inter l1 l2 and r = inter r1 r2 in
          if l == l1 && r == r1 then s else branch p1 m1 l r
        else if m1 > m2 && match_prefix p2 p1 m1 then
          inter (if zero_bit p2 m1 then l1 else r1) t
        else if m1 < m2 && match_prefix p1 p2 m2 then
          inter s (if zero_bit p1 m2 then l2 else r2)
        else Empty
