(* hot-hashtbl / hot-polycompare / hot-marshal: hot-path hygiene
   violations. The comparison operators and [compare] here are at boxed
   structured types (records, options, lists) — the ones that really
   reach caml_compare; at int/float/string they are specialized and must
   NOT be flagged. [min] and [max] are never specialized, so they are
   flagged at every type, int included. *)

type pair = { a : int; b : string }

(* hot-polycompare *)
let same (x : pair) (y : pair) = x = y
let rank (x : int option) (y : int option) = compare x y
let differs (x : pair list) (y : pair list) = x <> y
let smallest (x : pair) (y : pair) = min x y
let int_min (x : int) (y : int) = min x y
let digest (x : pair) = Hashtbl.hash x

(* NOT flagged: specialized comparisons. *)
let int_eq (x : int) (y : int) = x = y
let float_le (x : float) (y : float) = x <= y
let str_eq (x : string) (y : string) = x = y

(* hot-hashtbl *)
let tbl : (int, pair) Hashtbl.t = Hashtbl.create 8
let lookup k = Hashtbl.find_opt tbl k
let store k v = Hashtbl.replace tbl k v

(* hot-marshal *)
let save oc (x : pair) = Marshal.to_channel oc [ x ] []
let load ic : pair list = Marshal.from_channel ic
