type rule =
  | Ds_toplevel_mutable
  | Det_entropy
  | Det_wallclock
  | Det_getenv
  | Det_hashtbl_order
  | Det_float_format
  | Hot_hashtbl
  | Hot_polycompare
  | Hot_marshal
  | Allow_stale
  | Allow_malformed

let all_rules =
  [
    Ds_toplevel_mutable;
    Det_entropy;
    Det_wallclock;
    Det_getenv;
    Det_hashtbl_order;
    Det_float_format;
    Hot_hashtbl;
    Hot_polycompare;
    Hot_marshal;
    Allow_stale;
    Allow_malformed;
  ]

let rule_id = function
  | Ds_toplevel_mutable -> "ds-toplevel-mutable"
  | Det_entropy -> "det-entropy"
  | Det_wallclock -> "det-wallclock"
  | Det_getenv -> "det-getenv"
  | Det_hashtbl_order -> "det-hashtbl-order"
  | Det_float_format -> "det-float-format"
  | Hot_hashtbl -> "hot-hashtbl"
  | Hot_polycompare -> "hot-polycompare"
  | Hot_marshal -> "hot-marshal"
  | Allow_stale -> "allow-stale"
  | Allow_malformed -> "allow-malformed"

let rule_of_id id = List.find_opt (fun r -> String.equal (rule_id r) id) all_rules

(* [Allow_stale] and [Allow_malformed] are integrity errors about the
   allowlist itself; an allowlist entry naming them would be
   self-defeating, so they cannot be suppressed. *)
let suppressible = function
  | Allow_stale | Allow_malformed -> false
  | _ -> true

type t = { rule : rule; file : string; line : int; site : string; message : string }

let v ~rule ~file ~line ~site message = { rule; file; line; site; message }

let to_string f =
  Printf.sprintf "%s:%d: [%s] %s: %s" f.file f.line (rule_id f.rule) f.site
    f.message

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare (rule_id a.rule) (rule_id b.rule) in
      if c <> 0 then c
      else
        let c = String.compare a.site b.site in
        if c <> 0 then c else String.compare a.message b.message
