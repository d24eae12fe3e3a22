open Ccsim

type kind = Radix_embedded | List_based | Global

let all = [ Radix_embedded; List_based; Global ]

let name = function
  | Radix_embedded -> "radix"
  | List_based -> "list"
  | Global -> "global"

let of_string = function
  | "radix" | "embedded" -> Ok Radix_embedded
  | "list" -> Ok List_based
  | "global" -> Ok Global
  | s ->
      Error
        (Printf.sprintf "unknown range-lock backend %S (radix|list|global)" s)

(* The line labels each backend introduces, for checker allowlists. The
   list backend's head and node lines are traversed and spliced by every
   faulting core — that sharing is the backend's design (and its cost),
   so checked runs admit it explicitly rather than calling it a bug. *)
let labels = function
  | Radix_embedded -> []
  | List_based -> [ "rangelock:head"; "rangelock:node" ]
  | Global -> [ "rangelock:global" ]

type t = List_backend of List_lock.t | Global_backend of Lock.t
type handle = H_list of List_lock.handle | H_global

let create_external machine core = function
  | Radix_embedded -> None
  | List_based -> Some (List_backend (List_lock.create machine core))
  | Global -> Some (Global_backend (Lock.create ~label:"rangelock:global" core))

let acquire core t ~lo ~hi =
  match t with
  | List_backend l -> H_list (List_lock.acquire core l ~lo ~hi)
  | Global_backend g ->
      Lock.acquire core g;
      H_global

let release core t h =
  match (t, h) with
  | List_backend l, H_list n -> List_lock.release core l n
  | Global_backend g, H_global -> Lock.release core g
  | List_backend _, H_global | Global_backend _, H_list _ ->
      invalid_arg "Range_lock.release: handle from a different backend"
