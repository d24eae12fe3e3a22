(** Shared vocabulary for every VM system in the repository. *)

type prot = Read_only | Read_write

type backing =
  | Anon  (** demand-zero anonymous memory *)
  | File of int  (** file-backed mapping; the int names the file *)

(** Result of a user-level page access. *)
type access_result =
  | Ok  (** translation present or fault handled *)
  | Segfault  (** access to an unmapped page *)
  | Oom  (** the fault handler could not allocate a frame *)

(** Typed failure of a VM operation under fault injection or memory
    pressure ({!trap}). Operations that fail this way are no-ops: locks
    released, partial mutations rolled back, reference counts
    rebalanced. *)
type vm_error =
  | Enomem  (** physical frame budget exhausted *)
  | Aborted of { op : string; point : string }
      (** the operation hit a fault-injection abort point *)

(** [trap (fun () -> op ...)] runs one VM operation with its two
    {e expected} failure modes caught and returned as values: frame
    exhaustion ({!Ccsim.Physmem.Out_of_frames}) becomes [Error Enomem]
    and an injected abort ({!Ccsim.Fault.Injected_abort}) becomes
    [Error (Aborted _)]. Every operation is exception-safe: an [Error]
    means the operation was a no-op (range locks released, partial
    mutations rolled back, reference counts rebalanced), so the caller
    may retry, degrade, or report. Anything else — an injected crash,
    which must reach the session driver, or a genuine bug — still
    propagates. The trap types the failures of any {!Vm_intf.S}
    system. *)
let trap f =
  match f () with
  | v -> Stdlib.Ok v
  | exception Ccsim.Physmem.Out_of_frames -> Stdlib.Error Enomem
  | exception Ccsim.Fault.Injected_abort { op; point } ->
      Stdlib.Error (Aborted { op; point })

exception Invariant_violation of { subsystem : string; detail : string }
(** A VM invariant check failed. Structured (rather than [Failure]) so
    harnesses — the fuzzer in particular — can catch it, print the
    offending seed, and continue. *)

let pp_access_result ppf = function
  | Ok -> Format.pp_print_string ppf "ok"
  | Segfault -> Format.pp_print_string ppf "segfault"
  | Oom -> Format.pp_print_string ppf "oom"

let pp_vm_error ppf = function
  | Enomem -> Format.pp_print_string ppf "ENOMEM"
  | Aborted { op; point } -> Format.fprintf ppf "aborted(%s@%s)" op point

let pp_prot ppf = function
  | Read_only -> Format.pp_print_string ppf "r--"
  | Read_write -> Format.pp_print_string ppf "rw-"

let pp_backing ppf = function
  | Anon -> Format.pp_print_string ppf "anon"
  | File fd -> Format.fprintf ppf "file:%d" fd

let page_size = 4096
(** Bytes per page, for memory-overhead accounting. *)

let ptes_per_page = 512
(** Page-table entries per page-table page (x86-64). *)
