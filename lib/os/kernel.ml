open Ccsim
module R = Vm.Radixvm.Default

type errno = EINVAL | ENOENT | ESRCH | ECHILD | ENOMEM | EFAULT

type 'a result = ('a, errno) Stdlib.result

let errno_to_string = function
  | EINVAL -> "EINVAL"
  | ENOENT -> "ENOENT"
  | ESRCH -> "ESRCH"
  | ECHILD -> "ECHILD"
  | ENOMEM -> "ENOMEM"
  | EFAULT -> "EFAULT"

(* Map the VM layer's typed failures to errnos: frame exhaustion is
   ENOMEM; an operation abandoned at a fault-injection point was rolled
   back by the VM layer and reports EFAULT. Every syscall validates its
   arguments before calling into the VM, so EINVAL always means "nothing
   happened" — and thanks to the VM operations' exception safety, so do
   ENOMEM and EFAULT. *)
let errno_of_vm = function
  | Vm.Vm_types.Enomem -> ENOMEM
  | Vm.Vm_types.Aborted _ -> EFAULT

let trap_vm f = Result.map_error errno_of_vm (Vm.Vm_types.trap f)

type state = Running | Zombie of int

type process = {
  pid : int;
  mutable vm : R.t;
  mutable brk : int;  (* heap end in pages; heap is [heap_base, brk) *)
  mutable text_pages : int;
  mutable state : state;
  mutable parent : int;
  mutable children : int list;
}

type t = {
  machine : Machine.t;
  vfs : Vfs.t;
  procs : (int, process) Hashtbl.t;
  mutable next_pid : int;
  init : process;
}

(* Conventional layout, in pages (the space covers 2^36 pages). *)
let text_base = 0x400
let heap_base = 0x100_000
let stack_pages = 64
let stack_base = (1 lsl 30) - stack_pages

(* Kernel entry: mode switch, register save, dispatch. *)
let syscall_entry (core : Core.t) =
  Core.tick core (3 * core.Core.params.Params.op_cost)

let boot machine =
  let core0 = Machine.core machine 0 in
  let init_vm = R.create machine in
  (* init gets a stack but no text: it exists to be forked from *)
  R.mmap init_vm core0 ~vpn:stack_base ~npages:stack_pages ();
  let init =
    {
      pid = 1;
      vm = init_vm;
      brk = heap_base;
      text_pages = 0;
      state = Running;
      parent = 1;
      children = [];
    }
  in
  let t =
    { machine; vfs = Vfs.create (); procs = Hashtbl.create 16; next_pid = 2; init }
  in
  Hashtbl.replace t.procs 1 init;
  t

let vfs t = t.vfs
let init_process t = t.init
let pid p = p.pid
let parent_pid p = p.parent
let alive p = p.state = Running
let process_count t = Hashtbl.length t.procs
let vm p = p.vm
let brk p = p.brk

let check_running p = if p.state <> Running then Error ESRCH else Ok ()

let sys_fork t core p =
  syscall_entry core;
  match check_running p with
  | Error _ as e -> e
  | Ok () -> (
    match trap_vm (fun () -> R.fork p.vm core) with
    | Error _ as e -> e
    | Ok child_vm ->
      let child =
        {
          pid = t.next_pid;
          vm = child_vm;
          brk = p.brk;
          text_pages = p.text_pages;
          state = Running;
          parent = p.pid;
          children = [];
        }
      in
      t.next_pid <- t.next_pid + 1;
      Hashtbl.replace t.procs child.pid child;
      p.children <- child.pid :: p.children;
      Ok child)

let sys_exec t core p ~path =
  syscall_entry core;
  match check_running p with
  | Error _ as e -> e
  | Ok () -> (
      match Vfs.open_file t.vfs path with
      | None -> Error ENOENT
      | Some fd ->
          let text_pages =
            match Vfs.size_pages t.vfs fd with Some n -> n | None -> 0
          in
          (* Tear down the old image; keep the kernel-shared state (page
             cache, counters) by building the replacement from it. Once
             teardown starts there is no image to return to, so — like
             exit — the rebuild runs with fault injection suppressed
             rather than leave a half-built process. (No frames are
             allocated here; mmap is lazy.) *)
          Fault.with_suppressed core.Core.fault (fun () ->
              let fresh = R.create_with ~share_state:p.vm t.machine in
              R.destroy p.vm core;
              p.vm <- fresh;
              R.mmap p.vm core ~vpn:text_base ~npages:text_pages
                ~prot:Vm.Vm_types.Read_only ~backing:(Vm.Vm_types.File fd) ();
              R.mmap p.vm core ~vpn:stack_base ~npages:stack_pages ();
              p.brk <- heap_base;
              p.text_pages <- text_pages;
              Ok ()))

let sys_exit t core p ~code =
  syscall_entry core;
  if p.state = Running then begin
    R.destroy p.vm core;
    p.state <- Zombie code;
    (* Orphans go to init. *)
    List.iter
      (fun cpid ->
        match Hashtbl.find_opt t.procs cpid with
        | Some c ->
            c.parent <- 1;
            t.init.children <- cpid :: t.init.children
        | None -> ())
      p.children;
    p.children <- []
  end

let sys_wait t p =
  let rec find = function
    | [] -> None
    | cpid :: rest -> (
        match Hashtbl.find_opt t.procs cpid with
        | Some { state = Zombie code; _ } -> Some (cpid, code, rest)
        | Some _ | None -> (
            match find rest with
            | Some (z, c, remaining) -> Some (z, c, cpid :: remaining)
            | None -> None))
  in
  if p.children = [] then Error ECHILD
  else
    match find p.children with
    | Some (zpid, code, remaining) ->
        p.children <- remaining;
        Hashtbl.remove t.procs zpid;
        Ok (zpid, code)
    | None -> Error ECHILD

let sys_sbrk _t core p ~pages =
  syscall_entry core;
  match check_running p with
  | Error e -> Error e
  | Ok () ->
      let old = p.brk in
      let next = old + pages in
      if next < heap_base || next > stack_base then Error EINVAL
      else begin
        match
          trap_vm (fun () ->
              if pages > 0 then R.mmap p.vm core ~vpn:old ~npages:pages ()
              else if pages < 0 then
                R.munmap p.vm core ~vpn:next ~npages:(-pages))
        with
        | Ok () ->
            p.brk <- next;
            Ok old
        | Error _ as e -> e
      end

let check_range p ~vpn ~npages =
  if npages <= 0 || vpn < 0 || vpn + npages > R.address_space_pages p.vm then
    Error EINVAL
  else Ok ()

(* Eagerly fault every page of a fresh MAP_POPULATE mapping. Errors roll
   up as errnos; the caller unmaps on failure. *)
let eager_populate core p ~vpn ~npages ~prot =
  let rec go q =
    if q >= vpn + npages then Ok ()
    else
      let r () =
        if prot = Vm.Vm_types.Read_only then R.read p.vm core ~vpn:q
        else R.touch p.vm core ~vpn:q
      in
      match trap_vm r with
      | Ok Vm.Vm_types.Ok -> go (q + 1)
      | Ok Vm.Vm_types.Oom | Error ENOMEM -> Error ENOMEM
      | Ok Vm.Vm_types.Segfault ->
          (* only possible if another core unmapped concurrently *)
          Error EFAULT
      | Error _ -> Error EFAULT
  in
  go vpn

let sys_mmap t core p ~vpn ~npages ?(prot = Vm.Vm_types.Read_write)
    ?(populate = false) ?file () =
  syscall_entry core;
  match (check_running p, check_range p ~vpn ~npages) with
  | (Error _ as e), _ | _, (Error _ as e) -> e
  | Ok (), Ok () -> (
      let backing =
        match file with
        | None -> Ok Vm.Vm_types.Anon
        | Some fd -> (
            match Vfs.size_pages t.vfs fd with
            | None -> Error EINVAL
            | Some size when npages > size -> Error EINVAL
            | Some _ -> Ok (Vm.Vm_types.File fd))
      in
      match backing with
      | Error _ as e -> e
      | Ok backing -> (
          match
            trap_vm (fun () -> R.mmap p.vm core ~vpn ~npages ~prot ~backing ())
          with
          | Error _ as e -> e
          | Ok () ->
              if not populate then Ok ()
              else (
                match eager_populate core p ~vpn ~npages ~prot with
                | Ok () -> Ok ()
                | Error _ as e ->
                    (* Roll the mapping back so the failed syscall is a
                       no-op; the rollback itself must not fail. *)
                    Fault.with_suppressed core.Core.fault (fun () ->
                        R.munmap p.vm core ~vpn ~npages);
                    e)))

let sys_munmap _t core p ~vpn ~npages =
  syscall_entry core;
  match (check_running p, check_range p ~vpn ~npages) with
  | (Error _ as e), _ | _, (Error _ as e) -> e
  | Ok (), Ok () -> trap_vm (fun () -> R.munmap p.vm core ~vpn ~npages)

let sys_mprotect _t core p ~vpn ~npages prot =
  syscall_entry core;
  match (check_running p, check_range p ~vpn ~npages) with
  | (Error _ as e), _ | _, (Error _ as e) -> e
  | Ok (), Ok () -> trap_vm (fun () -> R.mprotect p.vm core ~vpn ~npages prot)

(* User accesses degrade rather than raise: frame exhaustion surfaces as
   [Oom] (load: [None]), and an access that keeps hitting an injected
   abort point retries a bounded number of times — each attempt was rolled
   back, so retrying is sound — before giving up as a resource failure. *)
let access_retries = 64

let retry_access f =
  let rec go tries =
    match Vm.Vm_types.trap f with
    | Error (Vm.Vm_types.Aborted _) when tries < access_retries ->
        go (tries + 1)
    | r -> r
  in
  go 0

let store _t core p ~vpn value =
  if p.state <> Running then Vm.Vm_types.Segfault
  else
    match retry_access (fun () -> R.store p.vm core ~vpn value) with
    | Ok r -> r
    | Error _ -> Vm.Vm_types.Oom

let load_result _t core p ~vpn =
  if p.state <> Running then Ok None
  else
    Result.map_error errno_of_vm
      (retry_access (fun () -> R.load p.vm core ~vpn))

let load t core p ~vpn = Result.value (load_result t core p ~vpn) ~default:None
