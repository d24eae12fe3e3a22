(** The POSIX-flavoured syscall interface over RadixVM — the "syscall
    interface" component of the paper's Table 1, for a kernel in the sv6
    mold: processes with forked address spaces, a conventional layout
    (read-only text mapped from a file, a heap grown with sbrk, a stack),
    and the VM syscalls the paper's benchmarks exercise.

    Processes are passive objects driven by whichever simulated core makes
    the syscall (sv6 threads run on cores; the address space is the shared
    object). Every syscall charges a kernel-entry cost and validates its
    arguments before touching the VM. *)

type t
(** The kernel: process table, VFS, and the shared VM state (Refcache,
    frame counters, page cache). *)

type process

type errno = EINVAL | ENOENT | ESRCH | ECHILD | ENOMEM | EFAULT
(** [ENOMEM]: the machine's physical frame budget (fault injection /
    memory pressure) is exhausted. [EFAULT]: the VM operation was
    abandoned at a fault-injection point. Both are returned only after the
    VM layer rolled the operation back, so — like [EINVAL] — they mean the
    syscall was a no-op. *)

type 'a result = ('a, errno) Stdlib.result

val errno_to_string : errno -> string
(** Total over every [errno]. *)

(** {2 Boot and inspection} *)

val boot : Ccsim.Machine.t -> t
(** Create the kernel and the [init] process (pid 1, empty address
    space). *)

val vfs : t -> Vfs.t
val init_process : t -> process
val pid : process -> int
val parent_pid : process -> int
val alive : process -> bool
val process_count : t -> int
(** Live (non-reaped) processes, including zombies. *)

val vm : process -> Vm.Radixvm.Default.t
(** The process's address space (for white-box tests). *)

val brk : process -> int
(** Current heap end, in pages. *)

(** {2 Address-space layout} *)

val text_base : int
val heap_base : int
val stack_base : int

(** {2 Syscalls} *)

val sys_fork : t -> Ccsim.Core.t -> process -> process result
(** Duplicate the calling process: COW address space, heap break copied. *)

val sys_exec : t -> Ccsim.Core.t -> process -> path:string -> unit result
(** Replace the address space: the named file's pages become the read-only
    text mapping, a fresh heap and stack are set up. [ENOENT] if the file
    does not exist. *)

val sys_exit : t -> Ccsim.Core.t -> process -> code:int -> unit
(** Release the address space (frames reclaimed through Refcache) and turn
    the process into a zombie holding its exit code. Orphans are reparented
    to init. *)

val sys_wait : t -> process -> (int * int) result
(** Reap one zombie child: [(pid, exit code)]. [ECHILD] if the process has
    no zombie children. *)

val sys_sbrk : t -> Ccsim.Core.t -> process -> pages:int -> int result
(** Grow (or shrink, with negative [pages]) the heap; returns the previous
    break. Growth maps fresh anonymous pages; shrinking unmaps (and the
    frames are reclaimed). [EINVAL] if the new break would cross the heap
    base or the stack. *)

val sys_mmap :
  t -> Ccsim.Core.t -> process -> vpn:int -> npages:int ->
  ?prot:Vm.Vm_types.prot -> ?populate:bool -> ?file:Vfs.fd -> unit ->
  unit result
(** Validated mmap: the range must be inside the address space and a file
    mapping must be within the file's size ([EINVAL] otherwise).

    [populate] (default false; MAP_POPULATE) eagerly faults every page of
    the fresh mapping, so frame exhaustion surfaces immediately as
    [ENOMEM] — with the mapping rolled back — instead of lazily at first
    touch. *)

val sys_munmap :
  t -> Ccsim.Core.t -> process -> vpn:int -> npages:int -> unit result

val sys_mprotect :
  t -> Ccsim.Core.t -> process -> vpn:int -> npages:int ->
  Vm.Vm_types.prot -> unit result

(** {2 User memory access (what user code does between syscalls)} *)

val store : t -> Ccsim.Core.t -> process -> vpn:int -> int ->
  Vm.Vm_types.access_result
(** [Oom] under frame exhaustion (and, degenerately, when an injected
    abort keeps firing past the bounded retry budget); never raises. *)

val load : t -> Ccsim.Core.t -> process -> vpn:int -> int option
(** [None] for a fatal fault {e or} frame exhaustion ({!load_result}
    tells them apart); never raises. *)

val load_result : t -> Ccsim.Core.t -> process -> vpn:int -> int option result
(** {!load} with the refusals told apart: [Ok None] is a fatal fault,
    [ENOMEM] frame exhaustion, [EFAULT] an injected abort that outlived
    the retry budget. *)

val access_retries : int
(** How many times a user access retries an injected abort (each attempt
    was rolled back) before giving up. *)
