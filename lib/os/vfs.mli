(** A minimal in-memory file system: named files with fixed sizes whose
    page contents come from {!Vm.Page_cache.file_content}. Exists so the
    syscall layer can validate file-backed mmaps (bad fd, range beyond
    EOF) and share file pages between processes through the page cache. *)

type t
type fd = int

val create : unit -> t

val create_file : t -> name:string -> pages:int -> fd
(** Create (or truncate) a file of [pages] pages; returns its fd. *)

val open_file : t -> string -> fd option
val size_pages : t -> fd -> int option
(** [None] for an unknown fd. *)

val resize_file : t -> fd -> pages:int -> int option
(** Grow or truncate a file, returning the previous size ([None] for an
    unknown fd; [pages] may be 0). Fires the resize hook when the size
    actually changed, so the owner of the page cache can drop pages
    beyond the new EOF — the cache-serving workload's bulk-eviction
    path. The VFS itself holds no cache references; it only reports. *)

val set_resize_hook : t -> (fd -> old_pages:int -> new_pages:int -> unit) -> unit
(** Install the single resize observer (later calls replace it). Called
    with the file and both sizes after the size table is updated. *)
