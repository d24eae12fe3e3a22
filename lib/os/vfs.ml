type fd = int

type t = {
  by_name : (string, fd) Hashtbl.t;
  sizes : (fd, int) Hashtbl.t;
  mutable next_fd : int;
  mutable resize_hook : (fd -> old_pages:int -> new_pages:int -> unit) option;
}

let create () =
  {
    by_name = Hashtbl.create 16;
    sizes = Hashtbl.create 16;
    next_fd = 3;
    resize_hook = None;
  }

let create_file t ~name ~pages =
  if pages <= 0 then invalid_arg "Vfs.create_file";
  match Hashtbl.find_opt t.by_name name with
  | Some fd ->
      Hashtbl.replace t.sizes fd pages;
      fd
  | None ->
      let fd = t.next_fd in
      t.next_fd <- fd + 1;
      Hashtbl.replace t.by_name name fd;
      Hashtbl.replace t.sizes fd pages;
      fd

let open_file t name = Hashtbl.find_opt t.by_name name
let size_pages t fd = Hashtbl.find_opt t.sizes fd

let set_resize_hook t hook = t.resize_hook <- Some hook

let resize_file t fd ~pages =
  if pages < 0 then invalid_arg "Vfs.resize_file";
  match Hashtbl.find_opt t.sizes fd with
  | None -> None
  | Some old_pages ->
      Hashtbl.replace t.sizes fd pages;
      (match t.resize_hook with
      | Some hook when pages <> old_pages ->
          hook fd ~old_pages ~new_pages:pages
      | _ -> ());
      Some old_pages
