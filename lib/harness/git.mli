val commit : unit -> string
(** The commit the working directory's [.git/HEAD] names, for
    BENCH_meta.json. Read straight from [.git], so no subprocess is
    needed; ["unknown"] outside a work tree (e.g. a dune sandbox). *)
