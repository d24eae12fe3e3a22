val commit : unit -> string
(** The commit the working directory's [.git/HEAD] names, for
    BENCH_meta.json. Read straight from [.git] (the loose ref file, else
    its line in [.git/packed-refs]), so no subprocess is needed;
    ["unknown"] outside a work tree (e.g. a dune sandbox) or when the
    ref is in neither place. *)
