(** The typed-AST analysis over dune's [.cmt] output.

    A [config] decides, per cmt path, which rule families apply
    ({!scope}) and which directories the cmt walk skips; {!repo_config}
    encodes this repository's policy (hot = ccsim/check/refcache/core/
    locks, artifact-reaching = harness/fuzz/bench/bin, float emitter =
    [Harness.Json], fixtures skipped). *)

type scope = {
  hot : bool;  (** hot-path hygiene: no stdlib Hashtbl, no polymorphic
                   compare at non-immediate types, no Marshal *)
  artifact : bool;
      (** output can reach an artifact or transcript: no Hashtbl
          iteration order, no float formatting *)
  float_emitter : bool;
      (** the deterministic float emitter itself (exempt from
          [det-float-format]) *)
  toplevel_state : bool;  (** [ds-toplevel-mutable] applies *)
  sim_core : bool;
      (** a simulator-core ([lib/]) module: host wall-clock reads
          additionally fire [det-wallclock] on top of [det-entropy] *)
}

type config = {
  classify : string -> scope;  (** from a cmt path *)
  skip_dir : string -> bool;  (** directory basenames to skip *)
}

val repo_config : config

val find_cmts : config -> string list -> string list
(** All [.cmt] files under the given roots, sorted; nonexistent roots are
    ignored. *)

val run : config -> allow:Allowlist.t -> roots:string list -> Finding.t list
(** Scan every cmt under [roots], apply the allowlist (suppressions plus
    stale-entry errors), and return findings in {!Finding.compare}
    order. *)
