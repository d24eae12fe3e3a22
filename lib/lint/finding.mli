(** A single static-analysis finding: one rule firing at one source
    location, in a machine-readable [file:line: [rule-id] site: message]
    format. *)

type rule =
  | Ds_toplevel_mutable
      (** Module-level mutable state that is not [Atomic.t] — the shared
          state a parallel sweep can race on. *)
  | Det_entropy
      (** A source of run-to-run nondeterminism: wall clocks or
          self-seeded RNGs. *)
  | Det_wallclock
      (** A host wall-clock read ([Unix.gettimeofday]/[Unix.time]) inside
          a simulator-core ([lib/]) module. Fires in addition to
          [Det_entropy], under its own id, so a [det-entropy] allowlist
          pin on a driver can never quietly cover a clock leaking into
          the deterministic core — wall budgets belong to [bin/]. *)
  | Det_getenv
      (** Ambient environment-variable reads — configuration that does
          not appear in any transcript or seed, so two runs of "the same"
          command can diverge. Thread flags explicitly instead. *)
  | Det_hashtbl_order
      (** Stdlib [Hashtbl] iteration in a module whose output reaches an
          artifact or transcript. *)
  | Det_float_format
      (** Float formatting outside [Harness.Json]'s deterministic
          emitter. *)
  | Hot_hashtbl  (** Stdlib [Hashtbl] in a module tagged hot. *)
  | Hot_polycompare
      (** Polymorphic [compare]/[=]/[hash] instantiated at a
          non-immediate type in a module tagged hot. *)
  | Hot_marshal  (** [Marshal] in a module tagged hot. *)
  | Allow_stale  (** An allowlist entry that matches no finding. *)
  | Allow_malformed  (** An allowlist line that does not parse. *)

val rule_id : rule -> string
(** Stable kebab-case id used in output and in [lint.allow]. *)

val rule_of_id : string -> rule option

val suppressible : rule -> bool
(** Whether an allowlist entry may name this rule. *)

type t = {
  rule : rule;
  file : string;  (** workspace-relative source path *)
  line : int;
  site : string;  (** [Module.binding] path of the enclosing definition *)
  message : string;
}

val v : rule:rule -> file:string -> line:int -> site:string -> string -> t
val to_string : t -> string

val compare : t -> t -> int
(** Deterministic order: file, line, rule id, site, message. *)
