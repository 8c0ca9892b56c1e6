(** Differential fuzzing (MLIR-Smith style): seeded random SPN
    generation with Gaussian/categorical/histogram leaves and oracle
    cross-checking against the reference evaluator, on top of the
    differential core every [spnc_fuzz] mode shares — outcome barrier,
    comparator, shrink loop and reproducer bundle.

    Oracles are plain functions — the harness does not depend on the
    compiler it tests; [bin/spnc_fuzz] and the test suite wire them up. *)

module Model = Spnc_spn.Model

(** Per-variable evidence typing, fixed before generation so every leaf
    over a variable agrees on its domain. *)
type var_kind =
  | Continuous
  | Discrete_cat of int  (** categorical arity *)
  | Discrete_hist of int  (** histogram bucket count *)

type config = {
  min_features : int;
  max_features : int;
  max_depth : int;
  target_ops : int;  (** soft node budget *)
  rows : int;  (** evidence rows per case *)
  marginal_fraction : float;  (** NaN evidence fraction *)
}

val default_config : config

type case = {
  id : int;
  seed : int;
  config : config;
  var_kinds : var_kind array;
  model : Model.t;
  data : float array array;
}

(** [gen_case ?config ~seed ~id ()] — deterministic case derived entirely
    from [(seed, id)]. *)
val gen_case : ?config:config -> seed:int -> id:int -> unit -> case

(** {1 Differential core}

    Everything below is independent of what is being fuzzed: the model
    generator above, the IR-level smith generator, scheduler stress and
    chaos all feed subjects and outcomes into the same comparator,
    shrink loop and reproducer bundle. *)

(** One run's result: per-row outputs, or the rendered exception. *)
type outcome = (float array, string) result

(** [protect f] is the exception barrier: [Ok (f ())], or [Error e] for
    any exception but [Stack_overflow] / [Out_of_memory], which
    re-raise. *)
val protect : (unit -> 'a) -> ('a, exn) result

(** [capture f] — {!protect} with the exception rendered. *)
val capture : (unit -> float array) -> outcome

type tier =
  | Exact  (** bit-identical ([Int64.bits_of_float]) *)
  | Tol of float
      (** NaN matches NaN, an infinity the same infinity, finite values
          within [tol * max 1 |reference|] *)

(** [compare tier ~reference got] — [None] when the outcomes agree, else
    a message naming the first differing row and both values.  Trap
    classes are built in: two errors agree, an error against a result is
    a finding in either direction. *)
val compare : tier -> reference:outcome -> outcome -> string option

(** [shrink ?max_steps ~candidates ~still_fails subject rows] — greedy
    reduction: adopt the first candidate of [candidates subject] on
    which [still_fails] holds, else the first row reduction (halves,
    then single rows), until neither applies or [max_steps] (default
    64) predicate evaluations are spent.  A raising predicate counts as
    not failing. *)
val shrink :
  ?max_steps:int ->
  candidates:('a -> 'a list) ->
  still_fails:('a -> float array array -> bool) ->
  'a ->
  float array array ->
  'a * float array array

(** How a fuzz subject (a model, an IR program) is measured, reduced and
    written to a bundle. *)
type 'a subject = {
  name : string;
      (** bundle file stem: [<name>.<ext>], [<name>-original.<ext>] *)
  ext : string;
  size_unit : string;  (** what {!size} counts, for the [shrunk:] line *)
  size : 'a -> int;
  print : 'a -> string;
  candidates : 'a -> 'a list;
      (** valid one-step reductions, each strictly smaller *)
  max_steps : int;  (** shrink budget *)
}

(** SPN models: inner nodes replaced by their children, biggest
    reductions first, validity-preserving. *)
val model_subject : Model.t subject

(** [report ?dir ?still_fails subject ~tag ~seed ~id ~repro ~pipeline
    ~diag s rows] — the one failure path of every fuzz mode.  Prints
    [<tag> case <id> (seed <seed>): <diag>] and [repro: <repro>] to
    stderr; with [still_fails], shrinks [(s, rows)] and prints a
    [shrunk:] line; then writes a {!Reproducer} bundle holding the
    shrunk subject, the original, [data.csv] (hex floats),
    [repro-command.txt], [pipeline] (the configuration under test) and
    the diagnostic. *)
val report :
  ?dir:string ->
  ?still_fails:('a -> float array array -> bool) ->
  'a subject ->
  tag:string ->
  seed:int ->
  id:int ->
  repro:string ->
  pipeline:string ->
  diag:string ->
  'a ->
  float array array ->
  unit

(** {1 Model-level oracles} *)

type oracle = {
  oracle_name : string;
  eval : Model.t -> float array array -> float array;
      (** log-likelihood per row; exceptions are captured as errors *)
}

(** The correctness reference: [Spnc_spn.Infer.log_likelihood_batch]. *)
val reference : Model.t -> float array array -> float array

val default_tol : float

(** [check ?tol ~oracles model data] — the first oracle, in order, that
    {!compare}s unequal to the reference at [Tol tol], as
    ["oracle <name>: <finding>"]; [None] if all agree. *)
val check :
  ?tol:float ->
  oracles:oracle list ->
  Model.t ->
  float array array ->
  string option
