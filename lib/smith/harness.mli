(** Differential pipeline harness over generated programs: -O0..-O3 ×
    VM/JIT × threads plus randomized legal pass orderings, against the
    bufferized-LoSPN interpreter as semantic reference, with the
    verifier after every pass (docs/FUZZING.md). *)

type failure = {
  check : string;
      (** which invariant broke: [verify], [roundtrip], [pipeline],
          [bit-identity], [reference], [ordering-divergence] *)
  pipeline : string;  (** pipeline / configuration under test *)
  detail : string;
}

(** [[check] pipeline=...: detail] *)
val pp_failure : Format.formatter -> failure -> unit

type config = {
  orderings : int;  (** random legal pipelines checked per program *)
  tol : float;  (** relative tolerance against the interp reference *)
  threads : int;  (** parallel thread count exercised (beside 1) *)
}

val default_config : config

(** The fixed baseline pipeline (HiSPN → bufferized LoSPN). *)
val baseline_pipeline : string

(** [check_program ?config p] — the full differential check; [None] when
    every invariant holds.  Deterministic given the program.  Outputs
    are compared by [Spnc_resilience.Fuzz.compare]. *)
val check_program : ?config:config -> Smith.program -> failure option

(** [check_forced ?config ~pipeline p] — run [p] through one exact
    textual pipeline (legality-checked, verify-each) and require its
    interp result to match the baseline pipeline's within tolerance. *)
val check_forced :
  ?config:config -> pipeline:string -> Smith.program -> failure option

(** [explore ~programs ~orders] — score opt-stage orderings over the
    corpus (opt seconds, surviving ops, exact profiled -O3 cycles,
    bit-identity against the first ordering, which must be the
    default). *)
val explore :
  programs:Smith.program list ->
  orders:string list list ->
  Passorder.score list
