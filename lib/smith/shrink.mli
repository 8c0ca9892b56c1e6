(** IR-level reductions for failing generated programs: op removal
    (forward / narrow) with DCE and re-verify, plugged into the shared
    [Spnc_resilience.Fuzz.shrink] loop (docs/FUZZING.md). *)

open Spnc_mlir

(** Total op count of a module (shrink progress metric). *)
val count_ops : Ir.modul -> int

(** All one-step op-level reductions of a HiSPN module, DCE'd but not
    yet verified. *)
val op_candidates : Ir.modul -> Ir.modul list

(** HiSPN programs as a fuzz subject: verifying, strictly smaller
    {!op_candidates}, a 400-step shrink budget, printed as MLIR. *)
val subject : Ir.modul Spnc_resilience.Fuzz.subject
