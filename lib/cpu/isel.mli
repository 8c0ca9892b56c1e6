(** Instruction selection: cir functions → Lir (the paper's "translated
    to LLVM IR" step, §IV-B).  The translation is deliberately naive —
    this is the -O0 code; {!Optimizer} cleans it up at higher levels.
    Selection is one walk over the cir ops, linear in their number; it
    does no scheduling, so its share of compile time is smaller than the
    27% the paper measures for LLVM's SelectionDAG (§V-B.1). *)

open Spnc_mlir

exception Unsupported of string

(** [run m ~entry] selects instructions for every [func.func] of a cir
    module; [entry] names the kernel entry function.
    @raise Unsupported on ops outside the cir subset. *)
val run : Ir.modul -> entry:string -> Lir.modul
