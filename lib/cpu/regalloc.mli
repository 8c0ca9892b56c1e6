(** Linear-scan register allocation — the counterpart of the LLVM stage
    the paper attributes ~25% of CPU compile time to (§V-B.1); this one
    is linear in the number of live intervals and takes far less.

    Live intervals are computed over the linearized instruction order
    (values live across a loop extend to the loop end); constants are
    treated as rematerializable and form no intervals.  The allocation is
    recorded as statistics: the VM executes virtual-register code, but
    spill traffic feeds the execution cost model, and allocation time is
    part of the measured compile time (DESIGN.md §1). *)

type stats = {
  intervals : int;
  spills_f : int;
  spills_i : int;
  spills_v : int;
  max_pressure_f : int;
  max_pressure_v : int;
}

(** Physical register budget per class (x86-64-flavoured). *)
val phys_regs : int

(** [allocate f] runs linear scan on all register classes of [f]. *)
val allocate : Lir.func -> stats

val total_spills : stats -> int

(** [allocate_module m] — per-function stats, in function order. *)
val allocate_module : Lir.modul -> stats array
