(** Linear-scan register allocation.

    The paper reports that for large RAT-SPN tasks ~25% of CPU compile
    time is spent in LLVM's (greedy) register allocator; this pass is the
    corresponding stage here.  Live intervals are computed over the
    linearized instruction order (values live across a loop extend to the
    loop end) in dense per-class arrays indexed by register number.  The
    scan keeps at most [phys_regs] active end points in a sorted array,
    so it is linear in the number of intervals; its share of compile time
    is far below the paper's 25%.

    The allocation is recorded as statistics (registers used, spill
    count): the VM executes virtual-register code, but the spill traffic
    feeds the execution cost model, and the allocation time is part of the
    measured compile time (DESIGN.md §1). *)

open Lir

type stats = {
  intervals : int;
  spills_f : int;
  spills_i : int;
  spills_v : int;
  max_pressure_f : int;
  max_pressure_v : int;
}

(** Physical register budget, x86-64-flavoured: 16 GP + 16 SIMD. *)
let phys_regs = 16

(* Linearize the function body, assigning each instruction a position;
   returns, per slot ({!Optimizer.slot}), the intervals [(starts, stops)]
   in order of increasing start.  A register used inside a loop body but
   defined before the loop has its last use extended to the loop's end
   position, since it is needed on every iteration. *)
let live_intervals (f : func) =
  let bounds = Optimizer.reg_bounds f in
  (* position of each register's first definition; 0 = not yet defined,
     -1 = forms no interval: buffers are not allocated, and constants
     are rematerializable (the allocator re-emits them at their uses
     instead of keeping them live) *)
  let first_def =
    Array.mapi
      (fun s b -> Array.make b (if s = Optimizer.slot Optimizer.B then -1 else 0))
      bounds
  in
  let last_use = Array.map (fun b -> Array.make b 0) bounds in
  let rec mark_remat (body : instr array) =
    Array.iter
      (fun i ->
        match i with
        | ConstF (d, _) -> first_def.(Optimizer.slot Optimizer.F).(d) <- -1
        | ConstI (d, _) -> first_def.(Optimizer.slot Optimizer.I).(d) <- -1
        | VConst (d, _) -> first_def.(Optimizer.slot Optimizer.V).(d) <- -1
        | Loop l -> mark_remat l.body
        | _ -> ())
      body
  in
  mark_remat f.body;
  (* registers of each slot, most recently defined first *)
  let order = Array.make (Array.length bounds) [] in
  let pos = ref 0 in
  let rec scan (body : instr array) ~loop_ends =
    Array.iter
      (fun ins ->
        incr pos;
        let p = !pos in
        List.iter
          (fun (c, r) ->
            let s = Optimizer.slot c in
            let dpos = first_def.(s).(r) in
            if dpos >= 0 then begin
              (* if defined outside the current loops, extend to the
                 outermost loop end after the definition *)
              let endpoint =
                if dpos = 0 then p
                else
                  List.fold_left
                    (fun acc (lstart, lend) ->
                      if dpos < lstart then max acc lend else acc)
                    p loop_ends
              in
              if endpoint > last_use.(s).(r) then last_use.(s).(r) <- endpoint
            end)
          (Optimizer.uses ins);
        List.iter
          (fun (c, r) ->
            let s = Optimizer.slot c in
            if first_def.(s).(r) = 0 then begin
              first_def.(s).(r) <- p;
              order.(s) <- r :: order.(s)
            end)
          (Optimizer.defs ins);
        match ins with
        | Loop l ->
            let lend = p + Lir.count_instrs l.body + 1 in
            scan l.body ~loop_ends:((p, lend) :: loop_ends)
        | _ -> ())
      body
  in
  scan f.body ~loop_ends:[];
  Array.mapi
    (fun s regs ->
      let regs = Array.of_list (List.rev regs) in
      ( Array.map (fun r -> first_def.(s).(r)) regs,
        Array.map (fun r -> max first_def.(s).(r) last_use.(s).(r)) regs ))
    order

(* Classic linear scan over one class's intervals (sorted by start, and
   within a class each position defines one register, so starts are
   distinct); returns (spills, max_pressure).  The active set holds at
   most [k] end points, kept sorted ascending in a fixed array. *)
let linear_scan ((starts, stops) : int array * int array) ~k =
  let active = Array.make k 0 and n = ref 0 in
  let insert e =
    let j = ref !n in
    while !j > 0 && active.(!j - 1) > e do
      active.(!j) <- active.(!j - 1);
      decr j
    done;
    active.(!j) <- e;
    incr n
  in
  let spills = ref 0 and max_pressure = ref 0 in
  Array.iteri
    (fun idx start ->
      let stop = stops.(idx) in
      (* expire: the ended intervals are a prefix *)
      let x = ref 0 in
      while !x < !n && active.(!x) <= start do incr x done;
      if !x > 0 then begin
        Array.blit active !x active 0 (!n - !x);
        n := !n - !x
      end;
      if !n >= k then begin
        incr spills;
        (* spill the interval with the furthest end (Poletto-Sarkar):
           an active one, whose place the new interval takes, or else
           the new interval itself *)
        if active.(!n - 1) > stop then begin
          decr n;
          insert stop
        end
      end
      else insert stop;
      if !n > !max_pressure then max_pressure := !n)
    starts;
  (!spills, !max_pressure)

(** [allocate f] runs linear scan on all three register classes. *)
let allocate (f : func) : stats =
  let iv = live_intervals f in
  let scan c = linear_scan iv.(Optimizer.slot c) ~k:phys_regs in
  let spills_f, mp_f = scan Optimizer.F in
  let spills_i, _ = scan Optimizer.I in
  let spills_v, mp_v = scan Optimizer.V in
  {
    intervals = Array.fold_left (fun acc (starts, _) -> acc + Array.length starts) 0 iv;
    spills_f;
    spills_i;
    spills_v;
    max_pressure_f = mp_f;
    max_pressure_v = mp_v;
  }

let total_spills s = s.spills_f + s.spills_i + s.spills_v

(** [allocate_module m] — per-function stats, in function order. *)
let allocate_module (m : Lir.modul) : stats array = Array.map allocate m.Lir.funcs
