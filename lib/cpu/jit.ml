(** Jit — the closure-compiled execution engine over Lir (threaded code).

    The paper's central claim is that compiling SPNs to native kernels
    beats per-node dispatch (§V); {!Vm} is still a per-instruction
    [match] interpreter.  This module closes that gap within OCaml: a
    [Lir.modul] is compiled {e once} into a tree of closures — one
    closure per instruction, specialized on opcode and vector width, with
    every register index resolved at compile time — so the hot path is
    plain [fun fr -> ...] calls with zero tag matching, no per-lane
    opcode dispatch, and no array bounds checks on register files
    (indices are validated once at compile time).

    Compiled kernels are immutable and shareable across domains; all
    mutable execution state lives in a per-domain {!state} (a pool of
    register frames, one per function), so the multi-threaded runtime
    allocates frames once per worker instead of once per chunk.

    Semantics are differentially checked against {!Vm} (bit-identical
    output) by the test suite and [bin/spnc_fuzz]. *)

open Lir

(** Which CPU execution engine the runtime should use for a compiled
    kernel: the reference interpreter {!Vm} or this closure compiler. *)
type engine = Vm | Jit

let engine_to_string = function Vm -> "vm" | Jit -> "jit"

let engine_of_string = function
  | "vm" -> Some Vm
  | "jit" -> Some Jit
  | _ -> None

let trap fmt = Fmt.kstr (fun s -> raise (Vm.Trap s)) fmt

(** Per-domain execution frame.  [frames] points back at the owning
    state's pool so [CallFn] can fetch the callee's frame without
    threading the state through every closure. *)
type frame = {
  f : float array;
  i : int array;
  v : float array array;
  b : Vm.buffer array;
  frames : frame array;
}

type code = frame -> unit

type cfunc = {
  src : func;
  cparams : int array;  (** parameter buffer registers, by position *)
  code : code;  (** the whole body, fused into one closure tree *)
  init : code;
      (** promoted constants: run once per frame at state creation *)
  (* frame sizes: declared register counts widened to cover every index
     actually referenced, so closure bodies can use unchecked accesses *)
  fr_nf : int;
  fr_ni : int;
  fr_nv : int;
  fr_nb : int;
  fr_width : int;
}

type kernel = { cfuncs : cfunc array; centry : int }

type state = frame array

(* -- Constant promotion ------------------------------------------------------- *)

(* A [ConstF]/[ConstI]/[VConst] whose destination register has exactly
   one definition in the whole function holds the same value from its
   first execution onward.  Such constants are promoted out of the body:
   they run once per frame when the execution state is created
   ([make_state]) instead of being re-materialized on every row-loop
   iteration — at -O1 (the default) nothing hoists loop-invariant code,
   so on real kernels constants are a large share of in-loop work.

   Promotion must not let a read observe the constant's value earlier
   than the interpreted semantics would (fresh registers read as zero
   until first written).  A candidate is rejected when any read of its
   register occurs before the defining instruction in program order, or
   outside the loop nest containing the definition — a zero-trip loop
   would leave the register unwritten for such a read. *)

module RSet = Set.Make (struct
  type t = Optimizer.rc * reg

  let compare = compare
end)

let promoted_regs (fn : func) : RSet.t =
  (* pass 1: definition counts, and which registers a const defines *)
  let ndefs = Hashtbl.create 64 in
  let const_def = Hashtbl.create 64 in
  let rec count body =
    Array.iter
      (fun ins ->
        List.iter
          (fun key ->
            Hashtbl.replace ndefs key
              (1 + Option.value ~default:0 (Hashtbl.find_opt ndefs key)))
          (Optimizer.defs ins);
        (match ins with
        | ConstF (d, _) -> Hashtbl.replace const_def (Optimizer.F, d) ()
        | ConstI (d, _) -> Hashtbl.replace const_def (Optimizer.I, d) ()
        | VConst (d, _) -> Hashtbl.replace const_def (Optimizer.V, d) ()
        | _ -> ());
        match ins with Loop l -> count l.body | _ -> ())
      body
  in
  count fn.body;
  let candidates =
    Hashtbl.fold
      (fun key () acc ->
        if Hashtbl.find_opt ndefs key = Some 1 then RSet.add key acc else acc)
      const_def RSet.empty
  in
  if RSet.is_empty candidates then candidates
  else begin
    (* pass 2: reject candidates whose value could be read before the
       defining instruction has executed.  [def_path] records the loop
       nest (path of loop ids) holding the single definition; a read is
       safe only after the def and within that same nest. *)
    let unsafe = ref RSet.empty in
    let def_path = Hashtbl.create 16 in
    let rec is_prefix p q =
      match (p, q) with
      | [], _ -> true
      | x :: p', y :: q' -> x = y && is_prefix p' q'
      | _ :: _, [] -> false
    in
    let next_loop = ref 0 in
    let rec scan path body =
      Array.iter
        (fun ins ->
          List.iter
            (fun key ->
              if RSet.mem key candidates then
                match Hashtbl.find_opt def_path key with
                | Some p when is_prefix p path -> ()
                | _ -> unsafe := RSet.add key !unsafe)
            (Optimizer.uses ins);
          List.iter
            (fun key ->
              if RSet.mem key candidates && not (Hashtbl.mem def_path key)
              then Hashtbl.replace def_path key path)
            (Optimizer.defs ins);
          match ins with
          | Loop l ->
              incr next_loop;
              scan (path @ [ !next_loop ]) l.body
          | _ -> ())
        body
    in
    scan [] fn.body;
    RSet.diff candidates !unsafe
  end

(* [promoted] as a predicate over instructions: true exactly for the
   single defining const of each promoted register. *)
let promotes (promoted : RSet.t) (ins : instr) : bool =
  match ins with
  | ConstF (d, _) -> RSet.mem (Optimizer.F, d) promoted
  | ConstI (d, _) -> RSet.mem (Optimizer.I, d) promoted
  | VConst (d, _) -> RSet.mem (Optimizer.V, d) promoted
  | _ -> false

(* Collect the promoted const instructions of a body, in program order. *)
let rec collect_promoted (promoted : RSet.t) acc (body : instr array) =
  Array.fold_left
    (fun acc ins ->
      let acc = if promotes promoted ins then ins :: acc else acc in
      match ins with Loop l -> collect_promoted promoted acc l.body | _ -> acc)
    acc body

(* -- Compilation --------------------------------------------------------------- *)

(* Fuse a straight-line sequence of closures into one closure: a balanced
   tree of [fun fr -> a fr; b fr] nodes with 4-wide leaves, so executing
   a body is direct calls only — no per-instruction array indexing and no
   dispatch loop. *)
let fuse (codes : code array) : code =
  let n = Array.length codes in
  fun fr ->
    for k = 0 to n - 1 do
      (Array.unsafe_get codes k) fr
    done

(* Unchecked register-file accessors: indices were bounds-validated at
   compile time against the frame sizes from [Optimizer.reg_bounds]. *)
let[@inline] gf fr r = Array.unsafe_get fr.f r
let[@inline] sf fr r x = Array.unsafe_set fr.f r x
let[@inline] gi fr r = Array.unsafe_get fr.i r
let[@inline] si fr r x = Array.unsafe_set fr.i r x
let[@inline] gv fr r = Array.unsafe_get fr.v r
let[@inline] gb fr r = Array.unsafe_get fr.b r

let rec compile_instr (k : kernel) ~skip ~w ~prof (ins : instr) : code =
  ignore (prof : instr -> Profile.cell option);
  match ins with
  | ConstF (d, x) -> fun fr -> sf fr d x
  | ConstI (d, x) -> fun fr -> si fr d x
  (* scalar float binops, specialized per opcode *)
  | FBin (FAdd, d, a, b) -> fun fr -> sf fr d (gf fr a +. gf fr b)
  | FBin (FSub, d, a, b) -> fun fr -> sf fr d (gf fr a -. gf fr b)
  | FBin (FMul, d, a, b) -> fun fr -> sf fr d (gf fr a *. gf fr b)
  | FBin (FDiv, d, a, b) -> fun fr -> sf fr d (gf fr a /. gf fr b)
  | FBin (FMax, d, a, b) -> fun fr -> sf fr d (Float.max (gf fr a) (gf fr b))
  | FBin (FMin, d, a, b) -> fun fr -> sf fr d (Float.min (gf fr a) (gf fr b))
  | FBin (FMA, _, _, _) ->
      fun _ -> trap "binary FMA (addend dropped by a malformed instruction)"
  | FBin3 (_, d, a, b, c) ->
      fun fr -> sf fr d ((gf fr a *. gf fr b) +. gf fr c)
  | IBin (IAdd, d, a, b) -> fun fr -> si fr d (gi fr a + gi fr b)
  | IBin (IMul, d, a, b) -> fun fr -> si fr d (gi fr a * gi fr b)
  | IBin (IDiv, d, a, b) ->
      fun fr ->
        let y = gi fr b in
        si fr d (if y = 0 then 0 else gi fr a / y)
  | IBin (IAnd, d, a, b) ->
      fun fr -> si fr d (if gi fr a <> 0 && gi fr b <> 0 then 1 else 0)
  | IBin (IOr, d, a, b) ->
      fun fr -> si fr d (if gi fr a <> 0 || gi fr b <> 0 then 1 else 0)
  | FCmp (p, d, a, b) -> compile_fcmp p d a b
  | SelF (d, c, t, e) ->
      fun fr -> sf fr d (if gi fr c <> 0 then gf fr t else gf fr e)
  | SelI (d, c, t, e) ->
      fun fr -> si fr d (if gi fr c <> 0 then gi fr t else gi fr e)
  | FtoI (d, a) -> fun fr -> si fr d (int_of_float (Float.floor (gf fr a)))
  | ItoF (d, a) -> fun fr -> sf fr d (float_of_int (gi fr a))
  | Call1 (MLog, d, a) -> fun fr -> sf fr d (log (gf fr a))
  | Call1 (MExp, d, a) -> fun fr -> sf fr d (exp (gf fr a))
  | Call1 (MLog1p, d, a) -> fun fr -> sf fr d (Float.log1p (gf fr a))
  | Load (d, bb, idx) ->
      fun fr ->
        let buf = gb fr bb in
        let ix = gi fr idx in
        if ix < 0 || ix >= buf.Vm.len then
          trap "load out of bounds: %d/%d" ix buf.Vm.len;
        sf fr d (Array.unsafe_get buf.Vm.data (buf.Vm.off + ix))
  | Store (bb, idx, s) ->
      fun fr ->
        let buf = gb fr bb in
        let ix = gi fr idx in
        if ix < 0 || ix >= buf.Vm.len then
          trap "store out of bounds: %d/%d" ix buf.Vm.len;
        Array.unsafe_set buf.Vm.data (buf.Vm.off + ix) (gf fr s)
  | VConst (d, x) ->
      fun fr ->
        let vd = gv fr d in
        Array.fill vd 0 (Array.length vd) x
  | VBin (op, d, a, b) -> compile_vbin ~w op d a b
  | VBin3 (_, d, a, b, c) ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vc = gv fr c and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l
            ((Array.unsafe_get va l *. Array.unsafe_get vb l)
            +. Array.unsafe_get vc l)
        done
  | VCmp (p, d, a, b) -> compile_vcmp p d a b
  | VSel (d, c, t, e) ->
      fun fr ->
        let vc = gv fr c and vt = gv fr t and ve = gv fr e and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l
            (if Array.unsafe_get vc l <> 0.0 then Array.unsafe_get vt l
             else Array.unsafe_get ve l)
        done
  | VCall1 (MLog, d, a) ->
      fun fr ->
        let va = gv fr a and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (log (Array.unsafe_get va l))
        done
  | VCall1 (MExp, d, a) ->
      fun fr ->
        let va = gv fr a and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (exp (Array.unsafe_get va l))
        done
  | VCall1 (MLog1p, d, a) ->
      fun fr ->
        let va = gv fr a and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (Float.log1p (Array.unsafe_get va l))
        done
  | VLoad (d, bb, idx) ->
      fun fr ->
        let buf = gb fr bb in
        let base = gi fr idx in
        let vd = gv fr d in
        let w = Array.length vd in
        if base < 0 || base + w > buf.Vm.len then trap "vload out of bounds";
        Array.blit buf.Vm.data (buf.Vm.off + base) vd 0 w
  | VStore (bb, idx, s) ->
      fun fr ->
        let buf = gb fr bb in
        let base = gi fr idx in
        let vs = gv fr s in
        let w = Array.length vs in
        if base < 0 || base + w > buf.Vm.len then trap "vstore out of bounds";
        Array.blit vs 0 buf.Vm.data (buf.Vm.off + base) w
  | VGather (d, bb, idx, stride) | VShufLoad (d, bb, idx, stride, _, _) ->
      fun fr ->
        let buf = gb fr bb in
        let base = gi fr idx in
        let vd = gv fr d in
        let w = Array.length vd in
        (* one range check for the whole strided access pattern *)
        let last = base + ((w - 1) * stride) in
        if base < 0 || last < 0 || base >= buf.Vm.len || last >= buf.Vm.len
        then trap "gather out of bounds";
        let data = buf.Vm.data and off = buf.Vm.off in
        for l = 0 to w - 1 do
          Array.unsafe_set vd l (Array.unsafe_get data (off + base + (l * stride)))
        done
  | VFloor (d, a) ->
      fun fr ->
        let va = gv fr a and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l
            (Float.of_int (int_of_float (Float.floor (Array.unsafe_get va l))))
        done
  | VGatherIdx (d, bb, idx) ->
      fun fr ->
        let buf = gb fr bb in
        let vi = gv fr idx in
        let vd = gv fr d in
        let data = buf.Vm.data and off = buf.Vm.off and len = buf.Vm.len in
        for l = 0 to Array.length vd - 1 do
          let ix = int_of_float (Array.unsafe_get vi l) in
          if ix < 0 || ix >= len then trap "gather_indexed out of bounds: %d" ix;
          Array.unsafe_set vd l (Array.unsafe_get data (off + ix))
        done
  | VExtract (d, a, lane) -> fun fr -> sf fr d (gv fr a).(lane)
  | VInsert (d, s, a, lane) ->
      fun fr ->
        let vd = gv fr d and va = gv fr a in
        if vd != va then Array.blit va 0 vd 0 (Array.length vd);
        vd.(lane) <- gf fr s
  | VBroadcast (d, s) ->
      fun fr ->
        let vd = gv fr d in
        Array.fill vd 0 (Array.length vd) (gf fr s)
  | Dim (d, bb) -> fun fr -> si fr d (gb fr bb).Vm.rows
  | AllocBuf (d, rows, cols) ->
      fun fr -> fr.b.(d) <- Vm.buffer ~rows:(gi fr rows) ~cols
  | DeallocBuf _ -> fun _ -> ()
  | CopyBuf (src, dst) ->
      fun fr ->
        let s = gb fr src and d = gb fr dst in
        Array.blit s.Vm.data s.Vm.off d.Vm.data d.Vm.off s.Vm.len
  | TableConst (d, values) ->
      let table =
        {
          Vm.data = values;
          off = 0;
          len = Array.length values;
          rows = Array.length values;
          cols = 1;
        }
      in
      fun fr -> fr.b.(d) <- table
  | CallFn (idx, args) ->
      let args = Array.of_list args in
      let nargs = Array.length args in
      fun fr ->
        (* [k.cfuncs] is filled after all functions compile, so the
           lookup happens at call time — one array load *)
        let callee = Array.unsafe_get k.cfuncs idx in
        let cfr = fr.frames.(idx) in
        let cparams = callee.cparams in
        if nargs > Array.length cparams then
          trap "call to %s: %d arguments for %d parameters" callee.src.fname
            nargs (Array.length cparams);
        for pi = 0 to nargs - 1 do
          cfr.b.(Array.unsafe_get cparams pi) <- fr.b.(Array.unsafe_get args pi)
        done;
        callee.code cfr
  | Loop l ->
      let body = compile_body k ~skip ~w ~prof l.body in
      let iv = l.iv and lb = l.lb and ub = l.ub and step = l.step in
      if step = 1 then
        fun fr ->
          for j = gi fr lb to gi fr ub - 1 do
            si fr iv j;
            body fr
          done
      else
        fun fr ->
          let hi = gi fr ub in
          let j = ref (gi fr lb) in
          while !j < hi do
            si fr iv !j;
            body fr;
            j := !j + step
          done
  | Ret -> fun _ -> ()

and compile_vbin ~w (op : fbin) d a b : code =
  (* [w = 8] (the AVX2 width, the paper's best CPU configuration) gets
     fully unrolled lane bodies: on add/mul-dominated SPN kernels the
     lane-loop increment/compare/branch overhead is a third of the cost
     of the op itself.  Other widths keep the generic lane loop. *)
  match (op, w) with
  | FAdd, 8 ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        Array.unsafe_set vd 0 (Array.unsafe_get va 0 +. Array.unsafe_get vb 0);
        Array.unsafe_set vd 1 (Array.unsafe_get va 1 +. Array.unsafe_get vb 1);
        Array.unsafe_set vd 2 (Array.unsafe_get va 2 +. Array.unsafe_get vb 2);
        Array.unsafe_set vd 3 (Array.unsafe_get va 3 +. Array.unsafe_get vb 3);
        Array.unsafe_set vd 4 (Array.unsafe_get va 4 +. Array.unsafe_get vb 4);
        Array.unsafe_set vd 5 (Array.unsafe_get va 5 +. Array.unsafe_get vb 5);
        Array.unsafe_set vd 6 (Array.unsafe_get va 6 +. Array.unsafe_get vb 6);
        Array.unsafe_set vd 7 (Array.unsafe_get va 7 +. Array.unsafe_get vb 7)
  | FSub, 8 ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        Array.unsafe_set vd 0 (Array.unsafe_get va 0 -. Array.unsafe_get vb 0);
        Array.unsafe_set vd 1 (Array.unsafe_get va 1 -. Array.unsafe_get vb 1);
        Array.unsafe_set vd 2 (Array.unsafe_get va 2 -. Array.unsafe_get vb 2);
        Array.unsafe_set vd 3 (Array.unsafe_get va 3 -. Array.unsafe_get vb 3);
        Array.unsafe_set vd 4 (Array.unsafe_get va 4 -. Array.unsafe_get vb 4);
        Array.unsafe_set vd 5 (Array.unsafe_get va 5 -. Array.unsafe_get vb 5);
        Array.unsafe_set vd 6 (Array.unsafe_get va 6 -. Array.unsafe_get vb 6);
        Array.unsafe_set vd 7 (Array.unsafe_get va 7 -. Array.unsafe_get vb 7)
  | FMul, 8 ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        Array.unsafe_set vd 0 (Array.unsafe_get va 0 *. Array.unsafe_get vb 0);
        Array.unsafe_set vd 1 (Array.unsafe_get va 1 *. Array.unsafe_get vb 1);
        Array.unsafe_set vd 2 (Array.unsafe_get va 2 *. Array.unsafe_get vb 2);
        Array.unsafe_set vd 3 (Array.unsafe_get va 3 *. Array.unsafe_get vb 3);
        Array.unsafe_set vd 4 (Array.unsafe_get va 4 *. Array.unsafe_get vb 4);
        Array.unsafe_set vd 5 (Array.unsafe_get va 5 *. Array.unsafe_get vb 5);
        Array.unsafe_set vd 6 (Array.unsafe_get va 6 *. Array.unsafe_get vb 6);
        Array.unsafe_set vd 7 (Array.unsafe_get va 7 *. Array.unsafe_get vb 7)
  | FMax, 8 ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        Array.unsafe_set vd 0
          (Float.max (Array.unsafe_get va 0) (Array.unsafe_get vb 0));
        Array.unsafe_set vd 1
          (Float.max (Array.unsafe_get va 1) (Array.unsafe_get vb 1));
        Array.unsafe_set vd 2
          (Float.max (Array.unsafe_get va 2) (Array.unsafe_get vb 2));
        Array.unsafe_set vd 3
          (Float.max (Array.unsafe_get va 3) (Array.unsafe_get vb 3));
        Array.unsafe_set vd 4
          (Float.max (Array.unsafe_get va 4) (Array.unsafe_get vb 4));
        Array.unsafe_set vd 5
          (Float.max (Array.unsafe_get va 5) (Array.unsafe_get vb 5));
        Array.unsafe_set vd 6
          (Float.max (Array.unsafe_get va 6) (Array.unsafe_get vb 6));
        Array.unsafe_set vd 7
          (Float.max (Array.unsafe_get va 7) (Array.unsafe_get vb 7))
  | FAdd, _ ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (Array.unsafe_get va l +. Array.unsafe_get vb l)
        done
  | FSub, _ ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (Array.unsafe_get va l -. Array.unsafe_get vb l)
        done
  | FMul, _ ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (Array.unsafe_get va l *. Array.unsafe_get vb l)
        done
  | FDiv, _ ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l (Array.unsafe_get va l /. Array.unsafe_get vb l)
        done
  | FMax, _ ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l
            (Float.max (Array.unsafe_get va l) (Array.unsafe_get vb l))
        done
  | FMin, _ ->
      fun fr ->
        let va = gv fr a and vb = gv fr b and vd = gv fr d in
        for l = 0 to Array.length vd - 1 do
          Array.unsafe_set vd l
            (Float.min (Array.unsafe_get va l) (Array.unsafe_get vb l))
        done
  | FMA, _ ->
      fun _ -> trap "binary FMA (addend dropped by a malformed instruction)"

and compile_fcmp (p : pred) d a b : code =
  let cmp test fr = si fr d (if test (gf fr a) (gf fr b) then 1 else 0) in
  (* monomorphic comparators: the polymorphic ones would box *)
  match p with
  | Olt -> cmp (fun (x : float) y -> x < y)
  | Ole -> cmp (fun (x : float) y -> x <= y)
  | Ogt -> cmp (fun (x : float) y -> x > y)
  | Oge -> cmp (fun (x : float) y -> x >= y)
  | Oeq -> cmp (fun (x : float) y -> x = y)
  | One ->
      cmp (fun (x : float) y ->
          x <> y && not (Float.is_nan x || Float.is_nan y))
  | Uno -> cmp (fun (x : float) y -> Float.is_nan x || Float.is_nan y)

and compile_vcmp (p : pred) d a b : code =
  let mask test fr =
    let va = gv fr a and vb = gv fr b and vd = gv fr d in
    for l = 0 to Array.length vd - 1 do
      Array.unsafe_set vd l
        (if test (Array.unsafe_get va l) (Array.unsafe_get vb l) then 1.0
         else 0.0)
    done
  in
  (* monomorphic comparators: the polymorphic ones would box *)
  match p with
  | Olt -> mask (fun (x : float) y -> x < y)
  | Ole -> mask (fun (x : float) y -> x <= y)
  | Ogt -> mask (fun (x : float) y -> x > y)
  | Oge -> mask (fun (x : float) y -> x >= y)
  | Oeq -> mask (fun (x : float) y -> x = y)
  | One ->
      mask (fun (x : float) y ->
          x <> y && not (Float.is_nan x || Float.is_nan y))
  | Uno -> mask (fun (x : float) y -> Float.is_nan x || Float.is_nan y)

and compile_body (k : kernel) ~skip ~w ~prof (body : instr array) : code =
  let kept =
    Array.of_seq (Seq.filter (fun i -> not (skip i)) (Array.to_seq body))
  in
  fuse
    (Array.map
       (fun ins ->
         let c = compile_instr k ~skip ~w ~prof ins in
         (* profiled compile: each closure first bumps its pre-resolved
            (node, opcode) cell — one Atomic.incr, no lookup at run time *)
         match prof ins with
         | None -> c
         | Some cell ->
             fun fr ->
               Profile.bump cell;
               c fr)
       kept)

let no_skip (_ : instr) = false
let no_prof (_ : instr) = None

let compile_func ?profile (k : kernel) (fn : func) : cfunc =
  let bounds = Optimizer.reg_bounds fn in
  let bound c = max 1 bounds.(Optimizer.slot c) in
  let fr_nf = bound Optimizer.F and fr_ni = bound Optimizer.I in
  let fr_nv = bound Optimizer.V and fr_nb = bound Optimizer.B in
  (* [w] is the exact lane count of every vector register in this
     function's frame ([make_state] sizes them from [fr_width]), which is
     what makes the width-specialized unchecked lane accesses safe *)
  let w = max 1 fn.vec_width in
  let promoted = promoted_regs fn in
  let skip = if RSet.is_empty promoted then no_skip else promotes promoted in
  let prof =
    match profile with
    | None -> no_prof
    | Some p -> fun ins -> Some (Profile.cell_for p fn ins)
  in
  let init_instrs =
    Array.of_list (List.rev (collect_promoted promoted [] fn.body))
  in
  {
    src = fn;
    cparams = Array.of_list fn.params;
    code = compile_body k ~skip ~w ~prof fn.body;
    (* init runs once per state, outside any profiled execution *)
    init =
      fuse (Array.map (compile_instr k ~skip:no_skip ~w ~prof:no_prof) init_instrs);
    fr_nf;
    fr_ni;
    fr_nv;
    fr_nb;
    fr_width = w;
  }

(** [compile ?profile m] — compile the module once into closures.  The
    result is immutable and safe to share across domains; pair it with
    one {!make_state} per domain to execute.  With [profile], every
    compiled instruction closure first bumps its pre-resolved
    per-SPN-node cell ({!Profile}); without it, the generated code is
    byte-identical to before — the default path pays nothing. *)
let compile ?profile (m : modul) : kernel =
  (* tie the knot: CallFn closures capture [k] and index [cfuncs] at call
     time, so the placeholders can be replaced after each function
     compiles — by run time every slot holds its real cfunc *)
  let placeholder fn =
    { src = fn; cparams = [||]; code = (fun _ -> ()); init = (fun _ -> ());
      fr_nf = 1; fr_ni = 1; fr_nv = 1; fr_nb = 1; fr_width = 1 }
  in
  let k = { cfuncs = Array.map placeholder m.funcs; centry = m.entry } in
  Array.iteri (fun i fn -> k.cfuncs.(i) <- compile_func ?profile k fn) m.funcs;
  k

(* -- Execution state ----------------------------------------------------------- *)

(* registered once; [run] is per-chunk so it must not hit the registry *)
let frame_reuse_counter = Spnc_obs.Metrics.counter "cpu.jit.frame_runs"

(** [make_state k] — a per-domain pool of register frames, one per
    function.  Frames are reused across runs (and across the runtime's
    chunks): compiled kernels define every register before reading it, so
    no per-run zeroing is needed. *)
let make_state (k : kernel) : state =
  Spnc_obs.Metrics.(counter_incr (counter "cpu.jit.states_created"));
  let n = Array.length k.cfuncs in
  let empty_buf = { Vm.data = [||]; off = 0; len = 0; rows = 0; cols = 0 } in
  let dummy = { f = [||]; i = [||]; v = [||]; b = [||]; frames = [||] } in
  let frames = Array.make n dummy in
  Array.iteri
    (fun ix cf ->
      frames.(ix) <-
        {
          f = Array.make cf.fr_nf 0.0;
          i = Array.make cf.fr_ni 0;
          v = Array.init cf.fr_nv (fun _ -> Array.make cf.fr_width 0.0);
          b = Array.make cf.fr_nb empty_buf;
          frames;
        })
    k.cfuncs;
  (* run the promoted constants once — the body never re-materializes them *)
  Array.iteri (fun ix cf -> cf.init frames.(ix)) k.cfuncs;
  frames

(** [run k st ~buffers] executes the compiled entry function, binding
    [buffers] to its parameters in order.  [st] must not be shared
    between concurrently running domains.
    @raise Vm.Trap on runtime errors. *)
let run (k : kernel) (st : state) ~(buffers : Vm.buffer list) : unit =
  (* runs / states_created is the frame-pool reuse ratio: with the
     streaming runtime it should grow with call count while
     states_created stays at one per worker slot *)
  Spnc_obs.Metrics.counter_incr frame_reuse_counter;
  let entry = k.cfuncs.(k.centry) in
  let fr = st.(k.centry) in
  if List.length buffers <> Array.length entry.cparams then
    trap "entry %s expects %d buffers, got %d" entry.src.fname
      (Array.length entry.cparams)
      (List.length buffers);
  List.iteri (fun pi buf -> fr.b.(entry.cparams.(pi)) <- buf) buffers;
  entry.code fr

(** [run_once m ~buffers] — compile + run in one shot (tests, one-off
    executions).  Production callers should {!compile} once and reuse. *)
let run_once (m : modul) ~(buffers : Vm.buffer list) : unit =
  let k = compile m in
  run k (make_state k) ~buffers
