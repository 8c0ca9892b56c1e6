(** Lir optimization pipeline — the "LLVM IR optimized further by the LLVM
    framework" stage (paper §IV-B), with the compiler optimization levels
    investigated in §V-B (Figs. 11/13):

    - [-O0]: no optimization (naive isel output);
    - [-O1]: constant folding, local CSE, dead-code elimination;
    - [-O2]: -O1 plus loop-invariant code motion (constants, tables and
      invariant address arithmetic move out of the batch loop);
    - [-O3]: -O2 plus FMA fusion and a second clean-up round.

    All passes are semantics-preserving; the test suite runs the VM on
    every level against the reference evaluator. *)

type level = O0 | O1 | O2 | O3

let level_of_int = function
  | 0 -> O0
  | 1 -> O1
  | 2 -> O2
  | _ -> O3

let level_to_string = function O0 -> "-O0" | O1 -> "-O1" | O2 -> "-O2" | O3 -> "-O3"

let level_of_string = function
  | "-O0" | "O0" -> Some O0
  | "-O1" | "O1" -> Some O1
  | "-O2" | "O2" -> Some O2
  | "-O3" | "O3" -> Some O3
  | _ -> None

open Lir

(* Register-class tagging of instruction operands, needed to reason about
   def/use without type information: each instruction knows which class
   its dst/srcs belong to. *)

type rc = F | I | V | B

let defs (i : instr) : (rc * reg) list =
  match i with
  | ConstF (d, _) | FBin (_, d, _, _) | FBin3 (_, d, _, _, _) | SelF (d, _, _, _)
  | ItoF (d, _) | Call1 (_, d, _) | Load (d, _, _) | VExtract (d, _, _) ->
      [ (F, d) ]
  | ConstI (d, _) | IBin (_, d, _, _) | FCmp (_, d, _, _) | SelI (d, _, _, _)
  | FtoI (d, _) | Dim (d, _) ->
      [ (I, d) ]
  | VConst (d, _) | VBin (_, d, _, _) | VBin3 (_, d, _, _, _) | VCmp (_, d, _, _)
  | VSel (d, _, _, _) | VCall1 (_, d, _) | VLoad (d, _, _)
  | VGather (d, _, _, _) | VShufLoad (d, _, _, _, _, _)
  | VGatherIdx (d, _, _) | VFloor (d, _)
  | VInsert (d, _, _, _) | VBroadcast (d, _) ->
      [ (V, d) ]
  | AllocBuf (d, _, _) | TableConst (d, _) -> [ (B, d) ]
  | Store _ | VStore _ | DeallocBuf _ | CopyBuf _ | CallFn _ | Ret -> []
  | Loop l -> [ (I, l.iv) ]

let uses (i : instr) : (rc * reg) list =
  match i with
  | ConstF _ | ConstI _ | VConst _ | TableConst _ | Ret -> []
  | FBin (_, _, a, b) -> [ (F, a); (F, b) ]
  | FBin3 (_, _, a, b, c) -> [ (F, a); (F, b); (F, c) ]
  | IBin (_, _, a, b) -> [ (I, a); (I, b) ]
  | FCmp (_, _, a, b) -> [ (F, a); (F, b) ]
  | SelF (_, c, t, f) -> [ (I, c); (F, t); (F, f) ]
  | SelI (_, c, t, f) -> [ (I, c); (I, t); (I, f) ]
  | FtoI (_, a) -> [ (F, a) ]
  | ItoF (_, a) -> [ (I, a) ]
  | Call1 (_, _, a) -> [ (F, a) ]
  | Load (_, b, idx) -> [ (B, b); (I, idx) ]
  | Store (b, idx, s) -> [ (B, b); (I, idx); (F, s) ]
  | VBin (_, _, a, b) -> [ (V, a); (V, b) ]
  | VBin3 (_, _, a, b, c) -> [ (V, a); (V, b); (V, c) ]
  | VCmp (_, _, a, b) -> [ (V, a); (V, b) ]
  | VSel (_, c, t, f) -> [ (V, c); (V, t); (V, f) ]
  | VCall1 (_, _, a) -> [ (V, a) ]
  | VLoad (_, b, idx) -> [ (B, b); (I, idx) ]
  | VStore (b, idx, s) -> [ (B, b); (I, idx); (V, s) ]
  | VGather (_, b, idx, _) | VShufLoad (_, b, idx, _, _, _) -> [ (B, b); (I, idx) ]
  | VGatherIdx (_, b, idx) -> [ (B, b); (V, idx) ]
  | VFloor (_, a) -> [ (V, a) ]
  | VExtract (_, v, _) -> [ (V, v) ]
  | VInsert (_, s, v, _) -> [ (F, s); (V, v) ]
  | VBroadcast (_, s) -> [ (F, s) ]
  | Dim (_, b) -> [ (B, b) ]
  | AllocBuf (_, rows, _) -> [ (I, rows) ]
  | DeallocBuf b -> [ (B, b) ]
  | CopyBuf (a, b) -> [ (B, a); (B, b) ]
  | CallFn (_, args) -> List.map (fun a -> (B, a)) args
  | Loop l -> [ (I, l.lb); (I, l.ub) ]

(* Dense per-class register tables: isel numbers the registers of each
   class 0..n-1, so a register indexes an array of its class directly. *)
let slot = function F -> 0 | I -> 1 | V -> 2 | B -> 3

(* One past the highest register of each slot: the counts isel recorded,
   widened to cover every register the body and the parameter list
   touch, so tables sized from them are safe even for hand-assembled
   Lir whose declared counts are wrong. *)
let reg_bounds (f : func) : int array =
  let n = [| f.nf; f.ni; f.nv; f.nb |] in
  let see (c, r) = if r >= n.(slot c) then n.(slot c) <- r + 1 in
  let rec walk body =
    Array.iter
      (fun i ->
        List.iter see (defs i);
        List.iter see (uses i);
        match i with Loop l -> walk l.body | _ -> ())
      body
  in
  walk f.body;
  List.iter (fun p -> see (B, p)) f.params;
  n

(* pure = no side effects, safe to CSE / sink / hoist / remove-if-dead *)
let pure (i : instr) =
  match i with
  | Store _ | VStore _ | DeallocBuf _ | CopyBuf _ | CallFn _ | Ret | Loop _
  | AllocBuf _ ->
      false
  | Load _ | VLoad _ | VGather _ | VShufLoad _ | VGatherIdx _ ->
      (* loads are not CSE'd/hoisted: a preceding store may alias *)
      false
  | _ -> true

(* -- Constant folding --------------------------------------------------------- *)

let fbin_eval op a b =
  match op with
  | FAdd -> a +. b
  | FSub -> a -. b
  | FMul -> a *. b
  | FDiv -> a /. b
  | FMax -> Float.max a b
  | FMin -> Float.min a b
  | FMA -> assert false (* guarded at the call site: binary FMA never folds *)

let ibin_eval op a b =
  match op with
  | IAdd -> a + b
  | IMul -> a * b
  | IDiv -> if b = 0 then 0 else a / b
  | IAnd -> if a <> 0 && b <> 0 then 1 else 0
  | IOr -> if a <> 0 || b <> 0 then 1 else 0

let rec constfold_body (fenv : (reg, float) Hashtbl.t)
    (ienv : (reg, int) Hashtbl.t) (body : instr array) : instr array =
  Array.map
    (fun i ->
      match i with
      | ConstF (d, v) ->
          Hashtbl.replace fenv d v;
          i
      | ConstI (d, v) ->
          Hashtbl.replace ienv d v;
          i
      | FBin (FMA, d, _, _) ->
          (* binary FMA is malformed (the addend was dropped); never fold
             it — let it reach the engines, which trap on it *)
          Hashtbl.remove fenv d;
          i
      | FBin (op, d, a, b) -> (
          match (Hashtbl.find_opt fenv a, Hashtbl.find_opt fenv b) with
          | Some x, Some y ->
              let v = fbin_eval op x y in
              Hashtbl.replace fenv d v;
              ConstF (d, v)
          | _ ->
              Hashtbl.remove fenv d;
              i)
      | IBin (op, d, a, b) -> (
          match (Hashtbl.find_opt ienv a, Hashtbl.find_opt ienv b) with
          | Some x, Some y ->
              let v = ibin_eval op x y in
              Hashtbl.replace ienv d v;
              ConstI (d, v)
          | _ ->
              Hashtbl.remove ienv d;
              i)
      | Loop l ->
          (* constants from outside remain valid inside; definitions inside
             the loop are cleared after (they are iteration-dependent) *)
          let f' = Hashtbl.copy fenv and i' = Hashtbl.copy ienv in
          Hashtbl.remove i' l.iv;
          let body' = constfold_body f' i' l.body in
          Loop { l with body = body' }
      | other ->
          List.iter
            (fun (c, r) ->
              match c with
              | F -> Hashtbl.remove fenv r
              | I -> Hashtbl.remove ienv r
              | _ -> ())
            (defs other);
          other)
    body

let constfold (f : func) : func =
  { f with body = constfold_body (Hashtbl.create 64) (Hashtbl.create 64) f.body }

(* -- Local CSE ------------------------------------------------------------------ *)

(* Key: instruction with dst erased.  We reuse the instr representation
   with dst=-1 for hashing. *)
let cse_key (i : instr) : instr option =
  if not (pure i) then None
  else
    Some
      (match i with
      | ConstF (_, v) -> ConstF (-1, v)
      | ConstI (_, v) -> ConstI (-1, v)
      | VConst (_, v) -> VConst (-1, v)
      | FBin (op, _, a, b) -> FBin (op, -1, a, b)
      | FBin3 (op, _, a, b, c) -> FBin3 (op, -1, a, b, c)
      | IBin (op, _, a, b) -> IBin (op, -1, a, b)
      | FCmp (p, _, a, b) -> FCmp (p, -1, a, b)
      | SelF (_, c, t, f) -> SelF (-1, c, t, f)
      | SelI (_, c, t, f) -> SelI (-1, c, t, f)
      | FtoI (_, a) -> FtoI (-1, a)
      | ItoF (_, a) -> ItoF (-1, a)
      | Call1 (fn, _, a) -> Call1 (fn, -1, a)
      | VBin (op, _, a, b) -> VBin (op, -1, a, b)
      | VBin3 (op, _, a, b, c) -> VBin3 (op, -1, a, b, c)
      | VCmp (p, _, a, b) -> VCmp (p, -1, a, b)
      | VSel (_, c, t, f) -> VSel (-1, c, t, f)
      | VCall1 (fn, _, a) -> VCall1 (fn, -1, a)
      | VExtract (_, v, l) -> VExtract (-1, v, l)
      | VInsert (_, s, v, l) -> VInsert (-1, s, v, l)
      | VBroadcast (_, s) -> VBroadcast (-1, s)
      | VFloor (_, a) -> VFloor (-1, a)
      | Dim (_, b) -> Dim (-1, b)
      | i -> i)

(* Replace a register use according to a per-class substitution. *)
let substitute (subf : (reg, reg) Hashtbl.t) (subi : (reg, reg) Hashtbl.t)
    (subv : (reg, reg) Hashtbl.t) (i : instr) : instr =
  let sf r = Option.value ~default:r (Hashtbl.find_opt subf r) in
  let si r = Option.value ~default:r (Hashtbl.find_opt subi r) in
  let sv r = Option.value ~default:r (Hashtbl.find_opt subv r) in
  match i with
  | ConstF _ | ConstI _ | VConst _ | TableConst _ | Ret -> i
  | FBin (op, d, a, b) -> FBin (op, d, sf a, sf b)
  | FBin3 (op, d, a, b, c) -> FBin3 (op, d, sf a, sf b, sf c)
  | IBin (op, d, a, b) -> IBin (op, d, si a, si b)
  | FCmp (p, d, a, b) -> FCmp (p, d, sf a, sf b)
  | SelF (d, c, t, f) -> SelF (d, si c, sf t, sf f)
  | SelI (d, c, t, f) -> SelI (d, si c, si t, si f)
  | FtoI (d, a) -> FtoI (d, sf a)
  | ItoF (d, a) -> ItoF (d, si a)
  | Call1 (fn, d, a) -> Call1 (fn, d, sf a)
  | Load (d, b, idx) -> Load (d, b, si idx)
  | Store (b, idx, s) -> Store (b, si idx, sf s)
  | VBin (op, d, a, b) -> VBin (op, d, sv a, sv b)
  | VBin3 (op, d, a, b, c) -> VBin3 (op, d, sv a, sv b, sv c)
  | VCmp (p, d, a, b) -> VCmp (p, d, sv a, sv b)
  | VSel (d, c, t, f) -> VSel (d, sv c, sv t, sv f)
  | VCall1 (fn, d, a) -> VCall1 (fn, d, sv a)
  | VLoad (d, b, idx) -> VLoad (d, b, si idx)
  | VStore (b, idx, s) -> VStore (b, si idx, sv s)
  | VGather (d, b, idx, s) -> VGather (d, b, si idx, s)
  | VGatherIdx (d, b, idx) -> VGatherIdx (d, b, sv idx)
  | VFloor (d, a) -> VFloor (d, sv a)
  | VShufLoad (d, b, idx, s, l, sh) -> VShufLoad (d, b, si idx, s, l, sh)
  | VExtract (d, v, l) -> VExtract (d, sv v, l)
  | VInsert (d, s, v, l) -> VInsert (d, sf s, sv v, l)
  | VBroadcast (d, s) -> VBroadcast (d, sf s)
  | Dim (d, b) -> Dim (d, b)
  | AllocBuf (d, rows, c) -> AllocBuf (d, si rows, c)
  | DeallocBuf _ | CopyBuf _ | CallFn _ -> i
  | Loop l -> Loop { l with lb = si l.lb; ub = si l.ub }

(* Registers are in SSA form within a function (isel mints fresh regs), so
   the substitution maps can be shared with nested loop bodies: an outer
   dedup must rewrite uses inside loops too. *)
let rec cse_body ?(subf = Hashtbl.create 16) ?(subi = Hashtbl.create 16)
    ?(subv = Hashtbl.create 16) (body : instr array) : instr array =
  let seen : (instr, reg) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun i ->
      let i = substitute subf subi subv i in
      match i with
      | Loop l ->
          (* expression table is per-region (conservative), but the
             substitutions flow through *)
          out := Loop { l with body = cse_body ~subf ~subi ~subv l.body } :: !out
      | _ -> (
          match cse_key i with
          | Some key -> (
              match Hashtbl.find_opt seen key with
              | Some prior -> (
                  match defs i with
                  | [ (F, d) ] -> Hashtbl.replace subf d prior
                  | [ (I, d) ] -> Hashtbl.replace subi d prior
                  | [ (V, d) ] -> Hashtbl.replace subv d prior
                  | _ -> out := i :: !out)
              | None ->
                  (match defs i with
                  | [ (_, d) ] -> Hashtbl.replace seen key d
                  | _ -> ());
                  out := i :: !out)
          | None -> out := i :: !out))
    body;
  Array.of_list (List.rev !out)

let cse (f : func) : func = { f with body = cse_body f.body }

(* -- Dead code elimination -------------------------------------------------------- *)

(* [Some (slot, reg)] for a pure instruction whose result DCE may drop;
   buffers are freed explicitly, so a buffer definition stays *)
let removable (i : instr) =
  if not (pure i) then None
  else match defs i with [ (c, r) ] when c <> B -> Some (slot c, r) | _ -> None

(* Removes every pure instruction whose result is never read, to the
   fixpoint, in one pass: count the uses of each register, then walk a
   worklist of dead registers, releasing the operands of their pure
   definitions; an operand whose count drops to zero dies in turn. *)
let dce (f : func) : func =
  let bounds = reg_bounds f in
  let count = Array.map (fun b -> Array.make b 0) bounds in
  (* per register, the operands of each of its pure definitions *)
  let sites = Array.map (fun b -> Array.make b []) bounds in
  let rec scan body =
    Array.iter
      (fun i ->
        let u = uses i in
        List.iter (fun (c, r) -> count.(slot c).(r) <- count.(slot c).(r) + 1) u;
        (match removable i with
        | Some (s, r) -> sites.(s).(r) <- u :: sites.(s).(r)
        | None -> ());
        match i with Loop l -> scan l.body | _ -> ())
      body
  in
  scan f.body;
  let dead = Array.map (fun b -> Array.make b false) bounds in
  let work = Stack.create () in
  let kill s r =
    if count.(s).(r) = 0 && sites.(s).(r) <> [] && not dead.(s).(r) then begin
      dead.(s).(r) <- true;
      Stack.push (s, r) work
    end
  in
  Array.iteri (fun s regs -> Array.iteri (fun r _ -> kill s r) regs) count;
  while not (Stack.is_empty work) do
    let s, r = Stack.pop work in
    List.iter
      (List.iter (fun (c, r) ->
           let s = slot c in
           count.(s).(r) <- count.(s).(r) - 1;
           kill s r))
      sites.(s).(r)
  done;
  let rec rebuild body =
    Array.of_list
      (List.filter_map
         (fun i ->
           match (i, removable i) with
           | Loop l, _ -> Some (Loop { l with body = rebuild l.body })
           | _, Some (s, r) when dead.(s).(r) -> None
           | _ -> Some i)
         (Array.to_list body))
  in
  { f with body = rebuild f.body }

(* -- Loop-invariant code motion ------------------------------------------------------ *)

let rec licm_body (defined_outside : (rc * reg, unit) Hashtbl.t)
    (body : instr array) : instr array =
  let out = ref [] in
  Array.iter
    (fun i ->
      (match i with
      | Loop l ->
          (* values defined so far are invariant w.r.t. this loop *)
          let outer = Hashtbl.copy defined_outside in
          (* hoist: repeatedly move loop-body instrs whose uses are all
             invariant *)
          let body_list = ref (Array.to_list l.body) in
          let hoisted = ref [] in
          let changed = ref true in
          while !changed do
            changed := false;
            let invariant (ins : instr) =
              pure ins
              && List.for_all
                   (fun (c, r) -> c = B || Hashtbl.mem outer (c, r))
                   (uses ins)
            in
            body_list :=
              List.filter
                (fun ins ->
                  if invariant ins then begin
                    hoisted := ins :: !hoisted;
                    List.iter
                      (fun (c, r) -> Hashtbl.replace outer (c, r) ())
                      (defs ins);
                    changed := true;
                    false
                  end
                  else true)
                !body_list
          done;
          (* recurse into nested loops with the enlarged outer set *)
          Hashtbl.replace outer (I, l.iv) ();
          let inner = licm_body outer (Array.of_list !body_list) in
          List.iter (fun h -> out := h :: !out) (List.rev !hoisted);
          out := Loop { l with body = inner } :: !out
      | _ -> out := i :: !out);
      List.iter (fun (c, r) -> Hashtbl.replace defined_outside (c, r) ()) (defs i))
    body;
  Array.of_list (List.rev !out)

let licm (f : func) : func =
  let outside = Hashtbl.create 64 in
  (* parameters are defined outside everything *)
  List.iter (fun p -> Hashtbl.replace outside (B, p) ()) f.params;
  { f with body = licm_body outside f.body }

(* -- FMA fusion (-O3) ------------------------------------------------------------------- *)

let remark_fused ~vec loc =
  if Spnc_obs.Remark.enabled () then
    Spnc_obs.Remark.emit ~pass:"lir-fma"
      ~loc:
        (if Spnc_mlir.Loc.is_known loc then Spnc_mlir.Loc.to_string loc else "")
      (if vec then "fused vector multiply-add into one FMA"
       else "fused multiply-add into one FMA")

let rec fma_body ?(prov = Lir.no_prov) (body : instr array) : instr array =
  let n = Array.length body in
  let consumed = Array.make n false in
  let use_count_f = Hashtbl.create 64 and use_count_v = Hashtbl.create 64 in
  let bump tbl r =
    Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r))
  in
  let rec count (body : instr array) =
    Array.iter
      (fun i ->
        List.iter
          (fun (c, r) ->
            match c with
            | F -> bump use_count_f r
            | V -> bump use_count_v r
            | _ -> ())
          (uses i);
        match i with Loop l -> count l.body | _ -> ())
      body
  in
  count body;
  let out = ref [] in
  for k = 0 to n - 1 do
    if not consumed.(k) then begin
      match body.(k) with
      | Loop l -> out := Lir.Loop { l with body = fma_body ~prov l.body } :: !out
      | FBin (FMul, t, a, b)
        when Hashtbl.find_opt use_count_f t = Some 1 && k + 1 < n -> (
          (* look ahead a short window for FAdd(d, t, c) or FAdd(d, c, t).
             The fused FMA is emitted at the multiply's position, so the
             addend [c] is read early: fusing is only sound if nothing in
             the window (k, j) defines [c]. *)
          let fused = ref false in
          let window_defs = Hashtbl.create 8 in
          (try
             for j = k + 1 to min (n - 1) (k + 4) do
               match body.(j) with
               | FBin (FAdd, d, x, y) when (x = t || y = t) && not consumed.(j) ->
                   let c = if x = t then y else x in
                   if Hashtbl.mem window_defs c then raise Exit;
                   out := FBin3 (FMA, d, a, b, c) :: !out;
                   remark_fused ~vec:false (prov_reg prov.pf d);
                   consumed.(j) <- true;
                   fused := true;
                   raise Exit
               | instr
                 when List.exists (fun (cl, r) -> cl = F && r = t) (defs instr) ->
                   raise Exit
               | instr ->
                   List.iter
                     (fun (cl, r) -> if cl = F then Hashtbl.replace window_defs r ())
                     (defs instr)
             done
           with Exit -> ());
          if not !fused then out := body.(k) :: !out)
      | VBin (FMul, t, a, b)
        when Hashtbl.find_opt use_count_v t = Some 1 && k + 1 < n -> (
          let fused = ref false in
          let window_defs = Hashtbl.create 8 in
          (try
             for j = k + 1 to min (n - 1) (k + 4) do
               match body.(j) with
               | VBin (FAdd, d, x, y) when (x = t || y = t) && not consumed.(j) ->
                   let c = if x = t then y else x in
                   if Hashtbl.mem window_defs c then raise Exit;
                   out := VBin3 (FMA, d, a, b, c) :: !out;
                   remark_fused ~vec:true (prov_reg prov.pv d);
                   consumed.(j) <- true;
                   fused := true;
                   raise Exit
               | instr
                 when List.exists (fun (cl, r) -> cl = V && r = t) (defs instr) ->
                   raise Exit
               | instr ->
                   List.iter
                     (fun (cl, r) -> if cl = V then Hashtbl.replace window_defs r ())
                     (defs instr)
             done
           with Exit -> ());
          if not !fused then out := body.(k) :: !out)
      | i -> out := i :: !out
    end
  done;
  Array.of_list (List.rev !out)

let fma (f : func) : func = { f with body = fma_body ~prov:f.prov f.body }

(* -- Fault injection ------------------------------------------------------------------ *)

(* A deliberately unsound "peephole": the first floating add of each
   function becomes a subtract.  Enabled only through
   [inject_bad_peephole] by the differential fuzzing harness
   (bin/spnc_fuzz --inject-bad-peephole) to prove the harness detects
   and shrinks a real miscompile; never on by default. *)
let inject_bad_peephole = ref false

let rec break_first_fadd (broken : bool ref) (body : instr array) : instr array
    =
  Array.map
    (fun i ->
      if !broken then i
      else
        match i with
        | FBin (FAdd, d, a, b) ->
            broken := true;
            FBin (FSub, d, a, b)
        | VBin (FAdd, d, a, b) ->
            broken := true;
            VBin (FSub, d, a, b)
        | Loop l -> Loop { l with body = break_first_fadd broken l.body }
        | i -> i)
    body

let bad_peephole (f : func) : func =
  { f with body = break_first_fadd (ref false) f.body }

(* -- Driver --------------------------------------------------------------------------- *)

(** [run_func level f] — the per-function pipeline of [run].  Exposed so
    the auto-tuner can re-optimize {e individual} task functions of an
    already-compiled module (profile-guided per-task levels: extra -O3
    effort only on the functions that dominate dynamic cycles). *)
let run_func (level : level) (f : func) : func =
  let opt f =
    match level with
    | O0 -> f
    | O1 -> dce (cse (constfold f))
    | O2 -> dce (cse (licm (dce (cse (constfold f)))))
    | O3 -> fma (dce (cse (licm (dce (cse (constfold (dce (cse (constfold f)))))))))
  in
  if !inject_bad_peephole && level <> O0 then bad_peephole (opt f) else opt f

(** [run level m] optimizes every function of the module. *)
let run (level : level) (m : Lir.modul) : Lir.modul =
  { m with Lir.funcs = Array.map (run_func level) m.Lir.funcs }
