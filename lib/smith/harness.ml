(** Differential pipeline harness over generated programs
    (docs/FUZZING.md).

    For each {!Smith.program} the harness asserts, with the verifier
    running after {e every} pass:

    - the module verifies and round-trips the printer/parser exactly;
    - the baseline pipeline lowers it to bufferized LoSPN, whose
      {!Spnc_lospn.Interp} evaluation is the semantic reference;
    - across -O0..-O3 × VM/JIT × 1/2 threads the CPU backend is
      bit-identical to the level's VM single-thread run and within
      tolerance of the reference;
    - across randomized legal pass orderings ({!Passorder}) the interp
      result stays within tolerance of the reference and one
      seed-chosen (level, VM-vs-JIT) pair stays bit-identical.

    Outputs are compared by the shared differential core
    ([Spnc_resilience.Fuzz.compare]: [Exact] or [Tol], with its
    trap-class rule).  Any violation is a structured {!failure}
    carrying the pipeline string and the comparator's detail;
    [bin/spnc_fuzz --smith] shrinks the program ({!Shrink.subject})
    and writes a reproducer bundle. *)

open Spnc_mlir
module Rng = Spnc_data.Rng
module Pipelines = Spnc.Pipelines
module Interp = Spnc_lospn.Interp
module Optimizer = Spnc_cpu.Optimizer
module Exec = Spnc_runtime.Exec
module Pool = Spnc_runtime.Pool
module Fuzz = Spnc_resilience.Fuzz

type failure = {
  check : string;  (** which invariant broke (see docs/FUZZING.md) *)
  pipeline : string;  (** pipeline / configuration under test *)
  detail : string;
}

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "[%s] pipeline=%s: %s" f.check f.pipeline f.detail

type config = {
  orderings : int;  (** random legal pipelines checked per program *)
  tol : float;  (** relative tolerance against the interp reference *)
  threads : int;  (** parallel thread count exercised (beside 1) *)
}

let default_config = { orderings = 5; tol = 1e-6; threads = 2 }

(* -- Pipeline execution ------------------------------------------------------ *)

(* Parse, legality-check (from stage [start]) and run a textual pipeline
   over [m] with the verifier after every pass. *)
let run_pipeline ?(start = "hispn") ~(pipeline : string) (m : Ir.modul) :
    (Ir.modul, string) result =
  match Pipelines.parse_pipeline pipeline with
  | Error e -> Error ("invalid pipeline: " ^ e)
  | Ok passes -> (
      match Pass.validate_ordering ~start passes with
      | Error e -> Error e
      | Ok () -> (
          match
            Pass.run_pipeline_checked ~verify_each:true ~dump_policy:No_dump
              passes m
          with
          | Ok r -> Ok r.Pass.modul
          | Error f ->
              Error
                (Fmt.str "pass %s: %s" f.Pass.failed_pass
                   f.Pass.diag.Pass.Diag.message)))

(* Output slot count of a bufferized LoSPN kernel: columns of the last
   (output) memref parameter. *)
let out_cols_of_lospn (m : Ir.modul) =
  match
    List.find_opt
      (fun (o : Ir.op) -> o.Ir.name = Spnc_lospn.Ops.kernel_name)
      m.Ir.mops
  with
  | Some kernel -> (
      match List.rev (Option.get (Ir.entry_block kernel)).Ir.bargs with
      | last :: _ -> (
          match last.Ir.vty with
          | Types.MemRef ([ _; Some c ], _) -> c
          | _ -> 1)
      | [] -> 1)
  | None -> 1

(** Slot-0 reference evaluation of a bufferized LoSPN module. *)
let eval_interp (lb : Ir.modul) (p : Smith.program) :
    (float array, string) result =
  match
    Interp.run_kernel lb ~inputs:[ Smith.flat_data p ] ~rows:p.Smith.rows
  with
  | out -> Ok (Array.sub out 0 p.Smith.rows)
  | exception Interp.Runtime_error e -> Error ("interp: " ^ e)
  | exception Invalid_argument e -> Error ("interp invalid_argument: " ^ e)

(* Lower a bufferized LoSPN module to Lir at one -O level. *)
let lower_lir ?(cpu_options = Spnc_cpu.Lower_cpu.scalar_options) ~level lb :
    (Spnc_cpu.Lir.modul, string) result =
  try
    let cir = Spnc_cpu.Lower_cpu.run ~options:cpu_options lb in
    let lir = Spnc_cpu.Isel.run cir ~entry:"spn_kernel" in
    Ok (Optimizer.run level lir)
  with
  | Spnc_cpu.Isel.Unsupported e -> Error ("isel unsupported: " ^ e)
  | Invalid_argument e -> Error ("lowering invalid_argument: " ^ e)
  | Failure e -> Error ("lowering failure: " ^ e)

(** One engine execution: slot-0 results, or a trap class. *)
let eval_cpu ?pool ~engine ~threads ~out_cols (lir : Spnc_cpu.Lir.modul)
    (p : Smith.program) : (float array, string) result =
  try
    let ex =
      Exec.load ~batch_size:p.Smith.batch_size ~threads ~engine ?pool
        ~out_cols lir
    in
    let out =
      Fun.protect
        ~finally:(fun () -> Exec.shutdown ex)
        (fun () -> Exec.execute_rows ex p.Smith.data)
    in
    Ok out
  with
  | Spnc_cpu.Vm.Trap e -> Error ("trap: " ^ e)
  | Exec.Chunk_error ce -> Error ("chunk: " ^ ce.Exec.message)
  | Invalid_argument e -> Error ("exec invalid_argument: " ^ e)

(* -- The differential check -------------------------------------------------- *)

let opt_suffix =
  String.concat "," Pipelines.default_lospn_opt_order
  ^ ",lospn-bufferize,lospn-buffer-opt"

let baseline_pipeline = "lower-to-lospn," ^ opt_suffix
let levels = Optimizer.[ O0; O1; O2; O3 ]

let space_flag (p : Smith.program) =
  match p.Smith.space with
  | Spnc_lospn.Lower_hispn.Auto -> "auto"
  | Spnc_lospn.Lower_hispn.Force_linear -> "linear"
  | Spnc_lospn.Lower_hispn.Force_log -> "log"

(* The HiSPN→LoSPN lowering options come from the program (space draw);
   the textual "lower-to-lospn" pass uses defaults, so the harness runs
   the lowering itself for the space-varying paths and uses the textual
   pipeline for everything after.  To keep both worlds in one code path
   we re-lower with explicit options, then run the post-lowering
   pipeline suffix textually. *)
let lower_with_space (p : Smith.program) (m : Ir.modul) :
    (Ir.modul, string) result =
  try
    Ok
      (Spnc_lospn.Lower_hispn.run
         ~options:
           {
             Spnc_lospn.Lower_hispn.space = p.Smith.space;
             base_type = Types.F32;
             kernel_name = "spn_kernel";
           }
         m)
  with
  | Invalid_argument e -> Error ("lower-to-lospn invalid_argument: " ^ e)
  | Failure e -> Error ("lower-to-lospn failure: " ^ e)

(* A post-lowering pipeline suffix, starting at the "lospn" stage. *)
let run_suffix = run_pipeline ~start:"lospn"

let ( let* ) = Result.bind

let rec each f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      each f rest

(* A failed compile step, labelled with the pipeline under test. *)
let step pipeline r =
  Result.map_error (fun detail -> { check = "pipeline"; pipeline; detail }) r

(* One comparison against the differential core. *)
let agree tier check pipeline ~reference out =
  match Fuzz.compare tier ~reference out with
  | None -> Ok ()
  | Some detail -> Error { check; pipeline; detail }

(** [check_program ?config p] — the full differential check; [None] when
    every invariant holds.  Deterministic: the ordering draws derive
    from the program's own (seed, id). *)
let check_program ?(config = default_config) (p : Smith.program) :
    failure option =
  let fail check detail = Error { check; pipeline = "-"; detail } in
  let rng =
    (* independent stream from the generator's: offset the case id *)
    Rng.create ~seed:((p.Smith.seed * 7_368_787) + p.Smith.id + 1)
  in
  let tol = Fuzz.Tol config.tol in
  let checked =
    (* 1. verifier *)
    let* () =
      match Verifier.verify p.Smith.modul with
      | [] -> Ok ()
      | errs -> fail "verify" (Verifier.errors_to_string errs)
    in
    (* 2. printer/parser round-trip: print, parse, print again — the two
       texts must be byte-identical *)
    let printed = Printer.modul_to_string p.Smith.modul in
    let* reparsed =
      match Parser.modul_of_string printed with
      | m -> Ok m
      | exception Parser.Error e -> fail "roundtrip" ("parse: " ^ e)
      | exception Lexer.Error e -> fail "roundtrip" ("lex: " ^ e)
    in
    let* () =
      if String.equal printed (Printer.modul_to_string reparsed) then Ok ()
      else fail "roundtrip" "reprinted IR differs from first print"
    in
    (* 3. baseline lowering (honouring the program's space draw) and
       reference evaluation *)
    let* lo =
      step
        ("lower-to-lospn space=" ^ space_flag p)
        (lower_with_space p p.Smith.modul)
    in
    let* lb0 = step opt_suffix (run_suffix ~pipeline:opt_suffix lo) in
    let reference = eval_interp lb0 p in
    let out_cols = out_cols_of_lospn lb0 in
    let pool =
      if config.threads > 1 then Some (Pool.global ~threads:config.threads)
      else None
    in
    (* 4. -O0..-O3 × VM/JIT × threads on the baseline: bit-identical to
       the level's VM single-thread run, which is within tolerance of
       the reference *)
    let* () =
      levels
      |> each (fun level ->
             let lstr = Optimizer.level_to_string level in
             let at = Printf.sprintf "%s %s" baseline_pipeline lstr in
             let* lir =
               step
                 (Printf.sprintf "%s,%s" baseline_pipeline lstr)
                 (lower_lir ~level lb0)
             in
             let base =
               eval_cpu ~engine:Spnc_cpu.Jit.Vm ~threads:1 ~out_cols lir p
             in
             let* () =
               [
                 ("jit-t1", Spnc_cpu.Jit.Jit, 1);
                 ("vm-t2", Spnc_cpu.Jit.Vm, config.threads);
                 ("jit-t2", Spnc_cpu.Jit.Jit, config.threads);
               ]
               |> each (fun (vname, engine, threads) ->
                      agree Fuzz.Exact "bit-identity"
                        (Printf.sprintf "%s vm-t1-vs-%s" at vname)
                        ~reference:base
                        (eval_cpu ?pool ~engine ~threads ~out_cols lir p))
             in
             agree tol "reference" (at ^ " vm-t1") ~reference base)
    in
    (* 5. randomized legal pass orderings: the interp result stays within
       tolerance of the reference, and one seed-chosen level is
       VM-vs-JIT bit-identical *)
    List.init config.orderings Fun.id
    |> each (fun _ ->
           let pl = Passorder.random_pipeline rng in
           let pstr = Passorder.pipeline_to_string pl in
           (* the first element is lower-to-lospn; run the suffix on the
              space-honouring lowering so the ordering varies while the
              datatype decision stays the program's own *)
           let* lbk =
             step pstr (run_suffix ~pipeline:(String.concat "," (List.tl pl)) lo)
           in
           let* () =
             agree tol "ordering-divergence" pstr ~reference (eval_interp lbk p)
           in
           let level = Rng.choose rng levels in
           let lstr = Optimizer.level_to_string level in
           let out_cols = out_cols_of_lospn lbk in
           let* lir =
             step (Printf.sprintf "%s,%s" pstr lstr) (lower_lir ~level lbk)
           in
           let run engine = eval_cpu ~engine ~threads:1 ~out_cols lir p in
           agree Fuzz.Exact "bit-identity"
             (Printf.sprintf "%s %s vm-vs-jit" pstr lstr)
             ~reference:(run Spnc_cpu.Jit.Vm) (run Spnc_cpu.Jit.Jit))
  in
  Result.fold ~ok:(fun () -> None) ~error:Option.some checked

(** [check_forced ?config ~pipeline p] — run [p] through one exact
    textual pipeline and require its interp result to match the
    baseline pipeline's. *)
let check_forced ?(config = default_config) ~pipeline (p : Smith.program) :
    failure option =
  let checked =
    let* forced = step pipeline (run_pipeline ~pipeline p.Smith.modul) in
    let* base =
      step baseline_pipeline
        (run_pipeline ~pipeline:baseline_pipeline p.Smith.modul)
    in
    agree (Fuzz.Tol config.tol) "ordering-divergence" pipeline
      ~reference:(eval_interp base p) (eval_interp forced p)
  in
  Result.fold ~ok:(fun () -> None) ~error:Option.some checked

(* -- Pass-ordering explorer -------------------------------------------------- *)

let est_cycles (profile : Spnc_cpu.Profile.t) : float =
  List.fold_left
    (fun acc (c : Spnc_cpu.Profile.cell) ->
      acc +. (float_of_int (Atomic.get c.Spnc_cpu.Profile.count) *. c.Spnc_cpu.Profile.cycles))
    0.0
    (Spnc_cpu.Profile.cells profile)

(* Score one opt-stage ordering over one program: opt-stage seconds and
   surviving ops, then exact profiled cycles of an -O3 VM run; outputs
   are compared (bit-exactly) against the supplied baseline outputs. *)
let score_one ~(order : string list) ~(baseline_out : float array option)
    (p : Smith.program) :
    (float * int * float * float array option * bool, string) result =
  let ( let* ) = Result.bind in
  let* lo = lower_with_space p p.Smith.modul in
  let t0 = Unix.gettimeofday () in
  let* lo =
    run_suffix ~pipeline:(Passorder.order_to_string order) lo
  in
  let dt = Unix.gettimeofday () -. t0 in
  let ops = Ir.count_ops (fun _ -> true) lo in
  let* lb = run_suffix ~pipeline:"lospn-bufferize,lospn-buffer-opt" lo in
  let out_cols = out_cols_of_lospn lb in
  let* lir = lower_lir ~level:Optimizer.O3 lb in
  let profile = Spnc_cpu.Profile.create () in
  let n = p.Smith.rows in
  let input =
    Spnc_cpu.Vm.of_flat (Smith.flat_data p) ~rows:n ~cols:p.Smith.num_features
  in
  let out = Spnc_cpu.Vm.buffer ~rows:n ~cols:out_cols in
  match Spnc_cpu.Vm.run_profiled lir profile ~buffers:[ input; out ] with
  | exception Spnc_cpu.Vm.Trap e -> Error ("trap: " ^ e)
  | () ->
      let slot0 = Array.sub out.Spnc_cpu.Vm.data 0 n in
      let bit_ok =
        match baseline_out with
        | None -> true
        | Some b -> Fuzz.compare Fuzz.Exact ~reference:(Ok b) (Ok slot0) = None
      in
      Ok (dt, ops, est_cycles profile, Some slot0, bit_ok)

(** [explore ~programs ~orders] — score each ordering over the corpus
    (skipping programs whose baseline run itself fails); the first
    ordering in [orders] is the bit-identity baseline. *)
let explore ~(programs : Smith.program list)
    ~(orders : string list list) : Passorder.score list =
  match orders with
  | [] -> []
  | base_order :: _ ->
      (* per-program baseline outputs, under the first (default) order *)
      let baselines =
        List.map
          (fun p ->
            match score_one ~order:base_order ~baseline_out:None p with
            | Ok (_, _, _, out, _) -> (p, out)
            | Error _ -> (p, None))
          programs
      in
      List.map
        (fun order ->
          let programs_scored = ref 0 in
          let total_s = ref 0.0 in
          let total_ops = ref 0 in
          let total_cycles = ref 0.0 in
          let bit_identical = ref true in
          List.iter
            (fun (p, baseline_out) ->
              match baseline_out with
              | None -> () (* baseline itself failed; skip this program *)
              | Some _ -> (
                  match score_one ~order ~baseline_out p with
                  | Ok (dt, ops, cycles, _, bit_ok) ->
                      incr programs_scored;
                      total_s := !total_s +. dt;
                      total_ops := !total_ops + ops;
                      total_cycles := !total_cycles +. cycles;
                      if not bit_ok then bit_identical := false
                  | Error _ -> bit_identical := false))
            baselines;
          {
            Passorder.order;
            programs = !programs_scored;
            final_ops = !total_ops;
            compile_s = !total_s;
            est_cycles = !total_cycles;
            bit_identical = !bit_identical;
          })
        orders
