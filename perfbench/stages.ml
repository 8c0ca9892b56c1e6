(** Per-layer view of one CPU compile: the pipeline of
    [Spnc.Compiler.compile], driven stage by stage through each layer's
    public entry point with a span around every call, plus the size of
    the IR each stage leaves behind.

    The replay runs the same calls in the same order with the same
    options as [Compiler.compile] (the benchmark checks that both emit the
    same Lir kernel).  A separate [Compiler.compile] of the same model
    gives the wall time; its remainder over that compile's own stage
    ledger ([compiled.timings]) is the work it does outside the stages:
    validation, cache key, kernel cache store, statistics. *)

open Spnc_mlir
module Options = Spnc.Options

(** Stage metric names, in pipeline order. *)
let stage_names =
  [
    "hispn.translate_s";
    "hispn.canonicalize_s";
    "lospn.lower_s";
    "lospn.opt_s";
    "lospn.partition_s";
    "lospn.bufferize_s";
    "cpu.lower_s";
    "cpu.isel_s";
    "cpu.opt_s";
    "cpu.regalloc_s";
  ]

type t = {
  seconds : (string * float) list;  (** per stage, in {!stage_names} order *)
  jit_build_s : float;
  counts : (string * int) list;  (** IR sizes *)
}

(** [replay ~options model] — one cold compile, stage by stage; returns
    its measurements and the Lir kernel it emitted. *)
let replay ~(options : Options.t) (model : Spnc_spn.Model.t) : t * Spnc_cpu.Lir.modul =
  let acc = ref [] in
  let stage name f =
    let r, s = Spans.timed name f in
    acc := (name, s) :: !acc;
    r
  in
  let query =
    {
      Spnc_hispn.From_model.batch_size = options.Options.batch_size;
      input_type = Types.F32;
      support_marginal = options.Options.support_marginal;
    }
  in
  let hi =
    stage "hispn.translate_s" (fun () ->
        Spnc_hispn.From_model.translate ~query model)
  in
  let hi = stage "hispn.canonicalize_s" (fun () -> Canonicalize.run hi) in
  let lo =
    stage "lospn.lower_s" (fun () ->
        Spnc_lospn.Lower_hispn.run
          ~options:
            {
              Spnc_lospn.Lower_hispn.space = options.Options.space;
              base_type = options.Options.base_type;
              kernel_name = "spn_kernel";
            }
          hi)
  in
  let lo =
    stage "lospn.opt_s" (fun () ->
        match
          Spnc.Pipelines.lospn_opt_passes
            (Option.value ~default:Spnc.Pipelines.default_lospn_opt_order
               options.Options.lospn_opt_order)
        with
        | Error e -> invalid_arg e
        | Ok passes -> List.fold_left (fun lo (_, run) -> run lo) lo passes)
  in
  let lospn_ops = Ir.count_ops (fun _ -> true) lo in
  let lo =
    stage "lospn.partition_s" (fun () ->
        match options.Options.max_partition_size with
        | None -> lo
        | Some size ->
            Spnc_lospn.Partition_pass.run
              ~options:
                {
                  Spnc_lospn.Partition_pass.default_options with
                  max_partition_size = size;
                }
              lo)
  in
  let lo =
    stage "lospn.bufferize_s" (fun () ->
        Spnc_lospn.Buffer_opt.run (Spnc_lospn.Bufferize.run lo))
  in
  let tasks = Ir.count_ops (fun o -> o.Ir.name = Spnc_lospn.Ops.task_name) lo in
  let cir =
    stage "cpu.lower_s" (fun () ->
        Spnc_cpu.Lower_cpu.run ~options:(Options.cpu_lower_options options) lo)
  in
  let lir = stage "cpu.isel_s" (fun () -> Spnc_cpu.Isel.run cir ~entry:"spn_kernel") in
  let isel_instrs = Spnc_cpu.Lir.module_size lir in
  let lir =
    stage "cpu.opt_s" (fun () -> Spnc_cpu.Optimizer.run options.Options.opt_level lir)
  in
  let ra = stage "cpu.regalloc_s" (fun () -> Spnc_cpu.Regalloc.allocate_module lir) in
  let _kernel, jit_build_s = Spans.timed "cpu.jit_build_s" (fun () -> Spnc_cpu.Jit.compile lir) in
  let spills = Array.fold_left (fun a s -> a + Spnc_cpu.Regalloc.total_spills s) 0 ra in
  let pressure =
    Array.fold_left
      (fun a (s : Spnc_cpu.Regalloc.stats) ->
        max a (max s.max_pressure_f s.max_pressure_v))
      0 ra
  in
  let counts =
    [
      ("lospn.ops", lospn_ops);
      ("lospn.tasks", tasks);
      ("cir.ops", Ir.count_ops (fun _ -> true) cir);
      ("lir.instrs.isel", isel_instrs);
      ("lir.instrs.opt", Spnc_cpu.Lir.module_size lir);
      ("regalloc.spills", spills);
      ("regalloc.max_pressure", pressure);
    ]
  in
  ({ seconds = List.rev !acc; jit_build_s; counts }, lir)

(** The Lir kernel of a compiled CPU artifact. *)
let artifact_lir (c : Spnc.Compiler.compiled) =
  match c.Spnc.Compiler.artifact with
  | Spnc.Compiler.Cpu_kernel { lir; _ } -> lir
  | Spnc.Compiler.Gpu_kernel _ -> invalid_arg "not a CPU artifact"

(** Count the check that the replay emitted exactly the kernel
    [Compiler.compile] emitted. *)
let check_same_kernel (r : Report.t) lir (c : Spnc.Compiler.compiled) =
  Report.check r
    (Marshal.to_string lir [] = Marshal.to_string (artifact_lir c) [])
    "stage replay emits the kernel Compiler.compile emits"

(** One timed [Compiler.compile]: its wall time and the sum of its own
    stage ledger. *)
type wall = { wall_s : float; ledger_s : float }

(** [timed_compile ~options model] — [Compiler.compile] with its wall
    time. *)
let timed_compile ~options model =
  let c, wall_s = Spans.timed "core.compile" (fun () -> Spnc.Compiler.compile ~options model) in
  (c, { wall_s; ledger_s = Spnc.Compiler.compile_seconds c })

(** The replay's stage sum and the compile's own ledger time the same
    stages, in separate runs; they must agree within this factor. *)
let ledger_margin = 2.0

(** [report r ~replays ~walls] — per-layer compile metrics over several
    compiles: the mean time of each replayed stage, the mean
    [Compiler.compile] wall time and its remainder over that compile's
    own stage ledger (so ledger plus remainder is the wall time), and the
    median IR sizes.  Checks that the replayed stage sum and the ledger
    agree within {!ledger_margin}. *)
let report (r : Report.t) ~(replays : t list) ~(walls : wall list) =
  let mean xs = Stats.mean (Array.of_list xs) in
  let stage_means =
    List.map
      (fun name -> (name, mean (List.map (fun t -> List.assoc name t.seconds) replays)))
      stage_names
  in
  List.iter (fun (name, s) -> Report.layer r name "s" s) stage_means;
  let stage_sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 stage_means in
  let ledger = mean (List.map (fun w -> w.ledger_s) walls) in
  Report.layer r "compile.wall_s" "s" (mean (List.map (fun w -> w.wall_s) walls));
  Report.layer r "compile.ledger_s" "s" ledger;
  Report.layer r "compile.remainder_s" "s" (mean (List.map (fun w -> w.wall_s -. w.ledger_s) walls));
  Report.check r
    (stage_sum <= ledger *. ledger_margin && ledger <= stage_sum *. ledger_margin)
    (Printf.sprintf "replayed stages %.3f s vs Compiler.compile's ledger %.3f s" stage_sum ledger);
  Report.layer r "cpu.jit_build_s" "s" (mean (List.map (fun t -> t.jit_build_s) replays));
  match replays with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (name, _) ->
          let xs =
            List.map (fun t -> float_of_int (List.assoc name t.counts)) replays
          in
          Report.layer r name "count" (Stats.median (Array.of_list xs)))
        first.counts

(** [measure r builds] — for every [(options, model)]: a stage replay
    and an uncached [Compiler.compile] of the same model, then
    {!report}. *)
let measure (r : Report.t) builds =
  let replays, walls =
    List.split
      (List.map
         (fun ((options : Options.t), model) ->
           let t, lir = replay ~options model in
           let c, wall = timed_compile ~options:{ options with use_kernel_cache = false } model in
           check_same_kernel r lir c;
           (t, wall))
         builds)
  in
  report r ~replays ~walls
