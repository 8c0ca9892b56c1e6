(** spnc_fuzz — differential fuzzing driver (docs/FUZZING.md,
    docs/RESILIENCE.md).

    Four generators feed one differential core ([Spnc_resilience.Fuzz]:
    outcome barrier, comparator, shrink loop, reproducer bundle):

    - default: seeded random SPNs, where the reference evaluator is
      cross-checked against the bufferized LoSPN interpreter, the CPU
      backend at every [-O] level on both engines (reference VM and
      closure-compiled JIT) and the GPU simulator, and the two CPU
      engines must agree {e bit-exactly} across [-O0..-O3] and worker
      thread counts 1/2/4;
    - [--sched-stress]: additionally random batch × pool × scheduler
      draws and GPU stream counts, bit-identical to single-threaded;
    - [--chaos]: deterministic fault-injection schedules, bit-identical
      to the clean run or one clean structured diagnostic;
    - [--smith]: grammar-generated HiSPN programs through every level,
      engine and random legal pass ordering.

    Every finding prints a FAIL line and the [repro:] command replaying
    its case alone ([--case]), is shrunk, and is written as a reproducer
    bundle.  Exit code is nonzero iff any case failed, so the run gates
    CI.

    {v
    spnc_fuzz --seed 7 --cases 200
    spnc_fuzz --seed 7 --cases 50 --inject-bad-peephole   # must fail
    v} *)

open Cmdliner
module Fuzz = Spnc_resilience.Fuzz
module Diag = Spnc_resilience.Diag
module Smith = Spnc_smith.Smith
module Harness = Spnc_smith.Harness
module Shrink = Spnc_smith.Shrink
module Passorder = Spnc_smith.Passorder

(* sysexits, matching the spnc CLI convention (README exit table):
   65 EX_DATAERR for failures the harness FOUND (miscompiles, divergence,
   illegal orderings), 70 EX_SOFTWARE for the harness itself crashing. *)
let exit_ok = 0
let exit_data = 65
let exit_internal = 70

(* -- Oracles ------------------------------------------------------------------ *)

let base_options ~marginal threads =
  {
    Spnc.Options.default with
    Spnc.Options.threads;
    batch_size = 8;
    (* NaN evidence means marginalization: the kernels must be compiled
       with marginal support or they diverge from the reference by design *)
    support_marginal = marginal;
  }

(* Run the bufferized LoSPN module of a compile through the reference
   interpreter; converts linear-space kernels to log on the way out. *)
let lospn_interp_eval ~marginal threads (model : Spnc_spn.Model.t)
    (data : float array array) : float array =
  let c = Spnc.Compiler.compile ~options:(base_options ~marginal threads) model in
  let rows = Array.length data in
  let flat = Array.concat (Array.to_list data) in
  let out = Spnc_lospn.Interp.run_kernel c.Spnc.Compiler.lospn ~inputs:[ flat ] ~rows in
  let slot0 = Array.sub out 0 rows in
  if c.Spnc.Compiler.datatype.Spnc_lospn.Lower_hispn.use_log_space then slot0
  else Array.map log slot0

let cpu_eval ~marginal ~engine threads level (model : Spnc_spn.Model.t)
    (data : float array array) : float array =
  let options =
    {
      (base_options ~marginal threads) with
      Spnc.Options.opt_level = level;
      engine;
    }
  in
  Spnc.Compiler.execute (Spnc.Compiler.compile ~options model) data

let gpu_options ~marginal streams =
  {
    (base_options ~marginal 1) with
    Spnc.Options.target = Spnc.Options.Gpu;
    batch_size = 16;
    block_size = 8;
    gpu_fallback = false;
    streams;
  }

let gpu_eval ~marginal (model : Spnc_spn.Model.t) (data : float array array) :
    float array =
  Spnc.Compiler.execute
    (Spnc.Compiler.compile ~options:(gpu_options ~marginal 1) model)
    data

let oracles ~marginal ~threads ~with_gpu : Fuzz.oracle list =
  let vm l = cpu_eval ~marginal ~engine:Spnc_cpu.Jit.Vm threads l in
  let jit l = cpu_eval ~marginal ~engine:Spnc_cpu.Jit.Jit threads l in
  [
    { Fuzz.oracle_name = "lospn-interp"; eval = lospn_interp_eval ~marginal threads };
    { Fuzz.oracle_name = "vm-O0"; eval = vm Spnc_cpu.Optimizer.O0 };
    { Fuzz.oracle_name = "vm-O1"; eval = vm Spnc_cpu.Optimizer.O1 };
    { Fuzz.oracle_name = "vm-O2"; eval = vm Spnc_cpu.Optimizer.O2 };
    { Fuzz.oracle_name = "vm-O3"; eval = vm Spnc_cpu.Optimizer.O3 };
    { Fuzz.oracle_name = "jit-O0"; eval = jit Spnc_cpu.Optimizer.O0 };
    { Fuzz.oracle_name = "jit-O1"; eval = jit Spnc_cpu.Optimizer.O1 };
    { Fuzz.oracle_name = "jit-O2"; eval = jit Spnc_cpu.Optimizer.O2 };
    { Fuzz.oracle_name = "jit-O3"; eval = jit Spnc_cpu.Optimizer.O3 };
  ]
  @
  if with_gpu then [ { Fuzz.oracle_name = "gpu-sim"; eval = gpu_eval ~marginal } ]
  else []

(* -- Cross-engine bit-identity ------------------------------------------------- *)

(* The tolerance-based oracles above catch algorithmic divergence; this
   check is stricter: at every -O level, the JIT engine and the VM must
   produce EXACTLY the same bits as single-threaded VM execution,
   regardless of the worker-domain count (both trapping agrees: the
   engines must also agree on {e rejecting} malformed kernels). *)
let bit_identity_check ~marginal (model : Spnc_spn.Model.t)
    (data : float array array) : string option =
  let eval engine threads level =
    Fuzz.capture (fun () -> cpu_eval ~marginal ~engine threads level model data)
  in
  let describe engine threads level =
    Printf.sprintf "%s-%s/threads=%d"
      (Spnc_cpu.Jit.engine_to_string engine)
      (Spnc_cpu.Optimizer.level_to_string level)
      threads
  in
  Spnc_cpu.Optimizer.[ O0; O1; O2; O3 ]
  |> List.find_map (fun level ->
         let base = eval Spnc_cpu.Jit.Vm 1 level in
         Spnc_cpu.Jit.[ (Vm, 2); (Vm, 4); (Jit, 1); (Jit, 2); (Jit, 4) ]
         |> List.find_map (fun (engine, threads) ->
                Fuzz.compare Fuzz.Exact ~reference:base
                  (eval engine threads level)
                |> Option.map
                     (Printf.sprintf "bit-identity: %s against %s: %s"
                        (describe engine threads level)
                        (describe Spnc_cpu.Jit.Vm 1 level))))

(* -- Scheduler stress ---------------------------------------------------------- *)

(* Streaming-layer stress (docs/PERFORMANCE.md §5/§6): random batch sizes
   × pool sizes × static-vs-stealing schedulers must be bit-identical to
   the single-threaded reference, and the GPU stream-pipelined schedule
   at 2/4 streams must be bit-identical to the monolithic one.  [salt]
   keeps the drawn configurations deterministic per (seed, case) yet
   different across cases; the check is self-contained so the shrinker
   can replay it. *)
let sched_stress_check ~marginal ~with_gpu ~salt (model : Spnc_spn.Model.t)
    (data : float array array) : string option =
  let rng = Spnc_data.Rng.create ~seed:salt in
  let eval options =
    Fuzz.capture (fun () ->
        Spnc.Compiler.execute (Spnc.Compiler.compile ~options model) data)
  in
  let compare_to ~what reference options =
    Fuzz.compare Fuzz.Exact ~reference (eval options)
    |> Option.map (Printf.sprintf "scheduler stress: %s: %s" what)
  in
  let cpu_reference = eval (base_options ~marginal 1) in
  let cpu_failure =
    List.find_map
      (fun _ ->
        let batch = Spnc_data.Rng.choose rng [ 1; 3; 5; 8; 16; 32 ] in
        let threads = Spnc_data.Rng.choose rng [ 2; 3; 4; 8 ] in
        let sched =
          Spnc_data.Rng.choose rng Spnc.Options.[ Static; Stealing ]
        in
        compare_to
          ~what:
            (Printf.sprintf "batch=%d/threads=%d/sched=%s" batch threads
               (Spnc.Options.sched_to_string sched))
          cpu_reference
          { (base_options ~marginal threads) with
            Spnc.Options.batch_size = batch; sched })
      [ 1; 2; 3; 4 ]
  in
  match cpu_failure with
  | Some _ -> cpu_failure
  | None when not with_gpu -> None
  | None ->
      let gpu_reference = eval (gpu_options ~marginal 1) in
      List.find_map
        (fun streams ->
          compare_to
            ~what:(Printf.sprintf "gpu streams=%d against 1" streams)
            gpu_reference
            (gpu_options ~marginal streams))
        [ 2; 4 ]

(* A check's finding, labelled with the configuration under test. *)
let labelled pipeline check s rows =
  Option.map (fun diag -> (pipeline, diag)) (check s rows)

(* -- Model mode ---------------------------------------------------------------- *)

let run_models ~check_case ~seed ~first ~last ~rows ~target_ops ~max_depth ~tol
    ~threads ~no_gpu ~sched_stress ~marginal_fraction ~verbose =
  let config =
    {
      Fuzz.default_config with
      Fuzz.rows;
      target_ops;
      max_depth;
      marginal_fraction;
    }
  in
  let marginal = marginal_fraction > 0.0 in
  let oracles = oracles ~marginal ~threads ~with_gpu:(not no_gpu) in
  let failures = ref 0 in
  let t0 = Unix.gettimeofday () in
  for id = first to last do
    let case = Fuzz.gen_case ~config ~seed ~id () in
    if verbose then
      Fmt.epr "case %d: %d nodes, %d rows@." id
        (Spnc_spn.Model.node_count case.Fuzz.model)
        (Array.length case.Fuzz.data);
    let check pipeline c =
      if
        check_case Fuzz.model_subject ~tag:"FAIL" ~id ~shrink:true
          (labelled pipeline c)
          case.Fuzz.model case.Fuzz.data
      then incr failures
    in
    check "(reference vs lospn-interp vs vm/jit-O0..O3 vs gpu-sim)"
      (Fuzz.check ~tol ~oracles);
    (* strict engine cross-check: VM and JIT must agree bit-for-bit at
       every -O level and thread count (threads 1/2/4) *)
    check "(vm-O* threads=1 vs vm/jit-O* threads=1/2/4, bit-exact)"
      (bit_identity_check ~marginal);
    (* streaming-layer stress: random batch × pool size × scheduler and
       GPU streams 1/2/4, all bit-identical to single-threaded *)
    if sched_stress then
      check "(scheduler stress vs single-threaded, bit-exact)"
        (sched_stress_check ~marginal ~with_gpu:(not no_gpu)
           ~salt:((seed * 1_000_003) + id))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let k = Spnc.Compiler.cache_counters () in
  Fmt.pr
    "spnc_fuzz: %d cases, %d failure(s), %d oracle(s) + engine \
     bit-identity%s, %.1fs (kernel cache: %d hit(s), %d miss(es), %d full \
     compile(s))@."
    (last - first + 1) !failures (List.length oracles)
    (if sched_stress then " + scheduler stress" else "")
    dt k.Spnc.Compiler.hits k.Spnc.Compiler.misses k.Spnc.Compiler.full_compiles;
  !failures

(* -- Chaos mode ---------------------------------------------------------------- *)

module Fault = Spnc_resilience.Fault

(* Everything the resilience layer is allowed to surface under injected
   faults.  Anything else escaping a run is a crash — the chaos harness
   exists to prove this set is closed. *)
let is_clean_diagnostic = function
  | Spnc_resilience.Diag.Diag_error _ | Spnc_resilience.Guard.Guard_failure _
  | Fault.Transient _
  | Spnc_runtime.Exec.Chunk_error _ | Spnc_runtime.Exec.Deadline_exceeded _
  | Spnc_mlir.Pass.Pipeline_error _ | Spnc_spn.Validate.Invalid _ ->
      true
  | _ -> false

(* The fault families a chaos schedule may arm (prefix-matched). *)
let chaos_families =
  [
    "kcache.";
    "pool.chunk_fail";
    "pool.chunk_stall";
    "pool.round_stall";
    "jit.build_fail";
    "gpu.build_fail";
    "gpu.launch_fail";
    "repro.write_fail";
  ]

(* Outputs plus whether the GPU->CPU fallback fired, or the exception
   (the clean-diagnostic set needs the exception itself). *)
let chaos_eval options model data =
  Fuzz.protect (fun () ->
      let c = Spnc.Compiler.compile ~options model in
      (Spnc.Compiler.execute c data, c.Spnc.Compiler.diags <> []))

let bit_exact a b = Fuzz.compare Fuzz.Exact ~reference:(Ok a) (Ok b) = None

(* One chaos case: run a workload clean, then replay it bit-for-bit under
   a deterministic fault schedule.  The run must either agree with the
   clean output EXACTLY or surface one clean structured diagnostic —
   wrong bits are "silent corruption", an unlisted exception is a crash. *)
let run_chaos ~check_case ~seed ~first ~last ~rows ~no_gpu ~verbose =
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spnc-chaos-kcache-%d-%d" seed (Unix.getpid ()))
  in
  let failures = ref 0 in
  let fault_total = ref 0 in
  let t0 = Unix.gettimeofday () in
  for id = first to last do
    let rng = Spnc_data.Rng.create ~seed:((seed * 7_368_787) + id) in
    (* workload: alternate the paper's speaker-ID shape and the fuzzer's
       adversarial random SPNs *)
    let model, data =
      if id mod 2 = 0 then begin
        let m =
          Spnc_spn.Random_spn.generate_sized rng
            Spnc_spn.Random_spn.speaker_id_config ~min_ops:200
        in
        let d =
          Array.init rows (fun _ ->
              Array.init m.Spnc_spn.Model.num_features (fun _ ->
                  Spnc_data.Rng.range rng (-3.0) 3.0))
        in
        (m, d)
      end
      else
        let case =
          Fuzz.gen_case
            ~config:{ Fuzz.default_config with Fuzz.rows }
            ~seed:(seed + 1) ~id ()
        in
        (case.Fuzz.model, case.Fuzz.data)
    in
    (* the randomized dimensions: engine x threads x target x schedule *)
    let threads = Spnc_data.Rng.choose rng [ 1; 2; 4 ] in
    let engine = Spnc_data.Rng.choose rng Spnc_cpu.Jit.[ Vm; Jit ] in
    let use_gpu = (not no_gpu) && Spnc_data.Rng.range rng 0.0 1.0 < 0.25 in
    let gpu_fallback = Spnc_data.Rng.range rng 0.0 1.0 < 0.5 in
    let deadline_ms =
      (* mostly none; sometimes generous (must not fire by itself);
         occasionally absurdly tight (must fire as a clean timeout) *)
      let p = Spnc_data.Rng.range rng 0.0 1.0 in
      if p < 0.70 then None else if p < 0.95 then Some 30_000.0 else Some 0.001
    in
    let options =
      {
        Spnc.Options.default with
        Spnc.Options.threads;
        engine;
        batch_size = 8;
        target = (if use_gpu then Spnc.Options.Gpu else Spnc.Options.Cpu);
        gpu_fallback;
        kernel_cache_dir = Some cache_dir;
        kernel_cache_mb = 1;
        deadline_ms;
        exec_retries = Spnc_data.Rng.choose rng [ 0; 2; 4 ];
      }
    in
    let rate = Spnc_data.Rng.range rng 0.02 0.35 in
    let chaos_seed = (seed * 1_000_003) + id in
    let points =
      (* half the cases arm everything; the rest arm a random subset *)
      if Spnc_data.Rng.range rng 0.0 1.0 < 0.5 then None
      else
        Some
          (List.filter
             (fun _ -> Spnc_data.Rng.range rng 0.0 1.0 < 0.5)
             chaos_families)
    in
    let schedule =
      Printf.sprintf
        "chaos-seed=%d rate=%.3f points=%s threads=%d engine=%s target=%s \
         fallback=%b deadline=%s retries=%d"
        chaos_seed rate
        (match points with
        | None -> "all"
        | Some ps -> String.concat ";" ps)
        threads
        (Spnc_cpu.Jit.engine_to_string engine)
        (if use_gpu then "gpu" else "cpu")
        gpu_fallback
        (match deadline_ms with None -> "none" | Some ms -> Fmt.str "%gms" ms)
        options.Spnc.Options.exec_retries
    in
    if verbose then Fmt.epr "case %d: %s@." id schedule;
    let verdict model data =
      (* clean references, faults disarmed.  For GPU cases also compute
         the CPU reference: an injected GPU failure with fallback on
         yields a CPU artifact, whose outputs must match the CPU
         reference bit for bit — NOT the GPU one. *)
      Fault.disarm ();
      let clean = chaos_eval options model data in
      let clean_cpu_fallback =
        if use_gpu && gpu_fallback then
          Some
            (chaos_eval
               { options with Spnc.Options.target = Spnc.Options.Cpu }
               model data)
        else None
      in
      (* deterministic chaos replay: reset occurrence counters so the
         case is self-contained (same schedule + workload => same
         faults).  The memory cache is dropped so the replay recompiles
         through the disk tier — read-side corruption faults then
         exercise quarantine and the transparent recompile fallback. *)
      Spnc.Compiler.reset_kernel_cache ();
      Fault.reset_for_tests ();
      Fault.arm ?points ~seed:chaos_seed ~rate ();
      let chaotic = chaos_eval options model data in
      Fault.disarm ();
      List.iter
        (fun p -> fault_total := !fault_total + Fault.fired_count p)
        (Fault.points ());
      match (clean, chaotic) with
      | _, Error e when is_clean_diagnostic e ->
          if verbose then
            Fmt.epr "case %d: clean diagnostic (%s)@." id (Printexc.to_string e);
          None
      | _, Error e ->
          Some ("crash: unstructured exception escaped: " ^ Printexc.to_string e)
      | Error e, Ok _ ->
          (* only plausible when the clean run timed out on a tight
             deadline that the chaotic run (different scheduling) met;
             anything else means the clean run itself is broken *)
          if is_clean_diagnostic e then None
          else
            Some
              ("clean run crashed without faults armed: " ^ Printexc.to_string e)
      | Ok (c, _), Ok (v, fell_back) ->
          let reference =
            match clean_cpu_fallback with
            | Some (Ok (cpu, _)) when fell_back -> cpu
            | _ -> c
          in
          Fuzz.compare Fuzz.Exact ~reference:(Ok reference) (Ok v)
          |> Option.map (( ^ ) "silent corruption, no diagnostic: ")
    in
    if
      check_case Fuzz.model_subject ~tag:"CHAOS FAIL" ~id ~shrink:false
        (labelled schedule verdict) model data
    then incr failures
  done;
  (* recovery invariant: after every schedule ran, the cache directory
     must still be usable — a fresh process-equivalent (memory cache
     dropped) must load-or-recompile cleanly and agree with a cache-free
     compile bit-for-bit *)
  Fault.disarm ();
  (let rng = Spnc_data.Rng.create ~seed in
   let model =
     Spnc_spn.Random_spn.generate_sized rng
       Spnc_spn.Random_spn.speaker_id_config ~min_ops:200
   in
   let data =
     Array.init rows (fun _ ->
         Array.init model.Spnc_spn.Model.num_features (fun _ ->
             Spnc_data.Rng.range rng (-3.0) 3.0))
   in
   let with_cache =
     {
       Spnc.Options.default with
       Spnc.Options.kernel_cache_dir = Some cache_dir;
       kernel_cache_mb = 1;
     }
   in
   let no_cache =
     { Spnc.Options.default with Spnc.Options.use_kernel_cache = false }
   in
   Spnc.Compiler.reset_kernel_cache ();
   let first = chaos_eval with_cache model data in
   (* a fresh "process" (memory cache dropped) must now be served by the
      surviving disk tier *)
   Spnc.Compiler.reset_kernel_cache ();
   let second = chaos_eval with_cache model data in
   let disk_hits = (Spnc.Compiler.cache_counters ()).Spnc.Compiler.disk_hits in
   match (first, second, chaos_eval no_cache model data) with
   | Ok (a0, _), Ok (a, _), Ok (b, _)
     when bit_exact a0 a && bit_exact a b && disk_hits >= 1 ->
       Fmt.pr "cache recovery: OK (%d entr(ies) live, %d quarantined)@."
         (match Spnc.Kcache.open_ ~dir:cache_dir ~max_mb:1 with
         | Ok t -> List.length (Spnc.Kcache.entry_keys t)
         | Error _ -> -1)
         (match Spnc.Kcache.open_ ~dir:cache_dir ~max_mb:1 with
         | Ok t -> Spnc.Kcache.quarantined_count t
         | Error _ -> -1)
   | Ok _, Ok _, Ok _ ->
       incr failures;
       Fmt.epr
         "CHAOS FAIL: post-chaos cached compile diverged from a cache-free \
          compile (or the disk tier served no hit)@."
   | _ ->
       incr failures;
       Fmt.epr "CHAOS FAIL: post-chaos compile through the surviving cache \
                directory failed@.");
  let dt = Unix.gettimeofday () -. t0 in
  let d = Spnc.Kcache.counters () in
  Fmt.pr
    "spnc_fuzz --chaos: %d schedule(s), %d failure(s), %d injected fault(s), \
     %.1fs (disk cache: %d hit(s), %d miss(es), %d store(s), %d eviction(s), \
     %d corrupt, %d store failure(s))@."
    (last - first + 1) !failures !fault_total dt d.Spnc.Kcache.hits
    d.Spnc.Kcache.misses d.Spnc.Kcache.stores d.Spnc.Kcache.evictions
    d.Spnc.Kcache.corrupt d.Spnc.Kcache.store_failures;
  !failures

(* -- Smith mode: grammar-based pipeline fuzzing (docs/FUZZING.md) -------------- *)

let run_smith ~check_case ~seed ~first ~last ~rows ~target_ops ~max_depth ~tol
    ~orderings ~forced_order ~explore ~passorder_out ~budget_s ~corpus_dir
    ~verbose =
  (* a forced ordering is legality-gated up front: the CI canary feeds an
     intentionally mis-ordered pass pair here and asserts a loud failure *)
  match Option.map Spnc.Pipelines.validate_pipeline forced_order with
  | Some (Error e) ->
      Fmt.epr "ILLEGAL PIPELINE %S: %s@." (Option.get forced_order) e;
      1
  | _ ->
      let config =
        { Smith.default_config with Smith.rows; target_ops; max_depth }
      in
      let hconfig = { Harness.default_config with Harness.orderings; tol } in
      let failures = ref 0 in
      let programs = ref [] in
      let ran = ref 0 in
      let t0 = Unix.gettimeofday () in
      (match corpus_dir with
      | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
      | _ -> ());
      (try
         for id = first to last do
           if budget_s > 0.0 && Unix.gettimeofday () -. t0 > budget_s then
             raise Exit;
           let p = Smith.generate ~config ~seed ~id () in
           incr ran;
           if List.length !programs < 32 then programs := p :: !programs;
           (match corpus_dir with
           | Some d when id - first < 1000 ->
               let oc =
                 open_out
                   (Filename.concat d
                      (Printf.sprintf "case_s%d_c%d.mlir" seed id))
               in
               output_string oc (Spnc_mlir.Printer.modul_to_string p.Smith.modul);
               close_out oc
           | _ -> ());
           if verbose then
             Fmt.epr "case %d: %d features, %d rows, space=%s, batch=%d@." id
               p.Smith.num_features p.Smith.rows
               (match p.Smith.space with
               | Spnc_lospn.Lower_hispn.Auto -> "auto"
               | Spnc_lospn.Lower_hispn.Force_linear -> "linear"
               | Spnc_lospn.Lower_hispn.Force_log -> "log")
               p.Smith.batch_size;
           let check modul data =
             let p = { p with Smith.modul; data; rows = Array.length data } in
             (match forced_order with
             | Some pipeline -> Harness.check_forced ~config:hconfig ~pipeline p
             | None -> Harness.check_program ~config:hconfig p)
             |> Option.map (fun f ->
                    (f.Harness.pipeline, Fmt.str "%a" Harness.pp_failure f))
           in
           if
             check_case Shrink.subject ~tag:"SMITH FAIL" ~id
               ~shrink:(forced_order = None) check p.Smith.modul p.Smith.data
           then incr failures
         done
       with Exit -> ());
      (* pass-ordering exploration over a corpus sample *)
      if explore then begin
        let rng = Spnc_data.Rng.create ~seed:(seed + 997) in
        let orders = Passorder.candidate_orders ~rng ~extra:4 in
        let sample = List.rev !programs in
        let scores = Harness.explore ~programs:sample ~orders in
        Passorder.write_leaderboard ~path:passorder_out ~seed scores;
        Fmt.pr
          "pass-ordering leaderboard (%d orderings over %d programs) -> %s@."
          (List.length orders) (List.length sample) passorder_out;
        match Passorder.best scores with
        | Some s ->
            Fmt.pr "best promotable ordering: %s (%d ops, %.4fs, %.0f cycles)@."
              (Passorder.order_to_string s.Passorder.order)
              s.Passorder.final_ops s.Passorder.compile_s s.Passorder.est_cycles
        | None -> Fmt.pr "no bit-identical ordering found (nothing promotable)@."
      end;
      let dt = Unix.gettimeofday () -. t0 in
      Fmt.pr
        "spnc_fuzz --smith: %d program(s), %d failure(s), %d random legal \
         ordering(s)/case, levels O0..O3, engines vm+jit, threads 1/%d, %.1fs@."
        !ran !failures
        (match forced_order with Some _ -> 0 | None -> orderings)
        hconfig.Harness.threads dt;
      !failures

(* -- Driver ------------------------------------------------------------------- *)

let run seed cases rows target_ops max_depth tol threads no_gpu no_shrink
    sched_stress chaos marginal_fraction out_dir inject verbose smith
    smith_orderings smith_order smith_explore passorder_out budget_s case_only
    corpus_dir =
  (* The command line that replays case [id] alone, with every knob the
     mode reads. *)
  let repro id =
    let flag on name = if on then [ name ] else [] in
    let int name v = [ name; string_of_int v ] in
    let float name v =
      let s = Printf.sprintf "%g" v in
      [ name; (if float_of_string s = v then s else Printf.sprintf "%.17g" v) ]
    in
    let shape =
      int "--target-ops" target_ops
      @ int "--max-depth" max_depth
      @ float "--tol" tol
    in
    let mode, knobs =
      if smith then
        ( [ "--smith" ],
          shape
          @ int "--smith-orderings" smith_orderings
          @ Option.fold ~none:[]
              ~some:(fun o -> [ "--smith-order"; Filename.quote o ])
              smith_order )
      else if chaos then ([ "--chaos" ], flag no_gpu "--no-gpu")
      else
        ( [],
          shape @ int "--threads" threads
          @ float "--marginal-fraction" marginal_fraction
          @ flag sched_stress "--sched-stress"
          @ flag no_gpu "--no-gpu" )
    in
    String.concat " "
      ((("spnc_fuzz" :: mode) @ int "--seed" seed @ int "--case" id)
      @ int "--rows" rows @ knobs
      @ flag inject "--inject-bad-peephole")
  in
  (* The one failure path of every mode: [check] returns the
     configuration under test and the diagnostic; a finding is reported,
     shrunk against the same check, and bundled. *)
  let check_case subject ~tag ~id ~shrink check s data =
    match check s data with
    | None -> false
    | Some (pipeline, diag) ->
        let still_fails s d = check s d <> None in
        Fuzz.report ?dir:out_dir
          ?still_fails:
            (if shrink && not no_shrink then Some still_fails else None)
          subject ~tag ~seed ~id ~repro:(repro id) ~pipeline ~diag s data;
        true
  in
  let first, last =
    match case_only with Some c -> (c, c) | None -> (0, cases - 1)
  in
  if inject then Spnc_cpu.Optimizer.inject_bad_peephole := true;
  match
    Fuzz.protect (fun () ->
        if smith then
          run_smith ~check_case ~seed ~first ~last ~rows ~target_ops
            ~max_depth ~tol ~orderings:smith_orderings
            ~forced_order:smith_order ~explore:smith_explore ~passorder_out
            ~budget_s ~corpus_dir ~verbose
        else if chaos then
          run_chaos ~check_case ~seed ~first ~last ~rows:(max rows 8) ~no_gpu
            ~verbose
        else
          run_models ~check_case ~seed ~first ~last ~rows ~target_ops
            ~max_depth ~tol ~threads ~no_gpu ~sched_stress ~marginal_fraction
            ~verbose)
  with
  | Ok 0 -> exit_ok
  | Ok _ -> exit_data
  | Error e ->
      (* EX_SOFTWARE: the harness itself crashed — distinct from finding
         failures in the system under test (EX_DATAERR) *)
      Fmt.epr "spnc_fuzz: internal error: %s@.%s@." (Printexc.to_string e)
        (Printexc.get_backtrace ());
      exit_internal

let cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base RNG seed.") in
  let cases =
    Arg.(value & opt int 100 & info [ "cases"; "n" ] ~doc:"Number of random cases.")
  in
  let rows =
    Arg.(value & opt int 24 & info [ "rows" ] ~doc:"Evidence rows per case.")
  in
  let target_ops =
    Arg.(
      value & opt int 60
      & info [ "target-ops" ] ~doc:"Soft node budget of generated SPNs.")
  in
  let max_depth =
    Arg.(value & opt int 6 & info [ "max-depth" ] ~doc:"Maximum SPN depth.")
  in
  let tol =
    Arg.(
      value & opt float Fuzz.default_tol
      & info [ "tol" ] ~doc:"Comparison tolerance (relative to the reference).")
  in
  let threads =
    Arg.(value & opt int 1 & info [ "threads" ] ~doc:"Runtime worker threads.")
  in
  let no_gpu =
    Arg.(value & flag & info [ "no-gpu" ] ~doc:"Skip the GPU-simulator oracle.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures unshrunk.")
  in
  let sched_stress =
    Arg.(
      value & flag
      & info [ "sched-stress" ]
          ~doc:
            "Scheduler stress mode: per case, draw random batch sizes × pool \
             sizes × static-vs-stealing schedulers (and GPU streams 1/2/4) \
             and require bit-identity with the single-threaded reference.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Chaos mode: run speaker-ID and random-SPN workloads under \
             deterministic randomized fault-injection schedules (cache I/O, \
             pool workers, JIT/GPU builds) across threads and engines; every \
             run must be bit-identical to its clean reference or fail with \
             one clean structured diagnostic, and the persistent kernel \
             cache must stay usable afterwards.")
  in
  let marginal =
    Arg.(
      value & opt float 0.0
      & info [ "marginal-fraction" ]
          ~doc:"Fraction of NaN (marginalized) evidence entries.")
  in
  let out_dir =
    Arg.(
      value & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Parent directory for reproducer bundles (default: \
             \\$SPNC_DUMP_DIR or ./spnc-reproducers).")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-bad-peephole" ]
          ~doc:
            "Fault injection: enable a deliberately unsound -O1+ peephole; \
             the run must then report mismatches.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-case log.") in
  let smith =
    Arg.(
      value & flag
      & info [ "smith" ]
          ~doc:
            "Smith mode: grammar-based IR-level generation (spnc_smith) with \
             the differential pipeline harness — every program is checked \
             across -O0..-O3 × VM/JIT × threads and randomized legal pass \
             orderings against the LoSPN interpreter reference.")
  in
  let smith_orderings =
    Arg.(
      value & opt int 5
      & info [ "smith-orderings" ]
          ~doc:"Random legal pass orderings checked per program (smith mode).")
  in
  let smith_order =
    Arg.(
      value & opt (some string) None
      & info [ "smith-order" ] ~docv:"PIPELINE"
          ~doc:
            "Run every generated program through this exact textual pipeline \
             instead of random orderings; the pipeline is legality-checked \
             first and an illegal ordering fails loudly (exit 65).")
  in
  let smith_explore =
    Arg.(
      value & flag
      & info [ "smith-explore" ]
          ~doc:
            "Score candidate LoSPN opt-stage pass orderings over the \
             generated corpus and write a leaderboard (see --passorder-out).")
  in
  let passorder_out =
    Arg.(
      value & opt string "PASSORDER_cpu.json"
      & info [ "passorder-out" ] ~docv:"FILE"
          ~doc:"Leaderboard output path for --smith-explore.")
  in
  let budget_s =
    Arg.(
      value & opt float 0.0
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget; stop generating new cases once exceeded (0 = \
             unlimited). Used by the nightly long-fuzz CI tier.")
  in
  let case_only =
    Arg.(
      value & opt (some int) None
      & info [ "case" ] ~docv:"ID"
          ~doc:"Replay exactly one case id, in any mode (every FAIL is followed \
                by the repro: command that does this).")
  in
  let corpus_dir =
    Arg.(
      value & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Dump generated programs (first 1000) as .mlir files here.")
  in
  Cmd.v
    (Cmd.info "spnc_fuzz" ~version:"1.0.0"
       ~doc:
         "Differential fuzzing of the SPNC pipeline: reference evaluator vs \
          LoSPN interpreter vs CPU -O0..-O3 vs GPU simulator. Exit codes: 0 \
          clean, 65 failures found (EX_DATAERR), 70 internal harness error \
          (EX_SOFTWARE).")
    Term.(
      const run $ seed $ cases $ rows $ target_ops $ max_depth $ tol $ threads
      $ no_gpu $ no_shrink $ sched_stress $ chaos $ marginal
      $ out_dir $ inject $ verbose $ smith $ smith_orderings $ smith_order
      $ smith_explore $ passorder_out $ budget_s $ case_only $ corpus_dir)

let () =
  Printexc.record_backtrace true;
  exit (Cmd.eval' cmd)
