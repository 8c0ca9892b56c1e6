(** [speaker-batch]: offline batch inference on the five speaker-ID
    SPNs with the best CPU configuration (AVX2 + vector library +
    shuffled loads, -O1) on two worker threads.  Compile and engine load
    happen once in set-up; the timed loop alternates a joint pass (clean
    rows, every model) and a marginal pass (the same rows with 25% NaN,
    through a [support_marginal] build), so nearly all measured time is
    runtime, JIT kernel and libm. *)

module Compiler = Spnc.Compiler
module Options = Spnc.Options
module Exec = Spnc_runtime.Exec

let rows = 4096
let features = Spnc_data.Speech.num_features
let threads = 2
let checked_rows = 32
let setup_repeats = 5

let joint_options = { (Options.best_cpu ()) with threads }
let marginal_options = { joint_options with support_marginal = true }

type build = { compiled : Compiler.compiled; exec : Exec.t }

let load options model =
  let compiled = Compiler.compile ~options model in
  { compiled; exec = Compiler.load_exec compiled }

(* one batch call on a hot engine handle, as a serving or batch user
   drives it: kernel execution plus output finalization *)
let run_batch b flat =
  Compiler.finalize_output b.compiled
    (Exec.execute b.exec ~flat ~rows ~num_features:features)

let flatten rows = Array.concat (Array.to_list rows)

(* [pass builds flat] — one model after another; returns the outputs and
   the wall time of the whole pass *)
let pass builds flat =
  let t0 = Unix.gettimeofday () in
  let outs = Array.map (fun b -> run_batch b flat) builds in
  (outs, Unix.gettimeofday () -. t0)

let ms_per_krow seconds = seconds *. 1e6 /. float_of_int (rows * 5)

let run ~seed ~seconds ~trace ~workdir (r : Report.t) =
  let models = Inputs.speaker_models () in
  let clean, noisy = Inputs.speaker_rows ~seed ~rows in
  let flat_clean = flatten clean and flat_noisy = flatten noisy in
  (* set-up: compile and load every model, up to the first result; done
     several times from an empty kernel cache and a compacted heap, the
     last one kept *)
  let setup () =
    Compiler.reset_kernel_cache ();
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let joint = Array.map (load joint_options) models in
    let marginal = Array.map (load marginal_options) models in
    ignore (run_batch joint.(0) flat_clean);
    (joint, marginal, Unix.gettimeofday () -. t0)
  in
  let times = Array.make setup_repeats 0.0 and kept = ref None in
  for k = 0 to setup_repeats - 1 do
    kept := None;
    let joint, marginal, s = setup () in
    times.(k) <- s;
    kept := Some (joint, marginal)
  done;
  let joint, marginal = Option.get !kept in
  Report.e2e r "setup_s" "s" (Stats.median times);
  (* reference outputs of every model, checked below and against which
     every timed pass is compared bit for bit *)
  let base_joint, _ = pass joint flat_clean in
  let base_marginal, _ = pass marginal flat_noisy in
  let sample = Inputs.sample_indices ~seed ~n:rows ~k:checked_rows in
  let check_reference query models_out data =
    Array.iteri
      (fun m out ->
        let ok =
          Array.for_all
            (fun i ->
              Report.within_tolerance
                ~expected:(Spnc_spn.Infer.log_likelihood models.(m) data.(i))
                out.(i))
            sample
        in
        Report.check r ok (Printf.sprintf "%s model %d vs Infer" query m))
      models_out
  in
  check_reference "joint" base_joint clean;
  check_reference "marginal" base_marginal noisy;
  (* VM-vs-JIT bit identity on the sampled rows: the same artifact (a
     kernel-cache hit) run by the reference interpreter *)
  let sub data = Array.map (fun i -> data.(i)) sample in
  Array.iteri
    (fun m (b : build) ->
      List.iter
        (fun (b, data, what) ->
          let vm =
            Compiler.execute
              (Compiler.compile
                 ~options:{ b.compiled.Compiler.options with engine = Spnc_cpu.Jit.Vm }
                 models.(m))
              (sub data)
          in
          let jit = Compiler.execute b.compiled (sub data) in
          Report.check r (Report.bits_equal vm jit)
            (Printf.sprintf "%s model %d VM vs JIT" what m))
        [ (b, clean, "joint"); (marginal.(m), noisy, "marginal") ])
    joint;
  (* timed loop *)
  let joint_ms = Stats.Buf.create () and marginal_ms = Stats.Buf.create () in
  let compare what base outs =
    Array.iteri
      (fun m out ->
        Report.check r (Report.bits_equal base.(m) out)
          (Printf.sprintf "%s pass model %d differs from first pass" what m))
      outs
  in
  let stop = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < stop do
    let outs, s = pass joint flat_clean in
    Stats.Buf.add joint_ms (ms_per_krow s);
    compare "joint" base_joint outs;
    let outs, s = pass marginal flat_noisy in
    Stats.Buf.add marginal_ms (ms_per_krow s);
    compare "marginal" base_marginal outs
  done;
  let joint_ms = Stats.Buf.to_array joint_ms
  and marginal_ms = Stats.Buf.to_array marginal_ms in
  Report.e2e r "peak_rss_mb" "MB" (Host.peak_rss_mb 0);
  Report.e2e r "main_ms" "ms" (Stats.median joint_ms);
  Report.e2e r "alt_ms" "ms" (Stats.median marginal_ms);
  Report.e2e r "exec_rows_per_s" "rows/s" (1e6 /. Stats.median joint_ms);
  Report.e2e r "marginal_rows_per_s" "rows/s" (1e6 /. Stats.median marginal_ms);
  Report.e2e r "passes" "count" (float_of_int (Array.length joint_ms));
  if trace then begin
    Stages.measure r
      (List.concat_map
         (fun m -> [ (joint_options, m); (marginal_options, m) ])
         (Array.to_list models));
    Probes.runtime r (Array.to_list (Array.map (fun b -> (b.compiled, clean)) joint));
    Probes.disk_tier r ~options:joint_options ~dir:(Filename.concat workdir "kcache")
      models.(0) clean
  end
