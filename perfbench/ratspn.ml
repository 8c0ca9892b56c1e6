(** [ratspn-compile]: cold compiles of RAT-SPN class models (64
    features, ~5.4k ops) at maximum partition size 5000, -O1 — the
    paper's Fig. 11 setting.  Each model is compiled with a fresh
    persistent kernel-cache directory (the full pipeline plus a store),
    then compiled again after the memory tier is emptied, which the disk
    tier serves, and a small batch is executed on the reloaded kernel
    (a warm start).
    Time goes almost entirely into the compile pipeline. *)

module Compiler = Spnc.Compiler
module Options = Spnc.Options

let batch_rows = 64
let min_rounds = 3
let probe_rows = 512

(* one thread: the compile is single-threaded and the warm start's 64
   rows are one chunk.  A two-thread pool adds only an idle worker
   domain, which raised peak RSS by 200 MB and widened the spread of
   compile times between runs *)
let options dir =
  {
    (Options.best_cpu ()) with
    threads = 1;
    max_partition_size = Some 5000;
    kernel_cache_dir = Some dir;
  }

let run ~seed ~seconds ~trace ~workdir (r : Report.t) =
  let models = Inputs.rat_models () in
  let rows = Inputs.rat_rows ~seed ~rows:batch_rows in
  let reference m = Array.map (Spnc_spn.Infer.log_likelihood m) rows in
  let model i = models.(Inputs.rat_class ~seed i) in
  let dir_of i = Filename.concat workdir (Printf.sprintf "kcache-%d" i) in
  let cold i =
    let m = model i and dir = dir_of i in
    Host.remove_tree dir;
    Compiler.reset_kernel_cache ();
    (* start every compile from a compacted heap, as a fresh process
       would, so earlier rounds' garbage does not shift its time *)
    Gc.compact ();
    let (c, w), cpu = Host.cpu_timed (fun () -> Stages.timed_compile ~options:(options dir) m) in
    (m, dir, c, w, cpu)
  in
  (* set-up: the first compile in a fresh process *)
  let _, dir0, _, setup, _ = cold 0 in
  Host.remove_tree dir0;
  Report.e2e r "setup_s" "s" setup.Stages.wall_s;
  let compile_s = Stats.Buf.create () and warm_s = Stats.Buf.create () in
  let compile_cpu = Stats.Buf.create () and warm_cpu = Stats.Buf.create () in
  let d = Probes.disk () and replays = ref [] and walls = ref [] and last = ref 0 in
  let kc0 = Spnc.Kcache.counters () in
  (* whole rounds only: at least [min_rounds], then more until [seconds]
     have passed; the last round may end after them *)
  let t_start = Unix.gettimeofday () in
  let i = ref 1 in
  while !i <= min_rounds || Unix.gettimeofday () -. t_start < seconds do
    let replayed =
      if not trace then None
      else begin
        (* ahead of the cold compile, with the memory tier emptied, so the
           replay's IR never shares the heap with two artifacts *)
        Compiler.reset_kernel_cache ();
        let t, lir = Stages.replay ~options:(options (dir_of !i)) (model !i) in
        replays := t :: !replays;
        Some (Marshal.to_string lir [])
      end
    in
    let m, dir, c, w, cpu = cold !i in
    Stats.Buf.add compile_s w.Stages.wall_s;
    Stats.Buf.add compile_cpu cpu;
    walls := w :: !walls;
    let cold_lir = Marshal.to_string (Stages.artifact_lir c) [] in
    (* warm start: the memory tier is empty, the disk tier holds the
       kernel; recompile, load and run the first batch *)
    Option.iter
      (fun lir -> Report.check r (lir = cold_lir) "stage replay emits the kernel Compiler.compile emits")
      replayed;
    let c2, out, s, cpu = Probes.disk_round d ~options:(options dir) ~dir m rows in
    Stats.Buf.add warm_s s;
    Stats.Buf.add warm_cpu cpu;
    Report.check r
      ((Compiler.cache_counters ()).Compiler.disk_hits = 1)
      (Printf.sprintf "compile %d: recompile not served by the disk tier" !i);
    Report.check r
      (Array.for_all2 (fun e g -> Report.within_tolerance ~expected:e g) (reference m) out)
      (Printf.sprintf "compile %d: outputs vs Infer" !i);
    Report.check r
      (cold_lir = Marshal.to_string (Stages.artifact_lir c2) [])
      (Printf.sprintf "compile %d: disk-tier kernel differs from the cold one" !i);
    Host.remove_tree dir;
    last := !i;
    incr i
  done;
  let compile_s = Stats.Buf.to_array compile_s and warm_s = Stats.Buf.to_array warm_s in
  let compile_cpu = Stats.Buf.to_array compile_cpu and warm_cpu = Stats.Buf.to_array warm_cpu in
  Report.e2e r "peak_rss_mb" "MB" (Host.peak_rss_mb 0);
  (* gated in CPU time: on a shared host the hypervisor steals seconds
     from a compile's wall time, varying from run to run; the compile
     runs on one thread, so with no steal its CPU and wall times agree *)
  Report.e2e r "main_ms" "ms" (1e3 *. Stats.median compile_cpu);
  Report.e2e r "alt_ms" "ms" (1e3 *. Stats.median warm_cpu);
  Report.e2e r "compile_s" "s" (Stats.median compile_s);
  Report.e2e r "warm_start_s" "s" (Stats.median warm_s);
  Report.e2e r "compile_cpu_s" "s" (Stats.median compile_cpu);
  Report.e2e r "warm_start_cpu_s" "s" (Stats.median warm_cpu);
  Report.e2e r "compiles" "count" (float_of_int (Array.length compile_s));
  if trace then begin
    Stages.report r ~replays:!replays ~walls:!walls;
    Probes.report_disk r d ~kc0;
    (* the last warm start's artifact, still in the memory tier *)
    let c = Compiler.compile ~options:(options (dir_of !last)) (model !last) in
    Probes.runtime r [ (c, Inputs.rat_rows ~seed ~rows:probe_rows) ]
  end
