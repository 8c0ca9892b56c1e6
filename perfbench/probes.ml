(** Traced-run probes of the layers every workload passes through, run
    on the workload's own compiled kernels and rows: the runtime
    (engine handle, pool, bare JIT kernel, executed instructions) and
    the persistent kernel cache's disk tier. *)

module Compiler = Spnc.Compiler
module Exec = Spnc_runtime.Exec

let repeats = 5

let with_threads threads (c : Compiler.compiled) =
  { c with Compiler.options = { c.Compiler.options with threads } }

let features rows = if Array.length rows = 0 then 0 else Array.length rows.(0)

(** [runtime r builds] — per [(compiled, rows)]: median time of one
    [Exec.execute] on a hot two-thread handle and of the output
    finalization, the same artifact's one-thread time (parallel
    efficiency: two-thread rate over twice the one-thread rate), pool
    steals during the two-thread calls, the bare JIT kernel swept chunk
    by chunk on this thread, and executed Lir instructions and libm
    calls per row from a profiled run. *)
let runtime (r : Report.t) (builds : (Compiler.compiled * float array array) list) =
  let call = Stats.Buf.create () and fin = Stats.Buf.create () in
  let one_total = ref 0.0 and two_total = ref 0.0 in
  let pool = Spnc_runtime.Pool.global ~threads:2 in
  let steals0 = Spnc_runtime.Pool.steal_count pool in
  List.iter
    (fun ((c : Compiler.compiled), rows) ->
      let flat = Array.concat (Array.to_list rows) in
      let n = Array.length rows and num_features = features rows in
      let h2 = Compiler.load_exec (with_threads 2 c) in
      let h1 = Compiler.load_exec (with_threads 1 c) in
      let one = Stats.Buf.create () and two = Stats.Buf.create () in
      for _ = 1 to repeats do
        let t = Unix.gettimeofday () in
        let raw = Exec.execute h2 ~flat ~rows:n ~num_features in
        let t2 = Unix.gettimeofday () in
        ignore (Compiler.finalize_output c raw);
        Stats.Buf.add fin (Unix.gettimeofday () -. t2);
        Stats.Buf.add two (t2 -. t);
        let t = Unix.gettimeofday () in
        ignore (Exec.execute h1 ~flat ~rows:n ~num_features);
        Stats.Buf.add one (Unix.gettimeofday () -. t)
      done;
      Array.iter (Stats.Buf.add call) (Stats.Buf.to_array two);
      one_total := !one_total +. Stats.median (Stats.Buf.to_array one);
      two_total := !two_total +. Stats.median (Stats.Buf.to_array two))
    builds;
  let steals = Spnc_runtime.Pool.steal_count pool - steals0 in
  Report.layer r "exec.call_ms" "ms" (1e3 *. Stats.median (Stats.Buf.to_array call));
  (* a mean: finalization takes a few µs, near the clock's resolution *)
  Report.layer r "exec.finalize_ms" "ms" (1e3 *. Stats.mean (Stats.Buf.to_array fin));
  Report.layer r "exec.parallel_eff" "ratio" (!one_total /. (2.0 *. !two_total));
  Report.layer r "pool.steals" "count" (float_of_int steals);
  (* the bare kernel of the first build, chunk after chunk on this
     thread, with the runtime's own chunk size *)
  (match builds with
  | [] -> ()
  | ((c : Compiler.compiled), rows) :: _ ->
      let k =
        match c.Compiler.artifact with
        | Compiler.Cpu_kernel { jit; _ } -> Compiler.force_jit jit
        | Compiler.Gpu_kernel _ -> invalid_arg "not a CPU artifact"
      in
      let st = Spnc_cpu.Jit.make_state k in
      let flat = Array.concat (Array.to_list rows) in
      let n = Array.length rows and nf = features rows in
      let chunk =
        Exec.chunk_plan ~rows:n ~threads:2 ~batch_size:c.Compiler.options.batch_size
          ~min_chunk:(Spnc.Options.cpu_lower_options c.Compiler.options).Spnc_cpu.Lower_cpu.width
      in
      let out = Array.make (chunk * c.Compiler.out_cols) 0.0 in
      let sweeps = Stats.Buf.create () in
      for _ = 1 to repeats do
        let t = Unix.gettimeofday () in
        let lo = ref 0 in
        while !lo < n do
          let m = min chunk (n - !lo) in
          Spnc_cpu.Jit.run k st
            ~buffers:
              [
                Spnc_cpu.Vm.view flat ~off:(!lo * nf) ~rows:m ~cols:nf;
                Spnc_cpu.Vm.view out ~off:0 ~rows:m ~cols:c.Compiler.out_cols;
              ];
          lo := !lo + m
        done;
        Stats.Buf.add sweeps (Unix.gettimeofday () -. t)
      done;
      Report.layer r "jit.kernel_rows_per_s" "rows/s"
        (float_of_int n /. Stats.median (Stats.Buf.to_array sweeps)));
  (* executed instructions and libm calls per row (profiled run on at
     most 64 rows of each build) *)
  let instrs = ref 0 and libm = ref 0 and profiled = ref 0 in
  List.iter
    (fun ((c : Compiler.compiled), rows) ->
      let rows = Array.sub rows 0 (min 64 (Array.length rows)) in
      let _, p = Compiler.execute_profiled c rows in
      profiled := !profiled + Array.length rows;
      instrs := !instrs + Spnc_cpu.Profile.total p;
      List.iter
        (fun (cell : Spnc_cpu.Profile.cell) ->
          if String.starts_with ~prefix:"call." cell.opcode
             || String.starts_with ~prefix:"vcall." cell.opcode
          then libm := !libm + Atomic.get cell.count)
        (Spnc_cpu.Profile.cells p))
    builds;
  let per_row x = float_of_int x /. float_of_int (max 1 !profiled) in
  Report.layer r "kernel.instrs_per_row" "count" (per_row !instrs);
  Report.layer r "kernel.libm_calls_per_row" "count" (per_row !libm)

(** Samples of one disk-tier round trip, gathered by {!disk_round}. *)
type disk = {
  hit_s : Stats.Buf.t;  (** [Compiler.compile] served by the disk tier *)
  first_exec_s : Stats.Buf.t;  (** engine load plus the first batch *)
  entry_bytes : Stats.Buf.t;
}

let disk () =
  { hit_s = Stats.Buf.create (); first_exec_s = Stats.Buf.create (); entry_bytes = Stats.Buf.create () }

(** [disk_round d ~options ~dir model rows] — with [dir] holding the
    kernel (stored by an earlier compile with the same [options]),
    empty the memory tier, compile again, load and run [rows]; returns
    the compiled artifact, the outputs, and the round's wall and CPU
    seconds. *)
let disk_round d ~(options : Spnc.Options.t) ~dir model rows =
  Compiler.reset_kernel_cache ();
  Gc.compact ();
  let flat = Array.concat (Array.to_list rows) in
  let t = Unix.gettimeofday () and cpu0 = Host.self_cpu_seconds () in
  let c = Compiler.compile ~options model in
  let t_hit = Unix.gettimeofday () in
  let out =
    let e = Compiler.load_exec c in
    Compiler.finalize_output c
      (Exec.execute e ~flat ~rows:(Array.length rows) ~num_features:(features rows))
  in
  let t_done = Unix.gettimeofday () and cpu = Host.self_cpu_seconds () -. cpu0 in
  Stats.Buf.add d.hit_s (t_hit -. t);
  Stats.Buf.add d.first_exec_s (t_done -. t_hit);
  (match Spnc.Kcache.open_ ~dir ~max_mb:options.kernel_cache_mb with
  | Ok kc -> Stats.Buf.add d.entry_bytes (float_of_int (Spnc.Kcache.size_bytes kc))
  | Error _ -> ());
  (c, out, t_done -. t, cpu)

let report_disk (r : Report.t) d ~(kc0 : Spnc.Kcache.counters) =
  let kc1 = Spnc.Kcache.counters () in
  let med b = Stats.median (Stats.Buf.to_array b) in
  Report.layer r "core.disk_hit_s" "s" (med d.hit_s);
  Report.layer r "jit.first_exec_s" "s" (med d.first_exec_s);
  Report.layer r "kcache.entry_bytes" "B" (med d.entry_bytes);
  Report.layer r "kcache.hits" "count" (float_of_int (kc1.hits - kc0.hits));
  Report.layer r "kcache.misses" "count" (float_of_int (kc1.misses - kc0.misses));
  Report.layer r "kcache.stores" "count" (float_of_int (kc1.stores - kc0.stores))

(** [disk_tier r ~options ~dir model rows] — a full disk-tier cycle for
    workloads whose own path does not use the persistent cache: one
    compile storing into [dir], then {!repeats} warm starts from it. *)
let disk_tier (r : Report.t) ~(options : Spnc.Options.t) ~dir model rows =
  let options = { options with kernel_cache_dir = Some dir } in
  let kc0 = Spnc.Kcache.counters () in
  Compiler.reset_kernel_cache ();
  ignore (Compiler.compile ~options model);
  let d = disk () in
  for _ = 1 to repeats do
    ignore (disk_round d ~options ~dir model rows)
  done;
  report_disk r d ~kc0
