(** Graph partitioning demo (paper §IV-A4, Figs. 10/12): how the maximum
    partition size trades compilation time against execution time.

    Run with: [dune exec examples/partitioning_demo.exe] *)

module Rng = Spnc_data.Rng

let () =
  let rng = Rng.create ~seed:99 in
  (* a deliberately large generic SPN *)
  let model =
    Spnc_spn.Random_spn.generate_sized rng
      { Spnc_spn.Random_spn.speaker_id_config with num_features = 32; max_depth = 9 }
      ~min_ops:20_000
  in
  Fmt.pr "model: %a@.@." Spnc_spn.Stats.pp (Spnc_spn.Stats.compute model);
  Fmt.pr "%-14s %10s %10s %14s %12s@." "part. size" "tasks" "compile(s)"
    "exec est.(ms)" "spills";
  List.iter
    (fun size ->
      let options =
        {
          (Spnc.Options.best_cpu ()) with
          max_partition_size = Some size;
          opt_level = Spnc_cpu.Optimizer.O1;
        }
      in
      let c = Spnc.Compiler.compile ~options model in
      let exec_ms = 1000.0 *. Spnc.Compiler.estimate_seconds c ~rows:10_000 in
      let spills =
        match c.Spnc.Compiler.artifact with
        | Spnc.Compiler.Cpu_kernel { regalloc; _ } ->
            Array.fold_left
              (fun acc s -> acc + Spnc_cpu.Regalloc.total_spills s)
              0 regalloc
        | _ -> 0
      in
      Fmt.pr "%-14d %10d %10.3f %14.2f %12d@." size c.Spnc.Compiler.num_tasks
        (Spnc.Compiler.compile_seconds c)
        exec_ms spills)
    [ 500; 1_000; 2_500; 5_000; 10_000; 25_000 ];
  Fmt.pr
    "@.Fewer partitions -> fewer buffer round-trips (faster execution); \
     the compile(s) column shows what the larger tasks cost to compile.@."
