(** Inputs of the three workloads, generated here from the benchmark's
    [--seed]: the same seed gives the same rows, request schedule,
    tenant models and order of RAT-SPN class models.  The speaker and
    RAT-SPN models themselves are fixed, so compile work does not vary
    with the seed. *)

module Rng = Spnc_data.Rng

(* -- speaker-batch ------------------------------------------------------------- *)

(** The five speaker-ID SPNs of [bench/workloads.ml] at its default
    (small) scale. *)
let speaker_models () =
  let rng = Rng.create ~seed:20221 in
  Array.init 5 (fun i ->
      Spnc_spn.Random_spn.generate_sized rng
        ~name:(Printf.sprintf "speaker-%d" i)
        Spnc_spn.Random_spn.speaker_id_config ~min_ops:800)

(** [speaker_rows ~seed ~rows] — [(clean, noisy)]: [rows] samples of
    the synthetic speech features, and the same samples with 25% of the
    values replaced by NaN (missing evidence, marginalized). *)
let speaker_rows ~seed ~rows =
  let rng = Rng.create ~seed in
  let d =
    Spnc_data.Speech.generate ~num_speakers:5 ~scenario:Spnc_data.Speech.Clean
      ~scale:(float_of_int (2 * rows) /. float_of_int Spnc_data.Speech.paper_clean_samples)
      rng ()
  in
  let pool = d.Spnc_data.Speech.data.Spnc_data.Synth.samples in
  let order = Rng.shuffle rng (Array.init (Array.length pool) Fun.id) in
  let clean = Array.init rows (fun i -> Array.copy pool.(order.(i mod Array.length order))) in
  let noisy =
    Array.map
      (Array.map (fun v -> if Rng.float rng < 0.25 then Float.nan else v))
      clean
  in
  (clean, noisy)

(** [sample_indices ~seed ~n ~k] — [k] distinct row indices below [n],
    sorted: the rows checked against the reference interpreter. *)
let sample_indices ~seed ~n ~k =
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  let idx = Rng.shuffle rng (Array.init n Fun.id) in
  let s = Array.sub idx 0 (min k n) in
  Array.sort compare s;
  s

(* -- ratspn-compile ------------------------------------------------------------ *)

(** The small-scale RAT-SPN configuration of [bench/workloads.ml]
    (64 features, ~5.4k ops per class model). *)
let rat_config =
  {
    Spnc_spn.Rat_spn.bench_config with
    num_features = 64;
    depth = 3;
    repetitions = 5;
    num_sums = 8;
    num_input_distributions = 8;
  }

(** The ten class models of [bench/workloads.ml]'s RAT-SPN: one
    structure, different weights and leaf parameters. *)
let rat_models () = Spnc_spn.Rat_spn.generate (Rng.create ~seed:20224) rat_config

(** Which class model the [i]-th compile of a run takes. *)
let rat_class ~seed i = (seed + i) mod rat_config.Spnc_spn.Rat_spn.num_classes

let rat_rows ~seed ~rows =
  let rng = Rng.create ~seed:(seed + 1) in
  Array.init rows (fun _ ->
      Array.init rat_config.Spnc_spn.Rat_spn.num_features (fun _ ->
          Rng.gaussian rng))

(* -- serve-tcp ----------------------------------------------------------------- *)

let tenants = 16
let tenant_features = 8
let tenant_min_ops = 200

(** [spnc_cli generate --seed] of tenant [i]. *)
let tenant_seed ~seed i = (seed * 1000) + i

let tenant_name i = Printf.sprintf "t%02d" i

(** One open-loop request: when it is due (seconds after its phase
    starts), which tenant it targets, and its single row. *)
type request = { due : float; tenant : int; row : float array }

(** [schedule ~seed ~rate ~seconds ~targets] — Poisson arrivals at
    [rate] per second for [seconds], each to a tenant drawn uniformly
    from the first [targets], with one row uniform in [-3, 3) (the
    distribution [spnc_cli run] feeds). *)
let schedule ~seed ~rate ~seconds ~targets =
  let rng = Rng.create ~seed:((seed * 7919) + int_of_float rate) in
  let reqs = ref [] in
  let t = ref 0.0 in
  let go = ref true in
  while !go do
    t := !t -. (log (1.0 -. Rng.float rng) /. rate);
    if !t >= seconds then go := false
    else
      reqs :=
        {
          due = !t;
          tenant = Rng.int rng targets;
          row = Array.init tenant_features (fun _ -> Rng.range rng (-3.0) 3.0);
        }
        :: !reqs
  done;
  Array.of_list (List.rev !reqs)
