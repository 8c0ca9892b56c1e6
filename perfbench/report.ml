(** Results of one benchmark run: metrics with their units, and the
    count of checked operations.

    The executable prints one line per metric, each labelled
    [measured] (the benchmark reports nothing modelled), then, as its
    last line, a JSON object with every metric it measured.  The
    launcher ([run.py]) picks from it the metrics [BENCHMARK.json]
    names for the run's mode. *)

type kind = End_to_end | Layer

type metric = { name : string; value : float; unit_ : string; kind : kind }

type t = {
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let create () = { metrics = []; attempted = 0; failed = 0; failures = [] }

let add t kind name unit_ value =
  t.metrics <- { name; value; unit_; kind } :: t.metrics

let e2e t = add t End_to_end
let layer t = add t Layer

(** Count one checked operation; a failed one is remembered with
    [what] for the failure listing (first 20 only). *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then t.failures <- what :: t.failures
  end

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(** Stated tolerance of the f32 kernels against the f64 reference
    interpreter, on log-likelihoods: absolute 1e-3 plus relative 1e-4. *)
let within_tolerance ~expected got =
  (Float.is_nan expected && Float.is_nan got)
  || expected = got
  || Float.abs (got -. expected) <= 1e-3 +. (1e-4 *. Float.abs expected)

let print t ~host =
  List.iter (fun (k, v) -> Printf.printf "host  %-10s %s\n" k v) host;
  List.iter
    (fun m ->
      Printf.printf "measured  %-7s %-28s %.6g %s\n"
        (match m.kind with End_to_end -> "e2e" | Layer -> "layer")
        m.name m.value m.unit_)
    (List.rev t.metrics);
  Printf.printf "measured  checks  attempted %d failed %d fail_frac %.6g\n"
    t.attempted t.failed
    (if t.attempted = 0 then 0.0
     else float_of_int t.failed /. float_of_int t.attempted);
  List.iter (Printf.printf "FAILED  %s\n") (List.rev t.failures);
  let open Spnc_obs.Json in
  let metric m =
    (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ])
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (t.failed = 0 && t.attempted > 0));
            ("attempted", Num (float_of_int t.attempted));
            ("failed", Num (float_of_int t.failed));
            ("metrics", Obj (List.rev_map metric t.metrics));
          ]))
