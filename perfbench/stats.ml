(** Order statistics for the benchmark's own reporting.

    Every timing the benchmark prints is a median, a quartile or a
    high percentile of a sample, computed here.  Quantiles interpolate
    linearly between order statistics (the "inclusive" method: the
    0-quantile is the minimum and the 1-quantile the maximum), so
    results never depend on sample order. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** [quantile xs q] for [q] in [0, 1]; [nan] on an empty sample. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    let pos = Float.max 0.0 (Float.min 1.0 q) *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(** Samples needed beyond a percentile before it may be reported: a
    p99 over fewer than 1000 samples rests on fewer than ten values and
    is not reported. *)
let min_tail = 10

(** [tail_count ~n p] — how many of [n] samples lie strictly beyond the
    [p]-quantile's position. *)
let tail_count ~n p =
  let beyond = float_of_int n *. (1.0 -. p) in
  truncate (beyond +. 1e-9)

(** [percentile xs p] — [Some q] when at least {!min_tail} samples lie
    beyond it, [None] otherwise. *)
let percentile xs p =
  if tail_count ~n:(Array.length xs) p >= min_tail then Some (quantile xs p)
  else None

(** [windowed_median ~width keys xs] — the median over windows of
    [width] (by [keys.(i)], from 0) of each window's median of [xs]:
    a disturbance that covers fewer than half of the windows leaves it
    where an undisturbed run puts it.  Empty windows are skipped;
    [nan] when every window is empty. *)
let windowed_median ~width keys xs =
  let windows = Hashtbl.create 16 in
  Array.iteri
    (fun i k ->
      let w = truncate (Float.max 0.0 k /. width) in
      Hashtbl.replace windows w (xs.(i) :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
    keys;
  Hashtbl.fold (fun _ v acc -> median (Array.of_list v) :: acc) windows []
  |> Array.of_list |> median

(** A growable float buffer, for per-operation samples in timed
    loops. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end
