(** The benchmark's own spans, recorded around its calls into a layer's
    public functions: a name and a wall time each, kept in memory.  The
    traced run aggregates them into per-layer metrics. *)

let lock = Mutex.create ()
let recorded : (string * float) list ref = ref []

(** [timed name f] — run [f]; returns its result and wall time, and
    records the time under [name]. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let s = Unix.gettimeofday () -. t0 in
  Mutex.lock lock;
  recorded := (name, s) :: !recorded;
  Mutex.unlock lock;
  (r, s)

let with_span name f = fst (timed name f)

(** Durations of every span named [name], oldest first. *)
let durations name =
  Mutex.lock lock;
  let all = !recorded in
  Mutex.unlock lock;
  List.rev all |> List.filter_map (fun (n, s) -> if n = name then Some s else None)
  |> Array.of_list
