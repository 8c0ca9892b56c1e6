(** Differential fuzzing (MLIR-Smith style, PAPERS.md).

    Generates random well-formed SPNs — seeded, size/depth-parameterized,
    with Gaussian, categorical and histogram leaves — plus matching
    evidence data, and cross-checks a list of {e oracles} (compiled
    kernels, interpreters, simulators) against the reference evaluator
    [Spnc_spn.Infer].

    It also holds the differential core every [spnc_fuzz] mode shares,
    whatever generates its subjects (models here, HiSPN programs in
    [lib/smith]): one exception barrier ({!capture}), one comparator
    ({!compare}), one greedy shrink loop ({!shrink}) and one failure
    report with its reproducer bundle ({!report}).

    The module deliberately does not depend on the compiler: oracles are
    plain functions, wired up by [bin/spnc_fuzz] (and the test suite), so
    the harness itself can never be broken by the code it is testing. *)

module Model = Spnc_spn.Model
module Infer = Spnc_spn.Infer
module Validate = Spnc_spn.Validate
module Rng = Spnc_data.Rng

(* -- Generation ------------------------------------------------------------- *)

type var_kind = Continuous | Discrete_cat of int | Discrete_hist of int

type config = {
  min_features : int;
  max_features : int;
  max_depth : int;
  target_ops : int;  (** soft node budget; generation stops growing past it *)
  rows : int;  (** evidence rows per case *)
  marginal_fraction : float;
      (** fraction of NaN (marginalized) evidence entries; only
          meaningful for kernels compiled with marginal support *)
}

let default_config =
  {
    min_features = 3;
    max_features = 8;
    max_depth = 6;
    target_ops = 60;
    rows = 24;
    marginal_fraction = 0.0;
  }

type case = {
  id : int;
  seed : int;
  config : config;
  var_kinds : var_kind array;
  model : Model.t;
  data : float array array;
}

let gen_leaf rng (kind : var_kind) ~var : Model.node =
  match kind with
  | Continuous ->
      Model.gaussian ~var ~mean:(Rng.range rng (-2.0) 2.0)
        ~stddev:(Rng.range rng 0.4 2.0)
  | Discrete_cat arity ->
      let probs = Rng.dirichlet rng ~alpha:1.0 arity in
      (* floor the probabilities so in-range evidence never hits a
         literal zero (log-underflow is the guard's job, not the
         generator's) *)
      let floored = Array.map (fun p -> Float.max p 0.02) probs in
      let total = Array.fold_left ( +. ) 0.0 floored in
      Model.categorical ~var ~probs:(Array.map (fun p -> p /. total) floored)
  | Discrete_hist buckets ->
      Model.histogram ~var
        ~breaks:(Array.init (buckets + 1) Fun.id)
        ~densities:
          (let d = Rng.dirichlet rng ~alpha:1.0 buckets in
           let floored = Array.map (fun p -> Float.max p 0.02) d in
           (* unit-width buckets: mass = sum of densities, so renormalize
              after flooring or the model fails validation *)
           let total = Array.fold_left ( +. ) 0.0 floored in
           Array.map (fun p -> p /. total) floored)

(* Split [scope] into [k] nonempty groups for a product node. *)
let split_scope rng (scope : int array) ~k : int array list =
  let shuffled = Rng.shuffle rng scope in
  let n = Array.length shuffled in
  (* k-1 distinct cut points in [1, n) *)
  let cuts = Array.make (k - 1) 0 in
  let rec pick i =
    if i = k - 1 then ()
    else
      let c = 1 + Rng.int rng (n - 1) in
      if Array.exists (( = ) c) cuts then pick i
      else begin
        cuts.(i) <- c;
        pick (i + 1)
      end
  in
  pick 0;
  Array.sort compare cuts;
  let bounds = Array.to_list cuts @ [ n ] in
  let rec chop lo = function
    | [] -> []
    | hi :: rest -> Array.sub shuffled lo (hi - lo) :: chop hi rest
  in
  chop 0 bounds

let rec gen_node rng (kinds : var_kind array) ~scope ~depth ~(budget : int ref)
    : Model.node =
  decr budget;
  let leaf_block () =
    match Array.to_list scope with
    | [ v ] -> gen_leaf rng kinds.(v) ~var:v
    | vars ->
        Model.product (List.map (fun v -> gen_leaf rng kinds.(v) ~var:v) vars)
  in
  if Array.length scope = 1 || depth <= 0 || !budget <= Array.length scope then
    leaf_block ()
  else if Rng.float rng < 0.5 then begin
    (* sum: mixture over the same scope (smoothness by construction) *)
    let k = 2 + Rng.int rng 3 in
    let weights = Rng.dirichlet rng ~alpha:2.0 k in
    Model.sum
      (List.init k (fun i ->
           (weights.(i), gen_node rng kinds ~scope ~depth:(depth - 1) ~budget)))
  end
  else begin
    (* product: split the scope (decomposability by construction) *)
    let k = 2 + Rng.int rng (min 2 (Array.length scope - 1)) in
    let groups = split_scope rng scope ~k in
    Model.product
      (List.map
         (fun g -> gen_node rng kinds ~scope:g ~depth:(depth - 1) ~budget)
         groups)
  end

let gen_data rng (c : config) (kinds : var_kind array) : float array array =
  Array.init c.rows (fun _ ->
      Array.init (Array.length kinds) (fun v ->
          if c.marginal_fraction > 0.0 && Rng.float rng < c.marginal_fraction
          then Float.nan
          else
            match kinds.(v) with
            | Continuous -> Rng.range rng (-3.0) 3.0
            | Discrete_cat arity -> float_of_int (Rng.int rng arity)
            | Discrete_hist buckets -> float_of_int (Rng.int rng buckets)))

(** [gen_case ?config ~seed ~id] — deterministic case [(seed, id)]: the
    variable typing, model structure and evidence all derive from the
    pair, so any reported case replays from two integers. *)
let gen_case ?(config = default_config) ~seed ~id () : case =
  let rng = Rng.create ~seed:((seed * 1_000_003) + id) in
  let num_features =
    config.min_features + Rng.int rng (config.max_features - config.min_features + 1)
  in
  let var_kinds =
    Array.init num_features (fun _ ->
        let r = Rng.float rng in
        if r < 0.5 then Continuous
        else if r < 0.75 then Discrete_cat (2 + Rng.int rng 4)
        else Discrete_hist (2 + Rng.int rng 3))
  in
  let budget = ref config.target_ops in
  let root =
    (* force a mixture at the root when the scope allows: sum-rooted SPNs
       exercise the accumulation path of every backend *)
    gen_node rng var_kinds
      ~scope:(Array.init num_features Fun.id)
      ~depth:config.max_depth ~budget
  in
  let model =
    Model.make ~name:(Printf.sprintf "fuzz_%d_%d" seed id) ~num_features root
  in
  let data = gen_data rng config var_kinds in
  { id; seed; config; var_kinds; model; data }

(* -- Differential core -------------------------------------------------------- *)

type outcome = (float array, string) result

let protect f =
  match f () with
  | v -> Ok v
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception e -> Error e

let capture f : outcome = Result.map_error Printexc.to_string (protect f)

type tier = Exact | Tol of float

let agree tier r got =
  match tier with
  | Exact -> Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float got)
  | Tol tol ->
      if Float.is_nan r || Float.is_nan got then
        Float.is_nan r && Float.is_nan got
      else if Float.is_finite r && Float.is_finite got then
        Float.abs (got -. r) <= tol *. Float.max 1.0 (Float.abs r)
      else r = got

(** [compare tier ~reference got] — [None] on agreement, else the first
    differing row with both values; two errors agree, one error is a
    finding. *)
let compare tier ~(reference : outcome) (got : outcome) : string option =
  match (reference, got) with
  | Error _, Error _ -> None
  | Ok _, Error e -> Some ("trapped where the reference succeeded: " ^ e)
  | Error e, Ok _ -> Some ("succeeded where the reference trapped: " ^ e)
  | Ok r, Ok g when Array.length r <> Array.length g ->
      Some
        (Printf.sprintf "reference has %d rows, got %d" (Array.length r)
           (Array.length g))
  | Ok r, Ok g ->
      Seq.init (Array.length r) Fun.id
      |> Seq.find (fun i -> not (agree tier r.(i) g.(i)))
      |> Option.map (fun i ->
             Printf.sprintf "row %d: reference %.17g, got %.17g" i r.(i) g.(i))

(* Row reductions: halves, then single rows. *)
let row_candidates (rows : float array array) : float array array list =
  let n = Array.length rows in
  if n <= 1 then []
  else
    [ Array.sub rows 0 ((n + 1) / 2); Array.sub rows ((n + 1) / 2) (n / 2) ]
    @ List.init (min n 4) (fun i -> [| rows.(i) |])

(** [shrink ?max_steps ~candidates ~still_fails subject rows] — greedy:
    repeatedly adopt the first subject reduction, else the first row
    reduction, on which [still_fails] holds, until none does or the
    predicate budget runs out. *)
let shrink ?(max_steps = 64) ~candidates ~still_fails subject rows =
  let steps = ref 0 in
  let fails s r =
    !steps < max_steps
    && begin
         incr steps;
         Result.value ~default:false (protect (fun () -> still_fails s r))
       end
  in
  let rec go s r =
    match List.find_opt (fun s' -> fails s' r) (candidates s) with
    | Some s' -> go s' r
    | None -> (
        match List.find_opt (fails s) (row_candidates r) with
        | Some r' -> go s r'
        | None -> (s, r))
  in
  go subject rows

type 'a subject = {
  name : string;
  ext : string;
  size_unit : string;
  size : 'a -> int;
  print : 'a -> string;
  candidates : 'a -> 'a list;
  max_steps : int;
}

(* Rebuild the DAG with the node [target] replaced by [repl]; sharing is
   preserved through the memo table. *)
let replace (m : Model.t) ~(target : int) ~(repl : Model.node) : Model.t =
  let memo = Hashtbl.create 64 in
  let rec go (n : Model.node) : Model.node =
    if n.Model.id = target then repl
    else
      match Hashtbl.find_opt memo n.Model.id with
      | Some n' -> n'
      | None ->
          let n' =
            match n.Model.desc with
            | Model.Sum ws -> Model.sum (List.map (fun (w, c) -> (w, go c)) ws)
            | Model.Product cs -> Model.product (List.map go cs)
            | _ -> n
          in
          Hashtbl.add memo n.Model.id n';
          n'
  in
  Model.make ~name:m.Model.name ~num_features:m.Model.num_features
    (go m.Model.root)

(* Structural reduction candidates: every inner node replaced by each of
   its children, valid (smooth/decomposable) results only, ordered by
   node count so the biggest reductions are tried first. *)
let model_candidates (m : Model.t) : Model.t list =
  let variants = ref [] in
  Model.iter_unique
    (fun n ->
      match n.Model.desc with
      | Model.Sum _ | Model.Product _ ->
          List.iter
            (fun child ->
              match replace m ~target:n.Model.id ~repl:child with
              | m' -> if Validate.check m' = [] then variants := m' :: !variants
              | exception Invalid_argument _ -> ())
            (Model.children n)
      | _ -> ())
    m;
  List.sort
    (fun a b -> Int.compare (Model.node_count a) (Model.node_count b))
    !variants

let model_subject =
  {
    name = "model";
    ext = "txt";
    size_unit = "nodes";
    size = Model.node_count;
    print = Spnc_spn.Text.to_string;
    candidates = model_candidates;
    max_steps = 64;
  }

(* One evidence row per line, hex floats so the bundle replays the exact
   bits. *)
let data_to_csv (rows : float array array) : string =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat ","
              (Array.to_list (Array.map (Printf.sprintf "%h") row))
            ^ "\n")
          rows))

(** [report ?dir ?still_fails subject ~tag ~seed ~id ~repro ~pipeline
    ~diag s rows] — FAIL and [repro:] lines, optional shrink with its
    [shrunk:] line, then one reproducer bundle. *)
let report ?dir ?still_fails (subject : 'a subject) ~tag ~seed ~id ~repro
    ~pipeline ~diag (s : 'a) rows =
  Fmt.epr "%s case %d (seed %d): %s@.repro: %s@." tag id seed diag repro;
  let shrunk, shrunk_rows =
    match still_fails with
    | None -> (s, rows)
    | Some still_fails ->
        let ((s', rows') as r) =
          shrink ~max_steps:subject.max_steps ~candidates:subject.candidates
            ~still_fails s rows
        in
        Fmt.epr "shrunk: %d -> %d %s, %d -> %d rows@." (subject.size s)
          (subject.size s') subject.size_unit (Array.length rows)
          (Array.length rows');
        r
  in
  let file = subject.name ^ "." ^ subject.ext in
  match
    Reproducer.write ?dir
      ~extra:
        [
          (file, subject.print shrunk);
          (subject.name ^ "-original." ^ subject.ext, subject.print s);
          ("data.csv", data_to_csv shrunk_rows);
          ("repro-command.txt", repro ^ "\n");
        ]
      ~ir:(Printf.sprintf "// fuzz finding: the shrunk subject is %s\n" file)
      ~pipeline ~options:repro ~diag ()
  with
  | Ok b -> Fmt.epr "reproducer written to %s@." b.Reproducer.dir
  | Error e -> Fmt.epr "(reproducer dump failed: %s)@." e

(* -- Model-level oracles ------------------------------------------------------ *)

type oracle = {
  oracle_name : string;
  eval : Model.t -> float array array -> float array;
      (** log-likelihood per row; exceptions are captured as errors *)
}

(** The correctness reference: the memoized log-space DAG evaluator. *)
let reference (m : Model.t) (data : float array array) : float array =
  Infer.log_likelihood_batch m data

let default_tol = 1e-6

(** [check ?tol ~oracles model data] — first oracle, in order, that
    disagrees with the reference, or [None]. *)
let check ?(tol = default_tol) ~(oracles : oracle list) (model : Model.t)
    (data : float array array) : string option =
  let reference = capture (fun () -> reference model data) in
  List.find_map
    (fun o ->
      compare (Tol tol) ~reference (capture (fun () -> o.eval model data))
      |> Option.map (Printf.sprintf "oracle %s: %s" o.oracle_name))
    oracles
