(** The benchmark executable: [spnc_perfbench --workload W --seed N
    --seconds S --trace 0|1].  Usually started through [run.py], which
    builds it from the checkout first. *)

let workloads = [ "speaker-batch"; "ratspn-compile"; "serve-tcp" ]

let usage () =
  prerr_endline
    "usage: spnc_perfbench --workload (speaker-batch|ratspn-compile|serve-tcp) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.0 then
    usage ();
  (* a server that goes away must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workdir = Printf.sprintf ".perfbench_work/%d" (Unix.getpid ()) in
  let r = Perfbench.Report.create () in
  let seed = !seed and seconds = !seconds and trace = !trace in
  Perfbench.Host.mkdir_p workdir;
  let steal0 = Perfbench.Host.steal_seconds () in
  Fun.protect
    ~finally:(fun () -> Perfbench.Host.remove_tree workdir)
    (fun () ->
      match !workload with
      | "speaker-batch" -> Perfbench.Speaker.run ~seed ~seconds ~trace ~workdir r
      | "ratspn-compile" -> Perfbench.Ratspn.run ~seed ~seconds ~trace ~workdir r
      | _ -> Perfbench.Serve_tcp.run ~seed ~seconds ~trace ~workdir r);
  Perfbench.Report.print r
    ~host:(Perfbench.Host.block ~seed ~workload:!workload
           @ [
               ("mode", if trace then "traced" else "untraced");
               ( "steal_s",
                 Printf.sprintf "%.2f (stolen by the hypervisor during the run)"
                   (Perfbench.Host.steal_seconds () -. steal0) );
             ])
