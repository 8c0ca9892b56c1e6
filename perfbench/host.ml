(** The host block printed before every result: what the numbers were
    measured on, so a figure can always be traced to its machine. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (In_channel.input_all ic))

let lines s = String.split_on_char '\n' s

let cpuinfo_field name =
  match read_file "/proc/cpuinfo" with
  | None -> None
  | Some s ->
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.trim (String.sub l 0 i) = name ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        (lines s)

(* the vector ISA extensions the compiler's CPU targets care about *)
let isa_flags () =
  match cpuinfo_field "flags" with
  | None -> "unknown"
  | Some f ->
      String.split_on_char ' ' f
      |> List.filter (fun x ->
             List.mem x [ "sse4_2"; "avx"; "avx2"; "fma"; "avx512f"; "avx512vl" ])
      |> String.concat ","

(* the checkout the benchmark builds from need not be a git repository;
   read .git directly when there is one, without spawning git *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unavailable (not a git checkout)"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some rev -> String.trim rev
          | None -> head)
      | _ -> head)

let block ~seed ~workload =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu", Option.value ~default:"unknown" (cpuinfo_field "model name"));
    ("isa", isa_flags ());
    ("ocaml", Sys.ocaml_version);
    ("git_rev", git_rev ());
  ]

(** CPU time the hypervisor gave to other guests while this one wanted
    to run ([steal] in [/proc/stat], all CPUs, ticks of 1/100 s): the
    interference that moves every timing on a shared host. *)
let steal_seconds () =
  match read_file "/proc/stat" with
  | None -> Float.nan
  | Some s -> (
      match String.split_on_char ' ' (List.hd (lines s)) |> List.filter (( <> ) "") with
      | "cpu" :: fields when List.length fields >= 8 ->
          float_of_string (List.nth fields 7) /. 100.0
      | _ -> Float.nan)

(** Peak resident set ([VmHWM]) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | None -> Float.nan
  | Some s ->
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"VmHWM:" l then
            Scanf.sscanf_opt
              (String.sub l 6 (String.length l - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          else None)
        (lines s)
      |> Option.value ~default:Float.nan

(** User plus system CPU seconds of a process ([/proc/<pid>/stat] fields
    14 and 15, in clock ticks of 1/100 s). *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> Float.nan
  | Some s -> (
      (* the command name (field 2) may hold spaces: split after ')' *)
      match String.rindex_opt s ')' with
      | None -> Float.nan
      | Some i -> (
          let rest = String.sub s (i + 2) (String.length s - i - 2) in
          match String.split_on_char ' ' rest with
          | _state :: fields -> (
              (* fields now starts at field 4; utime is field 14 *)
              match (List.nth_opt fields 10, List.nth_opt fields 11) with
              | Some u, Some st ->
                  float_of_int (int_of_string u + int_of_string st) /. 100.0
              | _ -> Float.nan)
          | [] -> Float.nan))

(** User plus system CPU seconds of this process, all threads
    ([getrusage], microseconds).  The kernel leaves out the time the
    hypervisor stole, which a wall clock counts. *)
let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** [cpu_timed f] — [f ()] with the CPU seconds it took. *)
let cpu_timed f =
  let c0 = self_cpu_seconds () in
  let x = f () in
  (x, self_cpu_seconds () -. c0)

(* -- the run's work directory ----------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
