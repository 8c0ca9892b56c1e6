(** [serve-tcp]: the request path of [spnc_serve] over loopback TCP.

    The server runs as a subprocess with its default knobs, hosting 16
    small seeded tenants written by [spnc_cli generate].  This process
    is the load generator: one thread, two connections, single-row
    newline-JSON requests sent open-loop on a Poisson schedule in two
    phases: 1000 requests per second spread over all tenants, where the
    server's flush timer bounds latency, then 3000 per second to two hot
    tenants, whose queues fill several rows per timer window.  All
    requests are encoded during set-up and written with non-blocking
    sockets, so a stalled server shows up as latency instead of
    throttling the generator.  Latency is timed from each request's due
    time, which counts the wait a stall imposes on later requests.
    Every response is compared bit for bit with in-process
    [Compiler.execute] of the same row.

    The traced run adds an in-process replay of the same schedule
    against [Spnc_serve.Server] — the calls the server's connection
    handler makes, with spans around them — because the subprocess
    cannot be traced from outside. *)

module Compiler = Spnc.Compiler
module Proto = Spnc_serve.Protocol
module Server = Spnc_serve.Server
module T = Spnc_serve.Types

(** A phase: its request rate and how many tenants (the first ones)
    the requests go to. *)
type phase_spec = { rate : float; targets : int }

(* Spread over all 16 tenants, 3000 rps ran the server past its knee
   (p50 past 1 s, requests unanswered) in 3 of 10 runs while the
   hypervisor stole a third of a 2-vCPU host's time: every request was
   a batch of its own.  Sent to two tenants, the same rate batches. *)
let hot_tenants = 2
let phases =
  [ { rate = 1000.0; targets = Inputs.tenants }; { rate = 3000.0; targets = hot_tenants } ]
let rate_tag rate = Printf.sprintf "r%.0f" rate
let connections = 2
let setup_repeats = 5

(* where run.py's dune build leaves the program's executables *)
let bin_dir = "_build/default/bin"
let probe_tenants = 4

(* -- processes ----------------------------------------------------------------- *)

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let run_to_end prog args =
  let null = dev_null () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null null Unix.stderr in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

type server = { pid : int; port : int; out : in_channel }

(* spawn [spnc_serve serve] on an ephemeral port; it announces the port
   on stdout once it listens *)
let spawn ~models_dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = dev_null () in
  let prog = Filename.concat bin_dir "spnc_serve.exe" in
  let pid =
    Unix.create_process prog
      [| prog; "serve"; "--models-dir"; models_dir; "--port"; "0" |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf_opt line "spnc_serve: listening on %_s@:%d" Fun.id with
  | Some port -> { pid; port; out }
  | None ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      failwith ("spnc_serve did not start: " ^ line)

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  fd

(* -- the open-loop generator ---------------------------------------------------- *)

(** One phase's outcome: per request, when it was written, when its
    response arrived ([nan] if never) and the response. *)
type phase = {
  sent : float array;  (** absolute time the first byte was written *)
  recv : float array;
  resp : T.response option array;
  start : float;  (** absolute time of the phase's due-time origin *)
}

type conn = {
  fd : Unix.file_descr;
  outq : (int * Bytes.t) Queue.t;  (** request index, encoded line *)
  mutable off : int;  (** bytes of the queue head already written *)
  inbuf : Buffer.t;
}

let chunk = Bytes.create 65536

(* [drive conns reqs ~first_id] — send [reqs] (due times relative to
   now, with their pre-encoded lines) round-robin over [conns] and
   collect every response; gives up [drain] seconds after the last due
   time.  Single-threaded: one select loop multiplexes all sockets. *)
let drive conns (due : float array) (lines : Bytes.t array) ~first_id ~drain =
  let n = Array.length due in
  let start = Unix.gettimeofday () +. 0.005 in
  let sent = Array.make n Float.nan and recv = Array.make n Float.nan in
  let resp = Array.make n None in
  let next = ref 0 and received = ref 0 in
  let give_up = start +. (if n = 0 then 0.0 else due.(n - 1)) +. drain in
  let flush c =
    let continue = ref true in
    while !continue && not (Queue.is_empty c.outq) do
      let i, b = Queue.peek c.outq in
      if c.off = 0 && Float.is_nan sent.(i) then sent.(i) <- Unix.gettimeofday ();
      match Unix.single_write c.fd b c.off (Bytes.length b - c.off) with
      | k ->
          c.off <- c.off + k;
          if c.off = Bytes.length b then begin
            ignore (Queue.pop c.outq);
            c.off <- 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
    done
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "spnc_serve closed the connection"
    | k ->
        let t = Unix.gettimeofday () in
        Buffer.add_subbytes c.inbuf chunk 0 k;
        let s = Buffer.contents c.inbuf in
        let last = ref 0 in
        String.iteri
          (fun j ch ->
            if ch = '\n' then begin
              (match Proto.decode_response (String.sub s !last (j - !last)) with
              | Ok (id, r) ->
                  let i = id - first_id in
                  if i >= 0 && i < n && Option.is_none resp.(i) then begin
                    resp.(i) <- Some r;
                    recv.(i) <- t;
                    incr received
                  end
              | Error _ -> ());
              last := j + 1
            end)
          s;
        Buffer.clear c.inbuf;
        Buffer.add_substring c.inbuf s !last (String.length s - !last)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let conns = Array.of_list conns in
  let by_fd fd = Array.to_list conns |> List.find (fun c -> c.fd = fd) in
  while !received < n && Unix.gettimeofday () < give_up do
    let now = Unix.gettimeofday () in
    while !next < n && start +. due.(!next) <= now do
      let c = conns.(!next mod Array.length conns) in
      Queue.push (!next, lines.(!next)) c.outq;
      incr next
    done;
    Array.iter flush conns;
    let timeout =
      if !next < n then Float.max 0.0 (start +. due.(!next) -. Unix.gettimeofday ())
      else 0.05
    in
    let writers =
      Array.to_list conns
      |> List.filter (fun c -> not (Queue.is_empty c.outq))
      |> List.map (fun c -> c.fd)
    in
    match Unix.select (Array.to_list conns |> List.map (fun c -> c.fd)) writers [] timeout with
    | readable, _, _ -> List.iter (fun fd -> read (by_fd fd)) readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  { sent; recv; resp; start }

let encode ~id ~tenant row =
  Bytes.of_string
    (Proto.encode_request
       {
         Proto.wr_id = id;
         wr_model = Inputs.tenant_name tenant;
         wr_rows = [| row |];
         wr_deadline_ms = None;
       }
    ^ "\n")

(* the answered requests' due times and latencies *)
let latencies_ms (p : phase) (due : float array) =
  Array.mapi (fun i d -> (d, (p.recv.(i) -. (p.start +. d)) *. 1e3)) due
  |> Array.to_list
  |> List.filter (fun (_, x) -> not (Float.is_nan x))
  |> Array.of_list |> Array.split

(* the gated p50 is the median of one-second windows' p50s: steal on a
   shared host comes in bursts, and a burst that covers fewer than half
   of a phase's windows leaves it unmoved *)
let window_s = 1.0

(* -- in-process replay (traced run) ------------------------------------------------ *)

(* the same schedule against an in-process [Spnc_serve.Server], driven
   through the calls [spnc_serve]'s connection handler makes: decode,
   submit, then await and encode on a thread of its own *)
let replay (r : Report.t) ~paths ~refs ~plans ~tcp_p50 =
  (* the kernel-cache memory tier holds the reference compiles of these
     tenants; empty it so the registry loads as a fresh server would *)
  Compiler.reset_kernel_cache ();
  let server = Server.create ~options:Spnc.Options.default () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      Array.iteri (fun i p -> Server.register_path server ~name:(Inputs.tenant_name i) p) paths;
      let t0 = Unix.gettimeofday () in
      Array.iteri
        (fun i _ ->
          match Spnc_serve.Registry.engine (Server.registry server) (Inputs.tenant_name i) with
          | Ok _ -> ()
          | Error e -> failwith e)
        paths;
      Report.layer r "registry.load_s" "s" (Unix.gettimeofday () -. t0);
      List.iter
        (fun (rate, (reqs : Inputs.request array), _, (lines : Bytes.t array)) ->
          let tag = rate_tag rate in
          Spnc_obs.Metrics.reset "serve.batch_rows";
          let n = Array.length reqs in
          let lat = Array.make n Float.nan and resps = Array.make n None in
          let texts = Array.map (fun b -> Bytes.sub_string b 0 (Bytes.length b - 1)) lines in
          let start = Unix.gettimeofday () +. 0.005 in
          let threads =
            Array.mapi
              (fun i (q : Inputs.request) ->
                let wait = start +. q.due -. Unix.gettimeofday () in
                (* behind schedule, still let the await threads run, as
                   the server's blocking reader does *)
                if wait > 0.0 then Unix.sleepf wait else Thread.yield ();
                match Spans.with_span "proto.decode_req" (fun () -> Proto.decode_request texts.(i)) with
                | Error e -> failwith e
                | Ok wr ->
                    let ticket =
                      Spans.with_span "serve.admit" (fun () ->
                          Server.submit_async server ~model:wr.Proto.wr_model wr.Proto.wr_rows)
                    in
                    Thread.create
                      (fun () ->
                        let resp = Spans.with_span ("serve.wait." ^ tag) (fun () -> Server.await ticket) in
                        resps.(i) <- Some resp;
                        ignore
                          (Spans.with_span "proto.encode_resp" (fun () ->
                               Proto.encode_response ~id:wr.Proto.wr_id resp));
                        lat.(i) <- (Unix.gettimeofday () -. (start +. q.due)) *. 1e3)
                      ())
              reqs
          in
          Array.iter Thread.join threads;
          Array.iteri
            (fun i (q : Inputs.request) ->
              Report.check r
                (match resps.(i) with
                | Some (Ok v) -> Report.bits_equal v (Compiler.execute refs.(q.tenant) [| q.row |])
                | _ -> false)
                (Printf.sprintf "in-process %s request %d" tag i))
            reqs;
          (match Spnc_obs.Metrics.find "serve.batch_rows" with
          | Some (Spnc_obs.Metrics.Histogram h) ->
              let count = Spnc_obs.Metrics.histogram_count h in
              Report.layer r ("serve.batch_rows.mean." ^ tag) "rows"
                (Spnc_obs.Metrics.histogram_sum h *. 1e6 /. float_of_int (max 1 count));
              Report.layer r ("serve.batch_rows.p99." ^ tag) "rows"
                (Spnc_obs.Metrics.histogram_percentile h 0.99 *. 1e6)
          | _ -> ());
          let inproc = Stats.median lat in
          Report.layer r ("serve.inproc_p50_ms." ^ tag) "ms" inproc;
          Report.layer r ("serve.wait_ms." ^ tag) "ms"
            (1e3 *. Stats.median (Spans.durations ("serve.wait." ^ tag)));
          Report.layer r ("socket.overhead_ms." ^ tag) "ms" (List.assoc rate tcp_p50 -. inproc))
        plans;
      (* means: these spans last a few µs, near the clock's resolution *)
      let us name = 1e6 *. Stats.mean (Spans.durations name) in
      Report.layer r "proto.decode_req_us" "us" (us "proto.decode_req");
      Report.layer r "serve.admit_us" "us" (us "serve.admit");
      Report.layer r "proto.encode_resp_us" "us" (us "proto.encode_resp"))

(* -- the workload ---------------------------------------------------------------- *)

let generate_tenants ~seed ~models_dir =
  Sys.mkdir models_dir 0o755;
  let cli = Filename.concat bin_dir "spnc_cli.exe" in
  Array.init Inputs.tenants (fun i ->
      let path = Filename.concat models_dir (Inputs.tenant_name i ^ ".spn") in
      run_to_end cli
        [
          "generate"; "--seed"; string_of_int (Inputs.tenant_seed ~seed i);
          "--features"; string_of_int Inputs.tenant_features;
          "--min-ops"; string_of_int Inputs.tenant_min_ops; "-o"; path;
        ];
      path)

let open_conns port =
  List.init connections (fun _ ->
      { fd = connect port; outq = Queue.create (); off = 0; inbuf = Buffer.create 4096 })

let close_all s conns =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  stop s

let run ~seed ~seconds ~trace ~workdir (r : Report.t) =
  let models_dir = Filename.concat workdir "tenants" in
  let paths = generate_tenants ~seed ~models_dir in
  let models =
    Array.map
      (fun p ->
        match Spnc_spn.Serialize.read_file p with Ok m -> m | Error e -> failwith e)
      paths
  in
  (* the reference: in-process Compiler.execute with the options the
     server runs with (its defaults) *)
  let refs = Array.map (fun m -> Compiler.compile m) models in
  let phase_seconds = seconds /. float_of_int (List.length phases) in
  let plans =
    List.mapi
      (fun k { rate; targets } ->
        let reqs = Inputs.schedule ~seed ~rate ~seconds:phase_seconds ~targets in
        let first_id = (k + 1) * 1_000_000 in
        let lines =
          Array.mapi
            (fun i (q : Inputs.request) -> encode ~id:(first_id + i) ~tenant:q.tenant q.row)
            reqs
        in
        (rate, reqs, first_id, lines))
      phases
  in
  (* set-up, several times: spawn until every tenant has answered once *)
  let warm =
    Array.init Inputs.tenants (fun t ->
        encode ~id:t ~tenant:t (Array.make Inputs.tenant_features 0.5))
  in
  let setup_once () =
    let t0 = Unix.gettimeofday () in
    let s = spawn ~models_dir in
    match open_conns s.port with
    | exception e ->
        stop s;
        raise e
    | conns ->
        let p = drive conns (Array.make Inputs.tenants 0.0) warm ~first_id:0 ~drain:30.0 in
        let t = Unix.gettimeofday () -. t0 in
        Report.check r
          (Array.for_all (function Some (Ok _) -> true | _ -> false) p.resp)
          "every tenant answers after spawn";
        (s, conns, t)
  in
  let setups =
    Array.init setup_repeats (fun _ ->
        let s, conns, t = setup_once () in
        close_all s conns;
        t)
  in
  Report.e2e r "setup_s" "s" (Stats.median setups);
  let s, conns, _ = setup_once () in
  let results =
    Fun.protect
      ~finally:(fun () -> close_all s conns)
      (fun () ->
        let results =
          List.map
            (fun (rate, (reqs : Inputs.request array), first_id, lines) ->
              let cpu0 = Host.cpu_seconds s.pid in
              let due = Array.map (fun (q : Inputs.request) -> q.due) reqs in
              let p = drive conns due lines ~first_id ~drain:10.0 in
              (rate, reqs, p, Host.cpu_seconds s.pid -. cpu0))
            plans
        in
        Report.e2e r "peak_rss_mb" "MB" (Host.peak_rss_mb s.pid);
        results)
  in
  (* every response against the in-process reference *)
  List.iter
    (fun (rate, reqs, (p : phase), _) ->
      Array.iteri
        (fun i (q : Inputs.request) ->
          let what msg = Printf.sprintf "%s request %d: %s" (rate_tag rate) i msg in
          match p.resp.(i) with
          | None -> Report.check r false (what "no response")
          | Some (Error e) -> Report.check r false (what (T.reject_reason_to_string e.T.reason))
          | Some (Ok values) ->
              Report.check r
                (Report.bits_equal values (Compiler.execute refs.(q.tenant) [| q.row |]))
                (what "response differs from Compiler.execute"))
        reqs)
    results;
  let tcp_p50 =
    List.map
      (fun (rate, (reqs : Inputs.request array), (p : phase), cpu) ->
        let tag = rate_tag rate in
        let due = Array.map (fun (q : Inputs.request) -> q.due) reqs in
        let dues, lat = latencies_ms p due in
        let p50 = Stats.median lat in
        Report.e2e r ("p50_ms." ^ tag) "ms" p50;
        let p50w = Stats.windowed_median ~width:window_s dues lat in
        Report.e2e r ("p50w_ms." ^ tag) "ms" p50w;
        Option.iter (Report.e2e r ("p99_ms." ^ tag) "ms") (Stats.percentile lat 0.99);
        if trace then begin
          let late = Array.mapi (fun i d -> (p.sent.(i) -. (p.start +. d)) *. 1e3) due in
          let last = Array.fold_left (fun a x -> if Float.is_nan x then a else Float.max a x) p.start p.recv in
          Option.iter (Report.layer r ("p99_ms." ^ tag) "ms") (Stats.percentile lat 0.99);
          Option.iter (Report.layer r ("gen.late_ms." ^ tag) "ms") (Stats.percentile late 0.99);
          Report.layer r ("achieved_rps." ^ tag) "1/s"
            (float_of_int (Array.length lat) /. (last -. p.start));
          Report.layer r ("server.cpu_us_per_req." ^ tag) "us"
            (cpu *. 1e6 /. float_of_int (Array.length reqs))
        end;
        (rate, (p50, p50w)))
      results
  in
  Report.e2e r "main_ms" "ms" (snd (List.assoc 1000.0 tcp_p50));
  Report.e2e r "alt_ms" "ms" (snd (List.assoc 3000.0 tcp_p50));
  let tcp_p50 = List.map (fun (rate, (p50, _)) -> (rate, p50)) tcp_p50 in
  if trace then begin
    Stages.measure r
      (Array.to_list (Array.map (fun m -> (Spnc.Options.default, m)) models));
    (* runtime and disk tier on the first tenants' kernels, with the
       rows the schedule sends them *)
    let rows_of t =
      List.concat_map
        (fun (_, (reqs : Inputs.request array), _, _) ->
          Array.to_list reqs
          |> List.filter (fun (q : Inputs.request) -> q.tenant = t)
          |> List.map (fun (q : Inputs.request) -> q.row))
        plans
      |> Array.of_list
    in
    Probes.runtime r (List.init probe_tenants (fun t -> (refs.(t), rows_of t)));
    Probes.disk_tier r ~options:Spnc.Options.default ~dir:(Filename.concat workdir "kcache")
      models.(0) (rows_of 0);
    replay r ~paths ~refs ~plans ~tcp_p50
  end
