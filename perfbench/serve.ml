(* serve_mixed: an in-process Server.Daemon with its deployed defaults
   (fast preset, in-memory cache, no pool) and the write-ahead journal
   on, driven by two closed-loop client connections from a separate
   domain. Nine in ten requests are warm — a fixed seeded set of
   (config, tau) points solved during set-up, each request with a
   fresh id so it misses the journal's dedup table — and one in ten is
   cold: a new seeded alignment that needs real solves. *)

open Common

let preset = Runtime.Engine.fast
let clients = 2

type point = { config : string; tau_ps : float }
type kind = Warm | Cold

let scenario_of config =
  match Server.Protocol.scenario_of_name config with
  | Ok s -> s
  | Error msg -> invalid_arg msg

(* A seeded alignment in stratum [j] of [strata] equal slices of the
   configuration's window, rounded to 1 fs so its decimal rendering is
   short. Stratifying keeps every seed's mix of window regions, and so
   its solve cost, the same. *)
let draw_point rng ~config ~j ~strata =
  let taus = Noise.Scenario.taus (scenario_of config) in
  let lo = taus.(0) *. 1e12 and hi = taus.(Array.length taus - 1) *. 1e12 in
  let w = (hi -. lo) /. float_of_int strata in
  let x = lo +. (w *. (float_of_int j +. Random.State.float rng 1.0)) in
  { config; tau_ps = Float.round (x *. 1e3) /. 1e3 }

let queries p =
  let tau = p.tau_ps *. 1e-12 in
  [
    Server.Protocol.Delay { config = p.config; tau; technique = "SGDP" };
    Server.Protocol.Gamma { config = p.config; tau; ladder = None };
  ]

(* The warm set: per configuration, one point in each third of the
   window (one in all for the smoke size). *)
let warm_points ~seed ~smoke =
  let rng = Random.State.make [| seed; 5 |] in
  let strata = if smoke then 1 else 3 in
  List.concat_map
    (fun config -> List.init strata (fun j -> draw_point rng ~config ~j ~strata))
    [ "i"; "ii" ]

let warm_queries points = List.concat_map queries points

(* The order warm requests cycle through: a seeded shuffle. *)
let warm_cycle ~seed points =
  let rng = Random.State.make [| seed; 8 |] in
  let qs = Array.of_list (warm_queries points) in
  for i = Array.length qs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = qs.(i) in
    qs.(i) <- qs.(j);
    qs.(j) <- x
  done;
  qs

(* Request [k] of the run, the same for a given seed whichever client
   sends it. Requests come in blocks of 10 with exactly one cold
   request at a seeded position. Warm requests cycle through a seeded
   permutation of the warm queries; from block to block the cold
   request cycles through configuration, op and window quarter, with a
   seeded alignment in the quarter. Ids start above the set-up requests' so every payload
   is new to the daemon. *)
let block = 10

let request ~seed ~warm k =
  let b = k / block and pos = k mod block in
  let cold_pos = Random.State.int (Random.State.make [| seed; 6; b |]) block in
  let kind, query =
    if pos = cold_pos then
      let rng = Random.State.make [| seed; 7; b |] in
      let config = if b mod 2 = 0 then "i" else "ii" in
      let p = draw_point rng ~config ~j:(b / 4 mod 4) ~strata:4 in
      (Cold, List.nth (queries p) (b / 2 mod 2))
    else
      let w = k - b - if pos > cold_pos then 1 else 0 in
      (Warm, warm.(w mod Array.length warm))
  in
  (kind, { Server.Protocol.id = 1_000_000 + k; query; deadline_ms = None })

(* ------------------------------------------------------------------ *)
(* Scratch space inside the checkout: socket and journal. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let run_dir = Printf.sprintf ".perfbench/%d" (Unix.getpid ())

type daemon = {
  d : Server.Daemon.t;
  addr : Server.Client.addr;
  cache : Runtime.Cache.t;
  dir : string;
}

let call_all addr reqs =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () ->
      List.map (fun r -> (r, Server.Client.call_raw c r)) reqs)

let start_daemon ~n ~warm =
  let dir = Printf.sprintf "%s/d%d" run_dir n in
  mkdir_p dir;
  let cache = Runtime.Cache.create () in
  let engine = Runtime.Engine.with_cache preset cache in
  let addr = Server.Client.Unix_path (dir ^ "/sock") in
  let d =
    Server.Daemon.start
      {
        Server.Daemon.default_config with
        addr;
        engine;
        max_batch = Runtime.Engine.batch engine;
        journal_dir = Some (dir ^ "/journal");
      }
  in
  (* The warm set is solved through the daemon itself, so its cache
     holds exactly what the warm requests will hit. *)
  let warmed =
    call_all addr
      (List.mapi
         (fun i query -> { Server.Protocol.id = i; query; deadline_ms = None })
         (warm_queries warm))
  in
  ({ d; addr; cache; dir }, warmed)

let stop_daemon t =
  Server.Daemon.stop t.d;
  rm_rf t.dir

(* ------------------------------------------------------------------ *)
(* The closed loop. *)

type sample = {
  k : int;
  kind : kind;
  req : Server.Protocol.request;
  rtt : float;
  reply : (string, string) result;
}

(* The name run.py recognises the load generator's threads by. *)
let name_thread name =
  try
    let oc = open_out "/proc/thread-self/comm" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc name)
  with Sys_error _ -> ()

(* The peak RSS is read once this many requests per second of budget
   have completed: the daemon's cache grows with every cold request, so
   a reading at the end would grow with how fast the host ran. *)
let rss_requests_per_s = 125.0

let drive ~seed ~warm ~seconds addr =
  let next = Atomic.make 0 and completed = Atomic.make 0 in
  let rss_at = int_of_float (rss_requests_per_s *. seconds) in
  let deadline = now () +. seconds in
  let worker out () =
    name_thread "perfbench-load";
    let c = Server.Client.connect addr in
    let rec loop () =
      if now () < deadline then begin
        let k = Atomic.fetch_and_add next 1 in
        let kind, req = request ~seed ~warm k in
        let reply, rtt = timed (fun () -> Server.Client.call_raw c req) in
        out := { k; kind; req; rtt; reply } :: !out;
        if 1 + Atomic.fetch_and_add completed 1 = rss_at then mark_peak_rss ();
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> Server.Client.close c) loop
  in
  let t0 = now () in
  (* The load comes from its own domain, so the clients never wait on
     the daemon's runtime lock. *)
  let outs =
    Domain.join
      (Domain.spawn (fun () ->
           let outs = List.init clients (fun _ -> ref []) in
           let ts = List.map (fun o -> Thread.create (worker o) ()) outs in
           List.iter Thread.join ts;
           List.map (fun o -> !o) outs))
  in
  let elapsed = now () -. t0 in
  (List.sort (fun a b -> compare a.k b.k) (List.concat outs), elapsed)

let daemon_counters addr =
  match
    call_all addr [ { Server.Protocol.id = 0; query = Server.Protocol.Stats; deadline_ms = None } ]
  with
  | [ (_, Ok bytes) ] -> (
      match Server.Json.parse bytes with
      | Ok doc -> (
          match Option.bind (Server.Json.member "ok" doc) (Server.Json.member "counters") with
          | Some (Server.Json.Obj kvs) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun x -> (k, x)) (Server.Json.to_float v))
                kvs
          | _ -> [])
      | Error _ -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Verification: every reply must equal, byte for byte, the in-process
   rendering of the same payload on the same preset — parse, execute,
   respond, serialise. The replay engine has its own cache, warmed on
   the warm set first, so warm replays are cache hits as on the daemon
   and cold ones solve. Each stage is timed. *)

type stages = { parse : float; execute : float; encode : float }

let render engine payload =
  let parsed, parse = timed (fun () -> Server.Protocol.parse_request payload) in
  match parsed with
  | Error e ->
      (Server.Json.to_string (Server.Protocol.parse_error_response e),
       { parse; execute = 0.0; encode = 0.0 })
  | Ok r ->
      let result, execute =
        timed (fun () -> Server.Protocol.execute ~engine r.Server.Protocol.query)
      in
      let bytes, encode =
        timed (fun () ->
            Server.Json.to_string (Server.Protocol.response ~id:r.Server.Protocol.id result))
      in
      (bytes, { parse; execute; encode })

let payload r = Server.Json.to_string (Server.Protocol.request_to_json r)

let is_error_reply bytes =
  match Server.Json.parse bytes with
  | Ok doc -> Server.Json.member "error" doc <> None
  | Error _ -> true

let verify ~warm samples =
  let engine = fresh_engine preset in
  List.iter
    (fun q -> ignore (Server.Protocol.execute ~engine q))
    (warm_queries warm);
  List.map
    (fun s ->
      let expected, stage = render engine (payload s.req) in
      let ok =
        match s.reply with
        | Error e ->
            problem "request %d: transport error %s" s.k e;
            false
        | Ok bytes when bytes <> expected ->
            problem "request %d: reply differs from the in-process rendering" s.k;
            false
        | Ok bytes when is_error_reply bytes ->
            problem "request %d: error response %s" s.k bytes;
            false
        | Ok _ -> true
      in
      op_ok ok;
      (s, stage))
    samples

(* The warm execute path broken into its layers: each distinct warm
   delay query is executed plainly, then replayed call by call, on the
   warmed replay engine. *)
let decompose_warm ~warm ~reps =
  let engine = fresh_engine preset in
  List.iter (fun q -> ignore (Server.Protocol.execute ~engine q)) (warm_queries warm);
  let plain = ref 0.0 and traced = ref 0.0 in
  let sgdp = [ Eqwave.Registry.find "SGDP" ] in
  List.iter
    (fun p ->
      let scen = scenario_of p.config and tau = p.tau_ps *. 1e-12 in
      let q = Server.Protocol.Delay { config = p.config; tau; technique = "SGDP" } in
      let noiseless = Noise.Injection.noiseless ~engine scen in
      for _ = 1 to reps do
        plain := !plain +. snd (timed (fun () -> Server.Protocol.execute ~engine q));
        traced :=
          !traced
          +. snd
               (timed (fun () ->
                    span "eval.case" (fun () ->
                        ignore (traced_case ~engine ~techniques:sgdp scen ~noiseless ~tau))))
      done)
    warm;
  (!plain, !traced)

let noisy_solve_ms ~seed =
  let rng = Random.State.make [| seed; 9 |] in
  median
    (List.init 4 (fun j ->
         let p = draw_point rng ~config:(if j mod 2 = 0 then "i" else "ii") ~j ~strata:4 in
         let scen = scenario_of p.config in
         let tau = p.tau_ps *. 1e-12 in
         1e3 *. snd (timed (fun () -> Noise.Injection.noisy ~engine:preset scen ~tau))))

let ms_of f xs = 1e3 *. f xs

let run ~seed ~seconds ~smoke ~trace =
  let warm = warm_points ~seed ~smoke in
  detail "serve.warm_set"
    (String.concat "," (List.map (fun p -> Printf.sprintf "%s@%.3fps" p.config p.tau_ps) warm));
  mkdir_p run_dir;
  let cleanup () =
    rm_rf run_dir;
    try Unix.rmdir (Filename.dirname run_dir) with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let n = ref 0 in
  let t, warmed =
    setup ~discard:(fun (t, _) -> stop_daemon t) (fun () ->
        incr n;
        start_daemon ~n:!n ~warm)
  in
  List.iter
    (fun ((r : Server.Protocol.request), reply) ->
      match reply with
      | Ok bytes when not (is_error_reply bytes) -> ()
      | _ -> problem "warm-up request %d failed" r.Server.Protocol.id)
    warmed;
  let before = snapshot () in
  let samples, elapsed = drive ~seed ~warm:(warm_cycle ~seed warm) ~seconds t.addr in
  let after = snapshot () in
  (* before the in-process replays below add their own caches *)
  mark_peak_rss ();
  let counters = daemon_counters t.addr in
  stop_daemon t;
  let rtts kind = List.filter_map (fun s -> if s.kind = kind then Some s.rtt else None) samples in
  let all = List.map (fun s -> s.rtt) samples in
  detailf "serve.requests" "%d" (List.length samples);
  detailf "serve.warm_n" "%d" (List.length (rtts Warm));
  detailf "serve.cold_n" "%d" (List.length (rtts Cold));
  let checked = verify ~warm samples in
  if not trace then begin
    emit "ops_per_s" "1/s" (float_of_int (List.length samples) /. elapsed);
    emit "op_ms" "ms" (ms_of median all);
    emit "op_tail_ms" "ms" (ms_of (quantile 0.99) all)
  end
  else begin
    emit "serve.warm_p50_ms" "ms" (ms_of median (rtts Warm));
    emit "serve.warm_p99_ms" "ms" (ms_of (quantile 0.99) (rtts Warm));
    emit "serve.cold_p50_ms" "ms" (ms_of median (rtts Cold));
    emit "serve.cold_p90_ms" "ms" (ms_of (quantile 0.9) (rtts Cold));
    emit "serve.warm_n" "count" (float_of_int (List.length (rtts Warm)));
    emit "serve.cold_n" "count" (float_of_int (List.length (rtts Cold)));
    let of_kind kind f =
      List.filter_map (fun (s, st) -> if s.kind = kind then Some (f st) else None) checked
    in
    let stage f = List.map (fun (_, st) -> f st) checked in
    emit "server.rtt_ms" "ms" (ms_of median all);
    emit "server.parse_us" "us" (1e6 *. median (stage (fun st -> st.parse)));
    emit "server.execute_ms.warm" "ms" (ms_of median (of_kind Warm (fun st -> st.execute)));
    emit "server.execute_ms.cold" "ms" (ms_of median (of_kind Cold (fun st -> st.execute)));
    emit "server.encode_us" "us" (1e6 *. median (stage (fun st -> st.encode)));
    (* What the round trip spends outside parse, execute and encode:
       admission, queueing behind other solves, the journal, sockets. *)
    let waits =
      List.map (fun (s, st) -> s.rtt -. st.parse -. st.execute -. st.encode) checked
    in
    emit "server.wait_ms" "ms" (ms_of median waits);
    let counter k = Option.value ~default:0.0 (List.assoc_opt k counters) in
    let batches = counter "server.batches" in
    emit "server.batches" "count" batches;
    emit "server.batch_size" "ratio"
      (ratio (counter "server.executed" +. counter "server.exec_errors") batches);
    emit "server.journal_appended" "count" (counter "server.journal_appended");
    emit "server.shed" "count" (counter "server.shed");
    emit_spice ~before ~after;
    emit_caches [ t.cache ];
    emit "injection.noisy_ms" "ms" (noisy_solve_ms ~seed);
    (* Layer self times of the warm execute path. *)
    let plain, traced = decompose_warm ~warm ~reps:(if smoke then 2 else 20) in
    emit_calls ();
    let self =
      [
        ("spice", replay_solve_self ());
        ("injection", injection_self ());
        ("waveform", total "waveform");
        ("eqwave", eqwave_self ());
        ("eval", eval_self ());
      ]
    in
    emit "self_ms.server" "ms"
      (1e3 *. sum (List.map (fun (_, st) -> st.parse +. st.encode) checked));
    emit_layers ~self ~untraced_wall:plain ~traced_wall:traced
  end
