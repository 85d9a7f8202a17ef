(* Fuzzing and chaos-machinery tests: the committed regression corpus
   replayed through Frame -> Json -> Protocol.parse, seeded fuzz
   sweeps (plain and under armed net faults), the fault-plan grammars,
   and the cache circuit-breaker state machine. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Corpus replay *)

(* Resolved relative to the test binary so the replay works both under
   `dune runtest` and when the executable is run from the repo root. *)
let corpus_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "fuzz_corpus";
      "fuzz_corpus";
      Filename.concat "test" "fuzz_corpus";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some dir -> dir
  | None -> "fuzz_corpus"

let corpus_entries () =
  match Sys.readdir corpus_dir with
  | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".bin")
      |> List.sort String.compare
  | exception Sys_error _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let test_corpus_replay () =
  let entries = corpus_entries () in
  check_true "corpus is non-empty" (entries <> []);
  List.iter
    (fun name ->
      let payload = read_file (Filename.concat corpus_dir name) in
      match Server.Fuzz.run_one payload with
      | Ok _ -> ()
      | Error exn_s ->
          Alcotest.failf "corpus entry %s escaped: %s" name exn_s)
    entries

(* ------------------------------------------------------------------ *)
(* Seeded sweeps *)

let check_no_escapes label (s : Server.Fuzz.stats) =
  (match s.Server.Fuzz.escaped with
  | [] -> ()
  | (k, input, exn_s) :: _ ->
      Alcotest.failf "%s: input %d escaped with %s (input: %s)" label k
        exn_s input);
  check_true (label ^ ": every input classified")
    (s.Server.Fuzz.parsed + s.Server.Fuzz.bad_requests
     + s.Server.Fuzz.version_mismatches
    = s.Server.Fuzz.inputs)

let test_fuzz_sweep () =
  let s = Server.Fuzz.run ~seed:42 ~count:4000 () in
  check_no_escapes "seed 42" s;
  (* The generator must exercise every outcome class, or the sweep is
     testing less than it claims. *)
  check_true "some inputs parsed" (s.Server.Fuzz.parsed > 0);
  check_true "some bad requests" (s.Server.Fuzz.bad_requests > 0);
  check_true "some version mismatches" (s.Server.Fuzz.version_mismatches > 0);
  check_true "some frame trips" (s.Server.Fuzz.frame_trips > 0)

let test_fuzz_sweep_seeds () =
  List.iter
    (fun seed ->
      check_no_escapes
        (Printf.sprintf "seed %d" seed)
        (Server.Fuzz.run ~seed ~count:1000 ()))
    [ 0; 1; 7; 1337 ]

let test_fuzz_under_netfaults () =
  (* Arm net faults so the frame trips see torn/stalled/dropped/
     corrupted fd ops: outcomes must stay typed. *)
  Server.Netfault.arm ~stall_s:0.002
    { Runtime.Fault.kind = None;
      sel = Runtime.Fault.Fraction { rate = 0.3; seed = 9 } };
  Fun.protect ~finally:Server.Netfault.disarm (fun () ->
      let s = Server.Fuzz.run ~seed:5 ~count:600 ~frame_every:4 () in
      check_no_escapes "under net faults" s;
      check_true "net faults actually injected"
        (Server.Netfault.injected () > 0))

(* ------------------------------------------------------------------ *)
(* Fault-plan grammars *)

let test_netfault_grammar () =
  let open Runtime.Fault in
  let net kind sel = { kind; sel } in
  let frac rate = Fraction { rate; seed = 0 } in
  fault_grammar Server.Netfault.kinds
    ~accept:
      [
        ("nth:3", net None (Nth 3));
        ("drop:nth:0", net (Some Server.Netfault.Drop) (Nth 0));
        ("0.25@7", net None (Fraction { rate = 0.25; seed = 7 }));
        ("stall:0.1", net (Some Server.Netfault.Stall) (frac 0.1));
        ("torn:1.0", net (Some Server.Netfault.Torn) (frac 1.0));
        ("corrupt:nth:9", net (Some Server.Netfault.Corrupt) (Nth 9));
      ]
    ~reject:[ "nth:-1"; "1.5"; "-0.1"; "bogus:0.5"; "0.5@x"; ""; "nan:0.1" ]

let test_cache_fault_grammar () =
  let open Runtime.Fault in
  fault_grammar Runtime.Cache.fault_kinds
    ~accept:
      [
        ("nth:2", { kind = (); sel = Nth 2 });
        ("0.5@13", { kind = (); sel = Fraction { rate = 0.5; seed = 13 } });
      ]
    ~reject:
      [ "nth:x"; "2.0"; ""; "nan:0.1"; "slow:nth:1"; "torn:0.1"; "drop:nth:0" ]

(* The op indices each injector's salt faults among its first 200 ops,
   recorded from the per-injector implementations these plans replaced:
   a plan must keep faulting exactly these ops. *)
let test_fault_pinned_indices () =
  let faulted kinds spec =
    let plan =
      Runtime.Fault.arm kinds (Result.get_ok (Runtime.Fault.parse kinds spec))
    in
    List.filter_map
      (fun _ -> Option.map fst (Runtime.Fault.roll plan))
      (List.init 200 Fun.id)
  in
  let pin name kinds spec want =
    Alcotest.(check (list int)) (name ^ " " ^ spec) want (faulted kinds spec)
  in
  let tran = pin "tran.fault" Runtime.Engine.fault_kinds in
  tran "0.1@7"
    [ 7; 21; 24; 30; 31; 35; 40; 53; 61; 81; 88; 95; 130; 132; 142; 156; 159;
      172; 175; 195 ];
  tran "0.6@11"
    [ 0; 7; 9; 11; 12; 13; 14; 16; 17; 20; 22; 28; 30; 31; 33; 34; 38; 40;
      41; 42; 44; 46; 47; 48; 49; 50; 52; 54; 55; 56; 57; 59; 61; 64; 66; 67;
      68; 69; 70; 71; 73; 74; 75; 76; 84; 86; 87; 88; 89; 93; 99; 100; 101;
      104; 107; 109; 111; 114; 115; 118; 119; 121; 122; 124; 131; 132; 133;
      135; 137; 138; 139; 140; 141; 142; 143; 144; 145; 147; 148; 150; 152;
      154; 156; 158; 160; 161; 162; 163; 164; 165; 167; 168; 170; 171; 175;
      178; 179; 181; 182; 183; 185; 186; 187; 188; 190; 192; 194; 195; 196;
      198; 199 ];
  tran "0.05@7" [ 7; 21; 30; 35; 40; 53; 88; 95; 130; 172; 175; 195 ];
  tran "nth:3" [ 3 ];
  let cache = pin "cache.fault" Runtime.Cache.fault_kinds in
  cache "0.1@7"
    [ 2; 9; 15; 17; 24; 26; 29; 34; 37; 40; 51; 59; 64; 68; 71; 87; 97; 109;
      111; 116; 140; 141; 149; 152; 172; 174 ];
  cache "0.6@11"
    [ 0; 1; 2; 7; 10; 11; 12; 13; 15; 17; 18; 19; 21; 23; 25; 26; 28; 29; 32;
      33; 34; 36; 37; 39; 42; 43; 44; 46; 50; 54; 55; 57; 58; 59; 63; 64; 65;
      66; 67; 68; 70; 71; 72; 77; 78; 79; 83; 85; 86; 88; 89; 91; 92; 93; 94;
      96; 97; 99; 100; 101; 102; 104; 106; 107; 108; 109; 110; 114; 115; 116;
      117; 119; 120; 123; 124; 127; 129; 130; 131; 133; 134; 135; 137; 138;
      139; 140; 146; 147; 150; 153; 154; 155; 156; 157; 158; 161; 162; 164;
      167; 168; 169; 173; 174; 177; 180; 181; 182; 186; 187; 189; 192; 193;
      194; 196; 197; 199 ];
  cache "0.05@7" [ 9; 15; 24; 26; 37; 51; 68; 97; 109; 116; 172; 174 ];
  cache "nth:3" [ 3 ];
  let net = pin "net.fault" Server.Netfault.kinds in
  net "0.1@7"
    [ 8; 9; 18; 29; 39; 42; 54; 74; 75; 76; 86; 90; 96; 101; 111; 113; 130;
      136; 137; 141; 142; 156; 175; 182; 193 ];
  net "0.6@11"
    [ 0; 1; 2; 4; 5; 7; 11; 12; 13; 15; 16; 17; 19; 20; 21; 23; 24; 28; 30;
      31; 32; 33; 34; 37; 38; 39; 40; 41; 42; 44; 45; 48; 49; 52; 53; 57; 58;
      59; 60; 61; 65; 66; 72; 76; 77; 78; 80; 82; 85; 86; 87; 88; 89; 90; 91;
      92; 93; 100; 101; 103; 104; 105; 106; 108; 110; 111; 112; 113; 114; 115;
      116; 117; 118; 121; 123; 124; 125; 127; 128; 130; 132; 133; 136; 137;
      138; 142; 143; 144; 146; 149; 150; 151; 152; 155; 156; 157; 158; 159;
      160; 161; 163; 170; 171; 173; 174; 176; 178; 179; 180; 183; 187; 189;
      193; 195; 196; 197; 198 ];
  net "0.05@7" [ 8; 9; 42; 90; 96; 136; 141; 156; 175; 193 ];
  net "nth:3" [ 3 ]

(* ------------------------------------------------------------------ *)
(* Circuit breaker state machine *)

let mk_breaker ?(threshold = 3) ?(cooldown_s = 10.0) () =
  let now = ref 0.0 in
  let b =
    Runtime.Cache.Breaker.create ~threshold ~cooldown_s
      ~now:(fun () -> !now) ()
  in
  (b, now)

let test_breaker_cycle () =
  let open Runtime.Cache.Breaker in
  let b, now = mk_breaker () in
  check_true "starts closed" (state b = Closed);
  (* Failures below the threshold keep it closed... *)
  check_true "admit 1" (admit b);
  failure b;
  check_true "admit 2" (admit b);
  failure b;
  check_true "still closed" (state b = Closed);
  (* ...a success resets the streak... *)
  check_true "admit 3" (admit b);
  success b;
  check_true "admit 4" (admit b);
  failure b;
  check_true "streak was reset" (state b = Closed);
  (* ...and threshold consecutive failures open it. *)
  failure b;
  failure b;
  check_true "opened" (state b = Open);
  Alcotest.(check int) "one open" 1 (opens b);
  (* Open short-circuits until the cooldown. *)
  check_true "short-circuited" (not (admit b));
  check_true "short-circuited again" (not (admit b));
  Alcotest.(check int) "short circuits counted" 2 (short_circuits b);
  now := 9.0;
  check_true "still cooling" (not (admit b));
  now := 10.5;
  (* One probe is admitted, concurrent ops still shed. *)
  check_true "probe admitted" (admit b);
  check_true "half-open" (state b = Half_open);
  check_true "only one probe" (not (admit b));
  success b;
  check_true "reclosed" (state b = Closed);
  Alcotest.(check int) "one reclose" 1 (recloses b);
  (* A failed probe re-opens for another full cooldown. *)
  failure b;
  failure b;
  failure b;
  check_true "reopened" (state b = Open);
  now := 21.0;
  check_true "probe 2 admitted" (admit b);
  failure b;
  check_true "probe failure reopens" (state b = Open);
  Alcotest.(check int) "three opens" 3 (opens b);
  now := 40.0;
  check_true "probe 3" (admit b);
  success b;
  check_true "closed again" (state b = Closed)

(* Random op/clock sequences driven the way the cache drives the
   breaker (admit, then deliver the outcome only when admitted). *)
let breaker_events_gen =
  QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 3))

let test_breaker_properties =
  qcase ~count:300 "breaker invariants" breaker_events_gen (fun events ->
      let open Runtime.Cache.Breaker in
      let threshold = 3 and cooldown_s = 5.0 in
      let b, now = mk_breaker ~threshold ~cooldown_s () in
      let consecutive_failures = ref 0 in
      List.iter
        (fun e ->
          match e with
          | 0 | 1 -> (
              let was_closed = state b = Closed in
              let admitted = admit b in
              (* A closed breaker never sheds. *)
              if was_closed && not admitted then
                QCheck2.Test.fail_report "short-circuit while closed";
              if admitted then
                if e = 0 then begin
                  success b;
                  consecutive_failures := 0
                end
                else begin
                  failure b;
                  incr consecutive_failures;
                  (* Threshold consecutive failures never leave it
                     closed. *)
                  if !consecutive_failures >= threshold && state b = Closed
                  then QCheck2.Test.fail_report "closed past threshold"
                end)
          | 2 -> now := !now +. 1.0
          | _ ->
              now := !now +. cooldown_s +. 1.0;
              (* After delivering an outcome the streak bookkeeping
                 restarts relative to state, not the clock; clock
                 moves don't change the failure streak. *)
              ())
        events;
      (* Every open must precede its reclose. *)
      opens b >= recloses b && recloses b >= 0 && short_circuits b >= 0)

let test_breaker_create_validation () =
  (match Runtime.Cache.Breaker.create ~threshold:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 0 accepted");
  match Runtime.Cache.Breaker.create ~cooldown_s:(-1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative cooldown accepted"

(* ------------------------------------------------------------------ *)
(* Disk-fault injection drives the breaker in a real cache *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sta_fuzz_cache_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
      | files ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            files
      | exception Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let disk_plan rate seed =
  Runtime.Fault.arm Runtime.Cache.fault_kinds
    { Runtime.Fault.kind = (); sel = Runtime.Fault.Fraction { rate; seed } }

let test_cache_breaker_under_injected_faults () =
  with_tmp_dir (fun dir ->
      let now = ref 0.0 in
      let cache =
        Runtime.Cache.create ~disk_dir:dir ~breaker_threshold:4
          ~breaker_cooldown_s:5.0
          ~now:(fun () -> !now)
          ()
      in
      let wave = Waveform.Wave.create [| 0.0; 1e-12 |] [| 0.0; 1.0 |] in
      (* Every disk op fails while armed. *)
      Runtime.Cache.set_faults cache (Some (disk_plan 1.0 0));
      for i = 0 to 7 do
        Runtime.Cache.store cache (Printf.sprintf "key%d" i) [ wave ]
      done;
      check_true "breaker opened"
        (Runtime.Cache.breaker_state cache = Some Runtime.Cache.Breaker.Open);
      check_true "write errors counted" (Runtime.Cache.write_errors cache >= 4);
      (* Memory shards keep serving while the disk is fenced off. *)
      check_true "memory still serves" (Runtime.Cache.find cache "key0" <> None);
      check_true "short circuits happened"
        (Runtime.Cache.breaker_short_circuits cache > 0);
      Runtime.Cache.set_faults cache None;
      (* Disarmed + cooled down: the half-open probe re-closes it. *)
      now := 6.0;
      Runtime.Cache.store cache "probe" [ wave ];
      check_true "breaker reclosed"
        (Runtime.Cache.breaker_state cache
        = Some Runtime.Cache.Breaker.Closed);
      check_true "reclose counted" (Runtime.Cache.breaker_recloses cache = 1);
      (* And the disk layer is genuinely back: a fresh cache reads the
         probe entry from disk. *)
      let cache2 = Runtime.Cache.create ~disk_dir:dir () in
      check_true "disk writes resumed"
        (Runtime.Cache.find cache2 "probe" <> None))

let test_disk_fault_determinism () =
  let record () =
    with_tmp_dir (fun dir ->
        let plan = disk_plan 0.5 3 in
        let cache = Runtime.Cache.create ~disk_dir:dir () in
        Runtime.Cache.set_faults cache (Some plan);
        for i = 0 to 19 do
          ignore (Runtime.Cache.find cache (Printf.sprintf "k%d" i))
        done;
        (Runtime.Fault.injected plan, Runtime.Cache.read_errors cache))
  in
  let i1, e1 = record () and i2, e2 = record () in
  Alcotest.(check int) "same injections" i1 i2;
  Alcotest.(check int) "same read errors" e1 e2;
  check_true "some faults injected" (i1 > 0);
  check_true "not every op faulted" (i1 < 20)

let suite =
  ( "fuzz",
    [
      case "corpus replay stays typed" test_corpus_replay;
      case "seeded sweep stays typed" test_fuzz_sweep;
      case "more seeds stay typed" test_fuzz_sweep_seeds;
      case "sweep under net faults stays typed" test_fuzz_under_netfaults;
      case "netfault grammar" test_netfault_grammar;
      case "cache fault grammar" test_cache_fault_grammar;
      case "fault plan pinned indices" test_fault_pinned_indices;
      case "breaker closed->open->half->closed" test_breaker_cycle;
      test_breaker_properties;
      case "breaker create validation" test_breaker_create_validation;
      case "cache breaker under injected faults"
        test_cache_breaker_under_injected_faults;
      case "disk fault determinism" test_disk_fault_determinism;
    ] )
