(* perfbench: the repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]

   Runs one workload (table1_sweep, align_search or serve_mixed) for
   about S seconds on inputs drawn from seed N. With --trace 0 it
   reports the end-to-end metrics; with --trace 1 it adds a traced pass
   that times every layer from outside and reports the per-layer
   metrics. --smoke shrinks every workload to its smallest size. The
   last two lines of standard output are a JSON object of run details
   and the JSON result; run.py checks both against BENCHMARK.json. *)

open Common

let workloads =
  [
    ("table1_sweep", (Table1.run, Table1.preset));
    ("align_search", (Align.run, Align.preset));
    ("serve_mixed", (Serve.run, Serve.preset));
  ]

let json_string s = Server.Json.to_string (Server.Json.Str s)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " smallest size of every workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  let run, preset =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !smoke then setup_reps := 1;
  let tracing = !trace = 1 in
  run ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~trace:tracing;
  if not tracing then begin
    emit "setup_s" "s" (median !setup_times);
    emit "max_rss_mb" "MiB"
      (match !peak_rss with Some mb -> mb | None -> max_rss_mb ())
  end;
  detailf "setup_samples" "%d" (List.length !setup_times);
  detail "preset" (Runtime.Engine.name preset);
  Printf.printf "{%s, \"problems\": [%s]}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) (List.rev !details)))
    (String.concat ", " (List.map json_string (first_problems ())));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = []) !attempted !failed
    (String.concat ", "
       (List.rev_map
          (fun (name, unit_, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_num v)
              (json_string unit_))
          !metrics))
