(* Benchmark entry point:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in this process, checks its outputs, prints a
   human-readable table, then as the last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0 (wall-clock ones scaled to the reference host, see
   Report.probe), the per-layer metrics with --trace 1.  Exit code 1 when
   a correctness check failed, 2 on a usage error. *)

let e2e_names = [ "setup_s"; "ops_per_s"; "p50_ms"; "p99_ms"; "live_heap_mb" ]

(* Every per-layer metric, in output order, with its unit.  A layer a
   workload does not run reports 0. *)
let layer_names =
  [
    ("wire.decode_s", "s"); ("wire.encode_s", "s"); ("wire.bytes_per_op", "B/op");
    ("smr.step_s", "s"); ("smr.input_s", "s"); ("smr.cmds_per_instance", "cmds");
    ("smr.backlog_max", "cmds"); ("smr.rate_q4_over_q1", "ratio");
    ("gc.minor_words_per_op", "words/op"); ("gc.live_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("transport.send_s", "s"); ("transport.poll_s", "s");
    ("hub.frames_per_op", "frames/op"); ("hub.undelivered", "frames");
    ("rel.self_s", "s"); ("rel.retransmits", "count");
    ("rel.retransmit_ratio", "ratio"); ("rel.dup_filtered", "count");
    ("rel.resequenced", "count");
    ("nemesis.dropped", "count"); ("nemesis.duplicated", "count");
    ("nemesis.self_s", "s");
    ("fd.leader_changes", "count"); ("fd.frames_per_round", "frames/round");
    ("fd.reconverge_rounds", "rounds");
    ("faults.latency_p50_rounds", "rounds"); ("faults.latency_p99_rounds", "rounds");
    ("faults.max_rate_per_kround", "cmds/kround");
    ("faults.failover_rounds", "rounds");
    ("router.read_s", "s"); ("router.read_rounds", "rounds/read");
    ("router.write_s", "s");
    ("shard.step_s", "s"); ("shard.rounds_per_write", "rounds/write");
    ("node.self_s", "s");
    ("mc.explore_s", "s"); ("mc.step_s", "s"); ("mc.invariant_s", "s");
    ("mc.schedules", "count"); ("mc.steps", "count"); ("mc.steps_per_s", "steps/s");
  ]
  @ List.map (fun t -> ("mc.verdict_s." ^ t, "s")) Mc_bench.target_names
  @ List.map
      (fun l -> ("split." ^ l ^ "_pct", "%"))
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun k -> k.Trace.layer) Trace.kinds)))
  @ [ ("trace.overhead_pct", "%") ]

let workloads =
  [
    ("smr_write", Smr_bench.run_write);
    ("smr_faults", Smr_bench.run_faults);
    ("kv_shard_reads", Kv_bench.run);
    ("mc_verify", Mc_bench.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload {smr_write|smr_faults|kv_shard_reads|mc_verify} \
     --seed N --seconds S --trace {0|1} [--trace-file PATH]";
  exit 2

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--trace-file" :: v :: rest -> trace_file := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some f when !trace = 0 || !trace = 1 -> f
    | _ -> usage ()
  in
  let traced = !trace = 1 in
  let o : Report.outcome =
    try run ~seed:!seed ~seconds:!seconds ~trace:traced
    with e ->
      {
        Report.errors = [ "exception: " ^ Printexc.to_string e ];
        attempted = 1;
        failed = 1;
        trials = 0;
        e2e = [];
        detail = [];
        layers = [];
      }
  in
  if traced && !trace_file <> "" then Trace.write !trace_file;
  let wanted =
    if traced then layer_names
    else List.map (fun name -> (name, "")) e2e_names
  in
  let have = if traced then o.layers else o.e2e in
  let errors = ref o.errors in
  List.iter
    (fun (m : Report.metric) ->
      if not (List.mem_assoc m.name wanted) then
        errors := ("unlisted metric " ^ m.name) :: !errors)
    have;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (m : Report.metric) -> m.name = name) have with
        | Some m ->
          if not (Float.is_finite m.value) then
            errors := ("non-finite metric " ^ name) :: !errors;
          (name, m.unit, if Float.is_finite m.value then m.value else 0.)
        | None when traced -> (name, unit, 0.)
        | None ->
          errors := ("missing metric " ^ name) :: !errors;
          (name, unit, 0.))
      wanted
  in
  let correct = !errors = [] in
  Printf.printf "workload %s  seed %d  trace %d  trials %d  cores %d  ocaml %s\n"
    !workload !seed !trace o.trials
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit)
    (if traced then o.layers else o.e2e @ o.detail);
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev !errors);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics));
  exit (if correct then 0 else 1)
