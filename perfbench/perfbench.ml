(* Benchmark of the safebarrier pipeline: one command, four workloads.

   Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1

   Prints progress on stderr and, as the last line of stdout, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1 (whose
   spans are also written under .perfbench-out/).  See README.md. *)

let workloads = [ Pb_table1.workload; Pb_registry.workload; Pb_serve.workload; Pb_serve.registry_workload ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds of passes");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> Pb_util.die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.Pb_harness.name = !workload) workloads with
    | Some w -> w
    | None ->
      Pb_util.die "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Pb_harness.name) workloads))
  in
  let trace = !trace = 1 in
  let r = Pb_harness.run w ~seed:!seed ~seconds:!seconds ~trace in
  if trace then begin
    Pb_util.mkdir_p Pb_util.out_dir;
    let path =
      Filename.concat Pb_util.out_dir (Printf.sprintf "trace-%s.json" w.Pb_harness.name)
    in
    let spans = Obs.Trace.spans () in
    Obs.Json.write_file path (Pb_trace.to_json spans);
    List.iter
      (fun (name, t, n) -> Pb_util.log "self time %-28s %9.4fs over %d spans" name t n)
      (Pb_trace.self_times spans);
    Pb_util.log "wrote %s" path
  end;
  print_endline (Pb_harness.result_line r)
