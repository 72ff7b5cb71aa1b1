(* table1-distinct: the paper's Table-1 scaling experiment on controllers
   shaped like trained ones.  The Dubins controller is widened to 100, 300
   and 1000 hidden neurons the way [Case_study.controller_of_width] does
   it, then every hidden neuron's non-zero input weights are scaled by
   1 + u and its bias shifted by u, u uniform in [-jitter, jitter], drawn
   from the workload seed.  The copies are then distinct, so hash-consing
   cannot merge them: the condition-(5) tape grows by about 7 slots per
   neuron instead of 1.  One pass is one cold [Engine.verify] per width. *)

let widths = [ 100; 300; 1000 ]
let jitter = 0.01

(* Fewer slots per neuron than this means the copies were merged again. *)
let min_slots_per_neuron = 5.0

let jittered ~rng (net : Nn.t) =
  match net.Nn.layers with
  | [ hidden; output ] ->
    let u () = Rng.uniform rng (-.jitter) jitter in
    let hidden =
      {
        hidden with
        Nn.weights =
          Array.map (Array.map (fun w -> if w = 0.0 then w else w *. (1.0 +. u ()))) hidden.Nn.weights;
        biases = Array.map (fun b -> b +. u ()) hidden.Nn.biases;
      }
    in
    Nn.of_layers ~input_dim:net.Nn.input_dim [ hidden; output ]
  | _ -> invalid_arg "Pb_table1.jittered: single-hidden-layer networks only"

type row = { width : int; net : Nn.t; problem : Pb_check.problem }

let row width net =
  { width; net; problem = { Pb_check.system = Case_study.system_of_network net; config = Engine.default_config } }

let verify r = Engine.verify ~config:r.problem.Pb_check.config ~rng:(Rng.create 7) r.problem.Pb_check.system

let sample r report =
  { Pb_probe.name = Printf.sprintf "nh%d" r.width; problem = r.problem; network = Some r.net;
    plant = Artifact.dubins_plant_id; report }

let slots r report =
  match report.Engine.outcome with
  | Engine.Proved cert -> Some (Pb_probe.tape_probe (sample r report) cert).Pb_probe.slots
  | Engine.Failed _ -> None

(* The merged family at the same widths, for the reference row: slots,
   condition-(5) time and simulation time with hashing free to merge. *)
let reference () =
  List.map
    (fun width ->
      let r = row width (Case_study.controller_of_width width) in
      let report = verify r in
      let st = report.Engine.stats in
      let slots = Option.value ~default:0 (slots r report) in
      Pb_util.log "reference row (merged copies) nh=%d: tape %d slots, condition5 %.3fs, simulation %.3fs"
        width slots st.Engine.smt5_time st.Engine.sim_time;
      Obs.Json.Obj
        [
          ("width", Obs.Json.Int width);
          ("tape_slots", Obs.Json.Int slots);
          ("smt5_s", Obs.Json.Float st.Engine.smt5_time);
          ("sim_s", Obs.Json.Float st.Engine.sim_time);
        ])
    widths

let setup ~seed ~rep:_ =
  let rng = Pb_util.rng ~seed ~stream:1 in
  let rows = List.map (fun w -> row w (jittered ~rng (Case_study.controller_of_width w))) widths in
  let last = ref [] and guarded = ref false in
  let check_rng = Pb_util.rng ~seed ~stream:2 in
  let pass () =
    let results =
      List.map
        (fun r ->
          let report, dt = Timing.time (fun () -> verify r) in
          (r, report, dt))
        rows
    in
    last := results;
    List.map (fun (_, _, dt) -> { Pb_harness.latency = dt; failed = false }) results
  in
  let after_pass () =
    let verdicts =
      List.concat
        (List.mapi
           (fun i (r, report, _) ->
             List.map
               (fun what -> { Pb_harness.op = Some i; what })
               (Pb_check.verdict ~rng:check_rng ~name:(Printf.sprintf "nh%d" r.width) ~should_prove:true
                  r.problem report))
           !last)
    in
    let guard =
      if !guarded then []
      else begin
        guarded := true;
        List.filter_map
          (fun (r, report, _) ->
            match slots r report with
            | None -> None
            | Some s ->
              let per = float_of_int s /. float_of_int r.width in
              Pb_util.log "table1-distinct nh=%d: condition-(5) tape %d slots (%.2f per neuron)" r.width s per;
              if per >= min_slots_per_neuron then None
              else
                Some
                  {
                    Pb_harness.op = None;
                    what =
                      Printf.sprintf "nh%d: condition-(5) tape has %.2f slots per neuron (< %.0f): the copies merged"
                        r.width per min_slots_per_neuron;
                  })
          !last
      end
    in
    verdicts @ guard
  in
  let layers () =
    let samples = List.map (fun (r, report, _) -> sample r report) !last in
    let lines =
      List.map
        (fun r -> Protocol.verify_line ~id:(Printf.sprintf "nh%d" r.width) ~network_path:(Printf.sprintf "nh%d.nn" r.width) ())
        rows
    in
    let scratch = Pb_util.fresh_dir "probe-store" in
    let m =
      Pb_probe.stages samples
      @ Pb_probe.redrive ~rng:(Pb_util.rng ~seed ~stream:3) ~scratch ~lines samples
      @ Pb_probe.serve_idle
    in
    Pb_util.rm_rf scratch;
    let distinct =
      List.map
        (fun (r, report, _) ->
          let st = report.Engine.stats in
          Pb_util.log "row (distinct copies) nh=%d: total %.3fs, condition5 %.3fs, simulation %.3fs" r.width
            st.Engine.total_time st.Engine.smt5_time st.Engine.sim_time;
          Obs.Json.Obj
            [
              ("width", Obs.Json.Int r.width);
              ("total_s", Obs.Json.Float st.Engine.total_time);
              ("smt5_s", Obs.Json.Float st.Engine.smt5_time);
              ("sim_s", Obs.Json.Float st.Engine.sim_time);
            ])
        !last
    in
    Pb_trace.extra :=
      [ ("distinct_copies", Obs.Json.List distinct); ("reference_merged_copies", Obs.Json.List (reference ())) ];
    m
  in
  { Pb_harness.pass; after_pass; layers; stop = (fun () -> []) }

let workload = { Pb_harness.name = "table1-distinct"; setup_reps = 1; setup }
