(* registry-sweep: every registry scenario, one cold [Engine.verify] each
   at the seed the scenario suite uses (7).  The scenarios cover 8 plants
   (Zhao et al., arXiv:2009.09826; Peruffo et al., arXiv:2007.03251; the
   paper's Dubins case study), 2-D and 3-D systems, quadratic and poly:4
   templates, and five problems that must fail structurally.  Each verdict
   is small, so per-verdict fixed costs dominate.  The workload seed fixes
   the order of the pass and the check sample points. *)

type item = { entry : Registry.entry; e : Scenario.elaborated; problem : Pb_check.problem }

let should_prove it = it.entry.Registry.scenario.Scenario.expectation = Some Scenario.Should_prove

let elaborate entry =
  let scenario = { entry.Registry.scenario with Scenario.jobs = Some 1 } in
  match Registry.elaborate scenario with
  | Error reason -> Pb_util.die "scenario %s does not elaborate: %s" entry.Registry.name reason
  | Ok e ->
    { entry; e; problem = { Pb_check.system = e.Scenario.closed.Plant.system; config = e.Scenario.config } }

let verify it = Engine.verify ~config:it.problem.Pb_check.config ~rng:(Rng.create 7) it.problem.Pb_check.system

let sample it report =
  {
    Pb_probe.name = it.entry.Registry.name;
    problem = it.problem;
    network = it.e.Scenario.closed.Plant.network;
    plant = it.e.Scenario.closed.Plant.id;
    report;
  }

let setup ~seed ~rep:_ =
  let items = Array.of_list (List.map elaborate (Registry.scenarios ())) in
  Rng.shuffle (Pb_util.rng ~seed ~stream:1) items;
  let items = Array.to_list items in
  let check_rng = Pb_util.rng ~seed ~stream:2 in
  let last = ref [] in
  let pass () =
    let results =
      List.map
        (fun it ->
          let report, dt = Timing.time (fun () -> verify it) in
          (it, report, dt))
        items
    in
    last := results;
    List.map (fun (_, _, dt) -> { Pb_harness.latency = dt; failed = false }) results
  in
  let after_pass () =
    List.concat
      (List.mapi
         (fun i (it, report, _) ->
           List.map
             (fun what -> { Pb_harness.op = Some i; what })
             (Pb_check.verdict ~rng:check_rng ~name:it.entry.Registry.name ~should_prove:(should_prove it)
                it.problem report))
         !last)
  in
  let layers () =
    let samples = List.map (fun (it, report, _) -> sample it report) !last in
    let lines =
      List.map
        (fun it ->
          Protocol.verify_line ~id:it.entry.Registry.name ~scenario_path:(it.entry.Registry.name ^ ".scn") ())
        items
    in
    let scratch = Pb_util.fresh_dir "probe-store" in
    let m =
      Pb_probe.stages samples
      @ Pb_probe.redrive ~rng:(Pb_util.rng ~seed ~stream:3) ~scratch ~lines samples
      @ Pb_probe.serve_idle
    in
    Pb_util.rm_rf scratch;
    m
  in
  { Pb_harness.pass; after_pass; layers; stop = (fun () -> []) }

let workload = { Pb_harness.name = "registry-sweep"; setup_reps = 25; setup }
