(* The measurement loop shared by every workload.

   A workload is a fixed list of operations run in whole passes.  Set-up is
   everything before the first timed operation, including one untimed
   warm-up pass; it is repeated [setup_reps] times and its median reported.
   Timed passes then run until their summed time reaches [--seconds].
   Correctness checks run between passes, outside the timed region, and so
   do the allocation and CPU readings' pauses. *)

type op = { latency : float;  (** seconds, as the caller saw it *) failed : bool }

type metric = string * float * string

(* A correctness violation, tied to the operation it was found on (its
   index in the pass) when there is one.  That operation counts as failed. *)
type finding = { op : int option; what : string }

type instance = {
  pass : unit -> op list;  (** one whole pass, in a fixed order *)
  after_pass : unit -> finding list;  (** correctness violations of the last pass *)
  layers : unit -> metric list;  (** traced runs: per-layer numbers of one pass *)
  stop : unit -> finding list;  (** tear-down, with its own correctness findings *)
}

type workload = {
  name : string;
  setup_reps : int;
  setup : seed:int -> rep:int -> instance;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* [Obs.Metrics] counters reported per pass, by metric name. *)
let counter_names =
  [
    ("tape.compiles", "tape.compile");
    ("solver.branches", "solver.branches");
    ("solver.prunes", "solver.prunes");
    ("solver.hc4_revise", "solver.hc4_revise");
    ("solver.solves", "solver.solves");
    ("lp.pivots", "lp.pivots");
    ("level_search.bisections", "level_search.bisections");
    ("cegis.cex_cuts", "cegis.cex_cuts");
    ("cache.hits", "cert_cache.hit");
    ("cache.warm_starts", "cert_cache.warm_start");
    ("cache.misses", "cert_cache.miss");
  ]

let read_counters () =
  List.map (fun (name, c) -> (name, Obs.Metrics.value (Obs.Metrics.counter c))) counter_names

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* The pass's operations, with those a finding names marked failed. *)
let mark_failed ops findings =
  List.mapi (fun i (o : op) -> if List.exists (fun f -> f.op = Some i) findings then { o with failed = true } else o) ops

type pass = { dt : float; cpu : float; ops : op list }

let run w ~seed ~seconds ~trace =
  let violations = ref [] in
  let note fs = violations := !violations @ List.map (fun f -> f.what) fs in
  if trace then begin
    Obs.Metrics.enable ();
    Obs.Trace.enable ()
  end;
  let setup_times = ref [] and current = ref None in
  for rep = 1 to w.setup_reps do
    Option.iter (fun (i : instance) -> note (i.stop ())) !current;
    let inst, dt =
      Timing.time (fun () ->
          Obs.Trace.with_span "setup" (fun () ->
              let inst = w.setup ~seed ~rep in
              ignore (Obs.Trace.with_span "warmup" inst.pass : op list);
              inst))
    in
    Pb_util.log "%s set-up %d: %.4fs" w.name rep dt;
    note (inst.after_pass ());
    setup_times := dt :: !setup_times;
    current := Some inst
  done;
  let inst = Option.get !current in
  Obs.Metrics.reset ();
  let counters0 = read_counters () and majors0 = major_collections () in
  let passes = ref [] and elapsed = ref 0.0 and words = ref 0.0 and minor = ref 0.0 in
  while !passes = [] || !elapsed < seconds do
    let w0 = Pb_util.allocated_words () and m0 = (Gc.quick_stat ()).Gc.minor_words in
    let c0 = Pb_util.cpu_seconds () in
    let res, dt = Timing.time (fun () -> Obs.Trace.with_span "pass" inst.pass) in
    words := !words +. (Pb_util.allocated_words () -. w0);
    minor := !minor +. ((Gc.quick_stat ()).Gc.minor_words -. m0);
    let cpu = Pb_util.cpu_seconds () -. c0 in
    elapsed := !elapsed +. dt;
    Pb_util.log "%s pass %d: %.4fs" w.name (List.length !passes + 1) dt;
    let findings = inst.after_pass () in
    passes := { dt; cpu; ops = mark_failed res findings } :: !passes;
    note findings
  done;
  let n_pass = float_of_int (List.length !passes) in
  let all_ops = List.concat_map (fun p -> p.ops) !passes in
  let attempted = List.length all_ops in
  let failed = List.length (List.filter (fun (o : op) -> o.failed) all_ops) in
  let pass_s = Pb_util.median (List.map (fun p -> p.dt) !passes) in
  let latencies_ms = List.map (fun (o : op) -> 1e3 *. o.latency) all_ops in
  let per_op x = x /. float_of_int attempted in
  let metrics =
    if not trace then
      [
        ("setup_s", Pb_util.median !setup_times, "s");
        ("pass_s", pass_s, "s");
        ("alloc_mb_per_op", per_op (!words *. Pb_util.bytes_per_word /. 1e6), "MB");
        ("peak_heap_mb", Pb_util.peak_heap_mb (), "MB");
        ("cpu_ms_per_op", per_op (1e3 *. Pb_util.sum (List.map (fun p -> p.cpu) !passes)), "ms");
        ("latency_p50_ms", Pb_util.quantile 0.5 latencies_ms, "ms");
        ("latency_p90_ms", Pb_util.quantile 0.9 latencies_ms, "ms");
      ]
    else begin
      let counters =
        List.map2
          (fun (name, a) (_, b) -> (name, float_of_int (b - a) /. n_pass))
          counters0 (read_counters ())
      in
      let c name = List.assoc name counters in
      let majors = float_of_int (major_collections () - majors0) /. n_pass in
      let top_heap = Pb_util.peak_heap_mb () in
      let layers = inst.layers () in
      let count name = (name, c name, "count") in
      List.map count
        [
          "tape.compiles"; "solver.branches"; "solver.prunes"; "solver.hc4_revise"; "solver.solves";
          "lp.pivots"; "level_search.bisections"; "cegis.cex_cuts"; "cache.hits"; "cache.warm_starts";
        ]
      @ [
          ( "solver.prune_ratio",
            (if c "solver.branches" > 0.0 then c "solver.prunes" /. c "solver.branches" else 0.0),
            "ratio" );
          ("cache.colds", c "cache.misses" -. c "cache.warm_starts", "count");
          ("gc.minor_mwords", !minor /. n_pass /. 1e6, "Mwords");
          ("gc.major_collections", majors, "count");
          ("gc.top_heap_mb", top_heap, "MB");
          ("trace.pass_s", pass_s, "s");
        ]
      @ layers
    end
  in
  note (inst.stop ());
  List.iteri (fun i v -> if i < 20 then Pb_util.log "VIOLATION %s" v) !violations;
  { correct = !violations = []; attempted; failed; metrics }

let result_line r =
  let metric (name, v, u) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v)
      u
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
