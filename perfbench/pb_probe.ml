(* Per-layer numbers of a set of verifications.  Two sources:

   - each verdict's public [Engine.stats] (stage times, LP calls and rows,
     CEGIS rounds), summed over one pass;
   - re-driving each layer's public functions on the same inputs, timed
     from here: [Nn.eval1], [Ode.step_rk4], [Tape.compile] / [forward] /
     [revise], [Solver.solve_prepared], [Synthesis.Incremental.solve],
     [Level_search.search], [Store.save] / [load], [Checker.audit] and
     [Protocol.parse_line].

   Every re-driven call runs inside a span named after it: the program's
   own where it opens one, the benchmark's otherwise. *)

type sample = {
  name : string;
  problem : Pb_check.problem;
  network : Nn.t option;
  plant : Artifact.plant_id;
  report : Engine.report;
}

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Stage sums of one pass. *)
let stages samples =
  let st s = s.report.Engine.stats in
  let steps s =
    List.fold_left (fun acc tr -> acc + Ode.trace_length tr - 1) 0 s.report.Engine.traces
  in
  let other s =
    let st = st s in
    st.Engine.total_time -. st.Engine.sim_time -. st.Engine.lp_time -. st.Engine.smt5_time
    -. st.Engine.smt67_time
  in
  [
    ("ode.sim_s", sumf (fun s -> (st s).Engine.sim_time) samples, "s");
    ("ode.steps", sumf (fun s -> float_of_int (steps s)) samples, "count");
    ("smt5.s", sumf (fun s -> (st s).Engine.smt5_time) samples, "s");
    ("lp.s", sumf (fun s -> (st s).Engine.lp_time) samples, "s");
    ("lp.calls", sumf (fun s -> float_of_int (st s).Engine.lp_calls) samples, "count");
    ("lp.rows", sumf (fun s -> float_of_int (st s).Engine.lp_rows) samples, "count");
    ("level.s", sumf (fun s -> (st s).Engine.smt6_time +. (st s).Engine.smt7_time) samples, "s");
    ("cegis.iterations", sumf (fun s -> float_of_int (st s).Engine.candidate_iterations) samples, "count");
    ("engine.other_s", sumf other samples, "s");
  ]

let proved s = match s.report.Engine.outcome with Engine.Proved c -> Some c | Engine.Failed _ -> None

(* Mean seconds per call of [f], repeating until at least 2 ms have
   passed so that sub-microsecond calls still read above clock noise. *)
let per_call name f =
  Obs.Trace.with_span name @@ fun () ->
  let rec go n total_n total_t =
    let (), dt = Timing.time (fun () -> for _ = 1 to n do f () done) in
    let total_n = total_n + n and total_t = total_t +. dt in
    if total_t >= 0.002 then total_t /. float_of_int total_n else go (n * 4) total_n total_t
  in
  go 1 0 0.0

let states ~rng s = Array.init 16 (fun _ -> Pb_check.sample_in rng s.problem.Pb_check.config.Engine.safe_rect)

let nn_layer ~rng samples =
  let with_net = List.filter_map (fun s -> Option.map (fun n -> (s, n)) s.network) samples in
  let one (s, net) =
    let xs = states ~rng s in
    let i = ref 0 in
    let t =
      per_call "nn.eval1" (fun () ->
          ignore (Nn.eval1 net xs.(!i land 15) : float);
          incr i)
    in
    let w0 = Gc.minor_words () in
    Array.iter (fun x -> ignore (Nn.eval1 net x : float)) xs;
    (t, (Gc.minor_words () -. w0) /. 16.0)
  in
  let r = List.map one with_net in
  [
    ("nn.forward_us", 1e6 *. Pb_util.mean (List.map fst r), "us");
    ("nn.forward_alloc_words", Pb_util.mean (List.map snd r), "words");
  ]

let ode_layer ~rng samples =
  let one s =
    let sys = s.problem.Pb_check.system and dt = s.problem.Pb_check.config.Engine.sim_dt in
    let xs = states ~rng s in
    let i = ref 0 in
    per_call "ode.step_rk4" (fun () ->
        ignore (Ode.step_rk4 sys.Engine.numeric_field 0.0 xs.(!i land 15) dt : Vec.t);
        incr i)
  in
  [ ("ode.rk4_step_us", 1e6 *. Pb_util.mean (List.map one samples), "us") ]

(* The condition-(5) atom of a proved certificate: the largest atom of the
   formula the engine decides (the rest are rectangle bounds). *)
let cond5_atom s cert =
  let p = s.problem in
  let f = Engine.condition5_formula p.Pb_check.system p.Pb_check.config cert in
  let atoms = List.concat (Formula.to_dnf f) in
  let size (a : Formula.atom) = Expr.size a.Formula.expr in
  let a = List.fold_left (fun b a -> if size a > size b then a else b) (List.hd atoms) atoms in
  (f, a)

let index_of vars name =
  let rec go i = if vars.(i) = name then i else go (i + 1) in
  go 0

let box s = Array.map (fun (lo, hi) -> Interval.make lo hi) s.problem.Pb_check.config.Engine.safe_rect

type tape_probe = { slots : int; compile_s : float; forward_s : float; revise_s : float }

let tape_probe s cert =
  let vars = s.problem.Pb_check.system.Engine.vars in
  let _, atom = cond5_atom s cert in
  let partials = Array.map (fun v -> Expr.diff v atom.Formula.expr) vars in
  let compile () = Tape.compile ~index_of:(index_of vars) ~partials atom in
  let tape, compile_s = Obs.Trace.with_span "tape.compile" (fun () -> Timing.time compile) in
  let buf = Tape.make_buffers tape in
  let b = box s in
  let forward_s = per_call "tape.forward" (fun () -> ignore (Tape.forward tape buf b : Interval.t)) in
  let revise_s =
    per_call "tape.revise" (fun () ->
        let d = Array.copy b in
        try ignore (Tape.revise tape buf d : bool) with Tape.Empty_box -> ())
  in
  { slots = Tape.atom_node_count tape; compile_s; forward_s; revise_s }

let tape_layer tapes =
  [
    ("tape.slots", List.fold_left (fun m t -> Float.max m (float_of_int t.slots)) 0.0 tapes, "count");
    ("tape.compile_ms", 1e3 *. sumf (fun t -> t.compile_s) tapes, "ms");
    ("tape.forward_us", 1e6 *. Pb_util.mean (List.map (fun t -> t.forward_s) tapes), "us");
    ("tape.revise_us", 1e6 *. Pb_util.mean (List.map (fun t -> t.revise_s) tapes), "us");
  ]

(* Condition (5) and the level search re-decided on the proved
   certificates: the program's own spans ([solver.solve],
   [level_search.search]) time them, their counts are the solver
   counters. *)
let solver_and_level s cert =
  let p = s.problem in
  let cfg = p.Pb_check.config and sys = p.Pb_check.system in
  let f, _ = cond5_atom s cert in
  let bounds =
    Array.to_list (Array.mapi (fun i v -> (v, fst cfg.Engine.safe_rect.(i), snd cfg.Engine.safe_rect.(i))) sys.Engine.vars)
  in
  let prepared = Solver.prepare ~options:cfg.Engine.smt ~vars:(Array.to_list sys.Engine.vars) f in
  ignore (Solver.solve_prepared prepared ~bounds : Solver.verdict * Solver.stats);
  let spec =
    {
      Level_search.vars = sys.Engine.vars;
      x0_rect = cfg.Engine.x0_rect;
      safe_rect = cfg.Engine.safe_rect;
      unsafe_rect = cfg.Engine.safe_rect;
      smt = cfg.Engine.smt;
      max_iters = cfg.Engine.max_level_iters;
    }
  in
  ignore (Level_search.search spec cert.Engine.template cert.Engine.coeffs : Level_search.result)

(* The synthesis LP over the verdict's own traces, solved cold, then once
   more after one appended trace (a warm re-solve from the optimal basis),
   with the options [Engine.verify] gives it. *)
let lp_probe s =
  let cfg = s.problem.Pb_check.config and sys = s.problem.Pb_check.system in
  match s.report.Engine.traces with
  | [] -> None
  | first :: _ as traces ->
    let options =
      {
        cfg.Engine.synthesis with
        Synthesis.exclude_rect =
          Some (Option.value ~default:cfg.Engine.x0_rect cfg.Engine.synthesis.Synthesis.exclude_rect);
        separation_rects =
          Some
            (Option.value
               ~default:(cfg.Engine.x0_rect, cfg.Engine.safe_rect)
               cfg.Engine.synthesis.Synthesis.separation_rects);
      }
    in
    let template = Template.make cfg.Engine.template_kind sys.Engine.vars in
    let inc =
      Synthesis.Incremental.create ~options ~template ~field:sys.Engine.numeric_field traces
    in
    let solve name = snd (Obs.Trace.with_span name (fun () -> Timing.time (fun () -> Synthesis.Incremental.solve inc))) in
    let cold = solve "lp.cold" in
    Synthesis.Incremental.add_trace inc first;
    let warm = solve "lp.warm" in
    Some (cold, warm)

(* Store round trip and independent audit of each proved certificate, in a
   scratch store. *)
let cert_probe ~scratch s cert =
  let p = s.problem in
  let fp = Artifact.fingerprint ?network:s.network ~plant:s.plant p.Pb_check.system p.Pb_check.config in
  let art = Artifact.make ~fingerprint:fp ~plant:s.plant ~config:p.Pb_check.config cert in
  let _, save_s =
    Obs.Trace.with_span "store.save" (fun () ->
        Timing.time (fun () -> Store.save ~root:scratch ?network:s.network art))
  in
  let loaded, load_s =
    Obs.Trace.with_span "store.load" (fun () ->
        Timing.time (fun () -> Store.load ~root:scratch fp.Artifact.combined))
  in
  let art = match loaded with Ok e -> e.Store.artifact | Error _ -> art in
  let _, audit_s = Timing.time (fun () -> Checker.audit ?network:s.network ~system:p.Pb_check.system art) in
  (save_s, load_s, audit_s)

let parse_probe lines =
  let a = Array.of_list lines in
  let n = Array.length a in
  let i = ref 0 in
  let t =
    per_call "protocol.parse_line" (fun () ->
        ignore (Protocol.parse_line a.(!i mod n) : (Protocol.request, Protocol.parse_error) result);
        incr i)
  in
  [ ("protocol.parse_us", 1e6 *. t, "us") ]

(* Everything re-driven, for one pass worth of samples.  [lines] are the
   request lines that state the same problems on the serve protocol. *)
let redrive ~rng ~scratch ~lines samples =
  let proved = List.filter_map (fun s -> Option.map (fun c -> (s, c)) (proved s)) samples in
  let tapes = List.map (fun (s, c) -> tape_probe s c) proved in
  List.iter (fun (s, c) -> solver_and_level s c) proved;
  let lps = List.filter_map lp_probe samples in
  let certs = List.map (fun (s, c) -> cert_probe ~scratch s c) proved in
  let ms f xs = 1e3 *. Pb_util.mean (List.map f xs) in
  nn_layer ~rng samples @ ode_layer ~rng samples @ tape_layer tapes
  @ [
      ("lp.cold_ms", ms fst lps, "ms");
      ("lp.warm_ms", ms snd lps, "ms");
      ("store.save_ms", ms (fun (a, _, _) -> a) certs, "ms");
      ("store.load_ms", ms (fun (_, b, _) -> b) certs, "ms");
      ("checker.audit_ms", ms (fun (_, _, c) -> c) certs, "ms");
    ]
  @ parse_probe lines

(* The serve layer's numbers on workloads that do not serve. *)
let serve_idle =
  [
    ("serve.handler_ms", 0.0, "ms");
    ("serve.wait_ms", 0.0, "ms");
    ("serve.queue_high_water", 0.0, "count");
    ("cache.audit_declined", 0.0, "count");
  ]
