(* The two served workloads.  Each runs an in-process serve daemon (2
   worker domains, the real store-backed handler) driven over its Unix
   socket by 2 client connections in a closed loop: each client sends its
   next request only after the previous reply, as CI batch clients do.

   registry-serve starts from an empty store and sends the 14 registry
   scenarios with [no_cache], so every request is verified cold (see
   [fresh_requests]).

   store-serve: set-up fills a fresh store with the certificates of the registry's 9
   should-prove scenarios, then starts the daemon and pings it.  One pass
   is one batch per client, 11 requests each, 22 in all.  Each client
   re-submits every stored problem once and sends one changed problem of
   each kind (an assumed mix, not a measured one):

   - the 8 stored problems other than the inverted pendulum (16 requests),
     answered as audited exact hits;
   - [inverted-pendulum] (2), whose hit the audit declines today (its
     condition-(5) margin lies inside the audit's delta), so it is
     re-verified cold; each such reply counts as a failed operation;
   - Dubins at width 10 or 20 (2), not in the store: warm-started from the
     stored width-2 certificate;
   - duffing or poly-2d at gamma 1e-5 (2), not in the store: cold.

   The misses export certificates, so the store is written while it is
   read.  Between passes, outside the timed region, the entries a pass
   added are checked and removed, so every pass starts from the same
   store. *)

let workers = 2
let clients = 2
let widths = [ 10; 20 ]
let gamma_scenarios = [ "duffing"; "poly-2d" ]
let new_gamma = 1e-5
let flaky_hit = "inverted-pendulum"

type kind =
  | Hit
  | Declined_hit
  | Warm
  | Cold_gamma
  | Fresh of bool  (** registry-serve: a problem not in the store; whether it should prove *)

let kinds = [ Hit; Declined_hit; Warm; Cold_gamma; Fresh true; Fresh false ]

let kind_name = function
  | Hit -> "hit"
  | Declined_hit -> "inverted-pendulum repeat"
  | Warm -> "new width"
  | Cold_gamma -> "new gamma"
  | Fresh true -> "fresh, should prove"
  | Fresh false -> "fresh, should fail"

let expected_source = function
  | Hit | Declined_hit -> "cache_hit"
  | Warm -> "warm_start"
  | Cold_gamma | Fresh _ -> "cold"

let exports = function Warm | Cold_gamma | Fresh true -> true | Hit | Declined_hit | Fresh false -> false

type request = {
  kind : kind;
  label : string;
  scenario_path : string;
  gamma : float option;
  problem : Pb_check.problem;
  closed : Plant.closed;
}

type reply = {
  req : request;
  line : string;
  json : Obs.Json.t option;
  t_sent : float;
  latency : float;  (** from sending the request to reading the reply *)
}

let field k j = Option.bind j (Obs.Json.member k)
let str k j = match field k j with Some (Obs.Json.String s) -> Some s | _ -> None
let num k j = Option.bind (field k j) Obs.Json.number

let elaborate path =
  match Result.bind (Scenario.load path) (Registry.elaborate ~dir:(Filename.dirname path)) with
  | Ok e -> e
  | Error reason -> Pb_util.die "%s: %s" path reason

let request ~kind ~label ?gamma path =
  let e = elaborate path in
  let config = e.Scenario.config in
  let config = match gamma with Some g -> { config with Engine.gamma = g } | None -> config in
  { kind; label; scenario_path = path; gamma; closed = e.Scenario.closed;
    problem = { Pb_check.system = e.Scenario.closed.Plant.system; config } }

(* --- set-up ---------------------------------------------------------- *)

let should_prove () =
  List.filter
    (fun e -> e.Registry.scenario.Scenario.expectation = Some Scenario.Should_prove)
    (Registry.scenarios ())

let write_scenarios dir =
  let path name = Filename.concat dir (name ^ ".scn") in
  List.iter (fun e -> Scenario.save (path e.Registry.name) e.Registry.scenario) (Registry.scenarios ());
  let dubins =
    match Registry.find_scenario "dubins" with
    | Some e -> e.Registry.scenario
    | None -> Pb_util.die "registry has no dubins scenario"
  in
  List.iter
    (fun w ->
      Scenario.save (path (Printf.sprintf "dubins-w%d" w)) { dubins with Scenario.controller = Scenario.Width w })
    widths;
  path

let fill_store ~store path =
  List.filter_map
    (fun e ->
      let r = request ~kind:Hit ~label:e.Registry.name (path e.Registry.name) in
      let res =
        Cache.verify ~config:r.problem.Pb_check.config ?network:r.closed.Plant.network ~plant:r.closed.Plant.id
          ~store ~rng:(Rng.create 7) r.problem.Pb_check.system
      in
      match res.Cache.exported with
      | Some _ -> None
      | None -> Some (Printf.sprintf "set-up: %s did not prove and export" e.Registry.name))
    (should_prove ())

(* Each client's batch follows one fixed pattern of kinds, so each client
   carries the same work whatever the seed: its 8 plain repeats in a
   seeded order, with the inverted-pendulum repeat, the new width and the
   new gamma at fixed places, evenly spread. *)
let pattern = [ Hit; Hit; Hit; Declined_hit; Hit; Hit; Hit; Warm; Hit; Hit; Cold_gamma ]

(* Client c's j-th request at index j * clients + c, the order in which
   [run_pass] deals them.  Every client list has the same length. *)
let deal lists =
  let lists = Array.of_list (List.map Array.of_list lists) in
  Array.init (clients * Array.length lists.(0)) (fun i -> lists.(i mod clients).(i / clients))

let pass_requests ~seed path =
  let stored = List.map (fun e -> e.Registry.name) (should_prove ()) in
  let client c =
    let hits = Array.of_list (List.filter (fun n -> n <> flaky_hit) stored) in
    Rng.shuffle (Pb_util.rng ~seed ~stream:(10 + c)) hits;
    let next_hit = ref 0 in
    List.map
      (fun kind ->
        match kind with
        | Hit ->
          let name = hits.(!next_hit) in
          incr next_hit;
          request ~kind ~label:name (path name)
        | Declined_hit -> request ~kind ~label:flaky_hit (path flaky_hit)
        | Warm ->
          let label = Printf.sprintf "dubins-w%d" (List.nth widths c) in
          request ~kind ~label (path label)
        | Cold_gamma ->
          let name = List.nth gamma_scenarios (1 - c) in
          request ~kind ~label:(name ^ "-gamma") ~gamma:new_gamma (path name)
        | Fresh _ -> invalid_arg "Pb_serve.pass_requests: no fresh requests in store-serve")
      pattern
  in
  deal (List.init clients client)

(* registry-serve: each of the 14 registry scenarios once per pass, sent
   with [no_cache], so the store is neither read nor matched and each is
   verified cold (a fresh proof is still exported).  Scenario k of the
   registry goes to client k mod 2, in registry order: which requests run
   side by side on the two workers then stays the same in every pass and
   run.  The seed only draws the check points. *)
let fresh_requests ~seed:_ path =
  let fresh e =
    let kind = Fresh (e.Registry.scenario.Scenario.expectation = Some Scenario.Should_prove) in
    request ~kind ~label:e.Registry.name (path e.Registry.name)
  in
  deal
    (List.init clients (fun c ->
         List.map fresh (List.filteri (fun k _ -> k mod clients = c) (Registry.scenarios ()))))

(* --- the client side ------------------------------------------------- *)

let connect socket =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 1000

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let open_conn socket =
  let fd = connect socket in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let reply_timeout = 120.0

let rec select_retry fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds timeout

let line_of ~id r =
  let no_cache = match r.kind with Fresh _ -> Some true | _ -> None in
  Protocol.verify_line ~id ~scenario_path:r.scenario_path ?gamma:r.gamma ?no_cache ()

(* Deal the requests alternately to the connections and run them closed
   loop.  Replies come back in the order they finish. *)
let run_pass conns ~pass_no requests =
  let n = Array.length requests in
  let conns = Array.of_list conns in
  let k = Array.length conns in
  let next = Array.init k (fun c -> c) in
  let inflight = Array.make k None in
  let replies = Array.make n None in
  let issue c =
    let i = next.(c) in
    if i < n then begin
      next.(c) <- i + k;
      send conns.(c) (line_of ~id:(Printf.sprintf "%d-%d" pass_no i) requests.(i));
      inflight.(c) <- Some (i, Timing.now ())
    end
  in
  Array.iteri (fun c _ -> issue c) conns;
  let rec loop () =
    let busy = List.filter (fun c -> inflight.(c) <> None) (List.init k Fun.id) in
    if busy <> [] then begin
      let ready = select_retry (List.map (fun c -> conns.(c).fd) busy) reply_timeout in
      if ready = [] then Pb_util.die "serve: no reply within %.0fs" reply_timeout;
      List.iter
        (fun c ->
          if List.mem conns.(c).fd ready then
            match inflight.(c) with
            | None -> ()
            | Some (i, t0) ->
              let line = input_line conns.(c).ic in
              let latency = Timing.now () -. t0 in
              replies.(i) <-
                Some { req = requests.(i); line; json = Result.to_option (Obs.Json.of_string line); t_sent = t0; latency };
              inflight.(c) <- None;
              issue c)
        busy;
      loop ()
    end
  in
  loop ();
  Array.to_list (Array.map Option.get replies)

let ping socket =
  let c = open_conn socket in
  send c (Protocol.ping_line ~id:"ping");
  match select_retry [ c.fd ] reply_timeout with
  | [] -> Pb_util.die "serve: daemon did not answer a ping"
  | _ ->
    ignore (input_line c.ic : string);
    Unix.close c.fd

(* --- checks ---------------------------------------------------------- *)

let source r = str "source" r.json

(* The reply's verdict and source against what its kind must give.  An
   inverted-pendulum repeat that is not a hit is a counted failure, not a
   wrong answer: it still proves. *)
let check_reply i r =
  let finding what = { Pb_harness.op = Some i; what } in
  let failure = Option.value ~default:"?" (str "failure" r.json) in
  let status = str "status" r.json in
  let plant = str "plant" r.json in
  let bad fmt =
    Printf.ksprintf (fun s -> [ finding (Printf.sprintf "%s (%s): %s" r.req.label (kind_name r.req.kind) s) ]) fmt
  in
  let expected_status = if r.req.kind = Fresh false then "failed" else "ok" in
  if status <> Some expected_status then
    bad "status %s, expected %s: %s" (Option.value ~default:"?" status) expected_status r.line
  else if r.req.kind = Fresh false && String.starts_with ~prefix:"seed shortfall" failure then
    bad "failed by %s, not structurally" failure
  else if plant <> Some r.req.closed.Plant.plant.Plant.name then bad "reply names plant %s" (Option.value ~default:"?" plant)
  else
    match r.req.kind with
    | Declined_hit -> (
      match source r with
      | Some ("cache_hit" | "cold") -> []
      | s -> bad "source %s" (Option.value ~default:"?" s))
    | kind ->
      if source r = Some (expected_source kind) then []
      else bad "source %s, expected %s" (Option.value ~default:"?" (source r)) (expected_source kind)

let failed r = r.req.kind = Declined_hit && source r <> Some "cache_hit"

(* Each certificate a pass exported, checked against its own problem. *)
let check_export ~rng i r =
  let findings = List.map (fun what -> { Pb_harness.op = Some i; what }) in
  match str "exported" r.json with
  | None -> if exports r.req.kind then findings [ r.req.label ^ ": no certificate exported" ] else []
  | Some dir -> (
    match Store.load_dir dir with
    | Error e -> findings [ Printf.sprintf "%s: exported entry unreadable: %s" r.req.label (Store.string_of_error e) ]
    | Ok entry ->
      findings
        (Pb_check.certificate_once ~rng ~name:r.req.label r.req.problem (Artifact.certificate entry.Store.artifact)))

(* --- traced runs ------------------------------------------------------ *)

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let copy_entries ~src ~dst fingerprints =
  List.iter
    (fun fp ->
      let from = Store.dir_of ~root:src fp and into = Store.dir_of ~root:dst fp in
      Pb_util.mkdir_p into;
      Array.iter (fun f -> copy_file (Filename.concat from f) (Filename.concat into f)) (Sys.readdir from))
    fingerprints

(* Each timed request's client-side interval, beside the spans: the
   requests of two clients overlap, so they are records, not spans. *)
let serve_requests timed =
  let record pass i r =
    Obs.Json.Obj
      [
        ("pass", Obs.Json.Int pass);
        ("request", Obs.Json.Int i);
        ("label", Obs.Json.String r.req.label);
        ("kind", Obs.Json.String (kind_name r.req.kind));
        ("source", match source r with Some s -> Obs.Json.String s | None -> Obs.Json.Null);
        ("sent_s", Obs.Json.Float (r.t_sent -. Pb_trace.origin));
        ("latency_s", Obs.Json.Float r.latency);
        ("handler_s", match num "seconds" r.json with Some x -> Obs.Json.Float x | None -> Obs.Json.Null);
      ]
  in
  ("serve_requests", Obs.Json.List (List.concat (List.mapi (fun p rs -> List.mapi (record (p + 1)) rs) (List.rev timed))))

(* Reference figures: each warm-started verdict against a cold
   [Engine.verify] of the same problem. *)
let warm_vs_cold samples requests =
  let rows =
    List.filter_map
      (fun ((s : Pb_probe.sample), r) ->
        if r.kind <> Warm then None
        else begin
          let cold =
            Engine.verify ~config:r.problem.Pb_check.config ~rng:(Rng.create 7) r.problem.Pb_check.system
          in
          let w = s.Pb_probe.report.Engine.stats and c = cold.Engine.stats in
          Pb_util.log "reference %s: warm-started %.4fs (%d LP calls), cold %.4fs (%d LP calls)" r.label
            w.Engine.total_time w.Engine.lp_calls c.Engine.total_time c.Engine.lp_calls;
          Some
            (Obs.Json.Obj
               [
                 ("request", Obs.Json.String r.label);
                 ("warm_s", Obs.Json.Float w.Engine.total_time);
                 ("warm_lp_calls", Obs.Json.Int w.Engine.lp_calls);
                 ("warm_sim_s", Obs.Json.Float w.Engine.sim_time);
                 ("cold_s", Obs.Json.Float c.Engine.total_time);
                 ("cold_lp_calls", Obs.Json.Int c.Engine.lp_calls);
                 ("cold_sim_s", Obs.Json.Float c.Engine.sim_time);
               ])
        end)
      (List.combine samples (Array.to_list requests))
  in
  ("warm_start_vs_cold", Obs.Json.List rows)

(* Reference figures: the engine time each miss reports inside the daemon
   (median of the timed replies' [seconds]) against the same request
   re-driven alone. *)
let daemon_vs_alone samples requests replies =
  let labels = List.sort_uniq compare (List.filter_map (fun r -> if r.kind = Hit then None else Some r.label) (Array.to_list requests)) in
  let rows =
    List.map
      (fun label ->
        let inside =
          Pb_util.median
            (List.filter_map
               (fun r -> if r.req.label = label then num "seconds" r.json else None)
               replies)
        in
        let alone =
          Pb_util.median
            (List.filter_map
               (fun ((s : Pb_probe.sample), r) ->
                 if r.label = label then Some s.Pb_probe.report.Engine.stats.Engine.total_time else None)
               (List.combine samples (Array.to_list requests)))
        in
        Pb_util.log "reference %s: engine time %.4fs inside the daemon, %.4fs alone" label inside alone;
        Obs.Json.Obj
          [ ("request", Obs.Json.String label); ("daemon_s", Obs.Json.Float inside); ("alone_s", Obs.Json.Float alone) ])
      labels
  in
  ("engine_time_daemon_vs_alone", Obs.Json.List rows)

(* Serve-side numbers from the timed replies, then one pass re-driven in
   order through [Cache.verify] on a copy of the set-up store, which gives
   each request's [Engine.stats] and the inputs of the re-driven layers. *)
let layer_metrics ~seed ~store ~baseline ~requests ~timed ~(stats : Daemon.stats) =
  let replies = List.concat timed in
  let n_pass = float_of_int (max 1 (List.length timed)) in
  let seconds r = Option.value ~default:0.0 (num "seconds" r.json) in
  let mean f = Pb_util.mean (List.map f replies) in
  let declined =
    List.length
      (List.filter (fun r -> (r.req.kind = Hit || r.req.kind = Declined_hit) && source r <> Some "cache_hit") replies)
  in
  let scratch = Pb_util.fresh_dir "probe-store" in
  copy_entries ~src:store ~dst:scratch baseline;
  let samples =
    Array.to_list
      (Array.map
         (fun r ->
           let res =
             Obs.Trace.with_span "cache.verify" (fun () ->
                 Cache.verify ~config:r.problem.Pb_check.config ?network:r.closed.Plant.network
                   ~use_cache:(match r.kind with Fresh _ -> false | _ -> true)
                   ~plant:r.closed.Plant.id ~store:scratch ~rng:(Rng.create 7) r.problem.Pb_check.system)
           in
           {
             Pb_probe.name = r.label;
             problem = r.problem;
             network = r.closed.Plant.network;
             plant = r.closed.Plant.id;
             report = res.Cache.report;
           })
         requests)
  in
  Pb_trace.extra :=
    [ serve_requests timed; warm_vs_cold samples requests; daemon_vs_alone samples requests replies ];
  let lines = Array.to_list (Array.mapi (fun i r -> line_of ~id:(string_of_int i) r) requests) in
  let probe_store = Pb_util.fresh_dir "probe-store" in
  let m =
    Pb_probe.stages samples
    @ Pb_probe.redrive ~rng:(Pb_util.rng ~seed ~stream:3) ~scratch:probe_store ~lines samples
    @ [
        ("serve.handler_ms", 1e3 *. mean seconds, "ms");
        ("serve.wait_ms", 1e3 *. mean (fun r -> r.latency -. seconds r), "ms");
        ("serve.queue_high_water", float_of_int stats.Daemon.queue_high_water, "count");
        ("cache.audit_declined", float_of_int declined /. n_pass, "count");
      ]
  in
  Pb_util.rm_rf scratch;
  Pb_util.rm_rf probe_store;
  m

(* --- the workload ---------------------------------------------------- *)

(* Findings about the whole store or daemon, not one request. *)
let global = List.map (fun what -> { Pb_harness.op = None; what })

let socket_path dir = Filename.concat Pb_util.out_dir (Filename.basename dir ^ ".sock")

(* [fill]: whether set-up fills the store with the should-prove
   certificates; [requests]: one pass's requests. *)
let setup ~name ~fill ~requests ~seed ~rep:_ =
  let dir = Pb_util.fresh_dir "serve" in
  let store = Filename.concat dir "store" in
  let path = write_scenarios dir in
  let fill_issues = if fill then fill_store ~store path else [] in
  let baseline = Store.list ~root:store in
  let requests = requests ~seed path in
  let socket = socket_path dir in
  let control = Daemon.control () in
  let cfg = { (Daemon.default_config ~socket_path:socket) with Daemon.workers; queue_capacity = 64 } in
  let handler = Serve_handler.make ~store () in
  let daemon = Domain.spawn (fun () -> Daemon.run ~control ~handler cfg) in
  ping socket;
  let conns = List.init clients (fun _ -> open_conn socket) in
  let pass_no = ref 0 and last = ref [] and timed = ref [] in
  let check_rng = Pb_util.rng ~seed ~stream:2 in
  let pass () =
    incr pass_no;
    let replies = run_pass conns ~pass_no:!pass_no requests in
    last := replies;
    List.map (fun r -> { Pb_harness.latency = r.latency; failed = failed r }) replies
  in
  let pending = ref (global fill_issues) in
  let after_pass () =
    let v =
      List.concat (List.mapi check_reply !last)
      @ List.concat (List.mapi (check_export ~rng:check_rng) !last)
      @ global (Pb_check.store_fsck store)
    in
    (* back to the set-up store: drop what the pass added *)
    List.iter
      (fun fp -> if not (List.mem fp baseline) then Pb_util.rm_rf (Store.dir_of ~root:store fp))
      (Store.list ~root:store);
    (* pass 1 is the set-up's warm-up pass *)
    if !pass_no > 1 then timed := !last :: !timed;
    let v = !pending @ v in
    pending := [];
    v
  in
  let stats = ref None in
  let shutdown () =
    match !stats with
    | Some s -> s
    | None ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
      Daemon.request_drain control;
      let s = Domain.join daemon in
      stats := Some s;
      s
  in
  let layers () = layer_metrics ~seed ~store ~baseline ~requests ~timed:!timed ~stats:(shutdown ()) in
  let stop () =
    let s = shutdown () in
    let replies = List.concat !timed in
    List.iter
      (fun kind ->
        let rs = List.filter (fun r -> r.req.kind = kind) replies in
        let ms f = List.map (fun r -> 1e3 *. f r) rs in
        let outside r = r.latency -. Option.value ~default:0.0 (num "seconds" r.json) in
        if rs <> [] then
          Pb_util.log "%s %-26s %5d replies, latency median %.1f ms, p90 %.1f ms, outside the engine %.1f ms" name
            (kind_name kind) (List.length rs)
            (Pb_util.median (ms (fun r -> r.latency)))
            (Pb_util.quantile 0.9 (ms (fun r -> r.latency)))
            (Pb_util.median (ms outside)))
      kinds;
    let v =
      global
        ((if s.Daemon.timeboxed then [ "serve: drain had to cancel in-flight requests" ] else [])
        @ Pb_check.store_fsck store)
    in
    Pb_util.rm_rf dir;
    (try Sys.remove socket with Sys_error _ -> ());
    v
  in
  { Pb_harness.pass; after_pass; layers; stop }

let workload =
  { Pb_harness.name = "store-serve"; setup_reps = 5; setup = setup ~name:"store-serve" ~fill:true ~requests:pass_requests }

let registry_workload =
  {
    Pb_harness.name = "registry-serve";
    setup_reps = 5;
       setup = setup ~name:"registry-serve" ~fill:false ~requests:fresh_requests;
  }
