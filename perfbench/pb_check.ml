(* Correctness checks made apart from the program and outside the timed
   region.  A proved certificate B(x) = W(x) - l is checked at seeded
   sample points using only its numeric W and the closed loop's numeric
   vector field:

   - W <= l on X0;
   - W > l on the boundary of the safe rectangle (the edge of U);
   - the Lie derivative, taken by central finite differences of W, is
     negative on D \ X0;
   - trajectories simulated from X0 (own RK4, the config's step and
     horizon) stay inside the safe rectangle.

   No solver, tape, symbolic derivative or integrator of the program is
   used, so a fault shared by the prover and its audit still shows. *)

type problem = { system : Engine.system; config : Engine.config }

let x0_samples = 24
let face_samples = 24
let domain_samples = 48
let trajectories = 3

let uniform rng (lo, hi) = Rng.uniform rng lo hi

let in_rect rect x =
  let ok = ref true in
  Array.iteri (fun i (lo, hi) -> if not (x.(i) >= lo && x.(i) <= hi) then ok := false) rect;
  !ok

let sample_in rng rect = Array.map (uniform rng) rect

(* Uniform in safe \ X0 by rejection; the registry's X0 never fills the
   safe rectangle, but give up politely rather than loop if one does. *)
let sample_domain rng p =
  let rec go tries =
    let x = sample_in rng p.config.Engine.safe_rect in
    if not (in_rect p.config.Engine.x0_rect x) then Some x
    else if tries = 0 then None
    else go (tries - 1)
  in
  go 10_000

(* A point on a random face of the safe rectangle. *)
let sample_face rng p =
  let rect = p.config.Engine.safe_rect in
  let x = sample_in rng rect in
  let i = Rng.int rng (Array.length rect) in
  let lo, hi = rect.(i) in
  x.(i) <- (if Rng.int rng 2 = 0 then lo else hi);
  x

let lie_fd p w x =
  let f = p.system.Engine.numeric_field 0.0 x in
  let acc = ref 0.0 in
  Array.iteri
    (fun i fi ->
      let h = 1e-6 *. Float.max 1.0 (Float.abs x.(i)) in
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- x.(i) +. h;
      xm.(i) <- x.(i) -. h;
      acc := !acc +. (fi *. (w xp -. w xm) /. (2.0 *. h)))
    f;
  !acc

let rk4_stays_inside p x0 =
  let f = p.system.Engine.numeric_field in
  let dt = p.config.Engine.sim_dt in
  let axpy a x y = Array.mapi (fun i yi -> yi +. (a *. x.(i))) y in
  let rec go t x k =
    if not (in_rect p.config.Engine.safe_rect x) then Some x
    else if k = 0 then None
    else
      let k1 = f t x in
      let k2 = f (t +. (dt /. 2.0)) (axpy (dt /. 2.0) k1 x) in
      let k3 = f (t +. (dt /. 2.0)) (axpy (dt /. 2.0) k2 x) in
      let k4 = f (t +. dt) (axpy dt k3 x) in
      let x' =
        Array.mapi
          (fun i xi -> xi +. (dt /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))))
          x
      in
      go (t +. dt) x' (k - 1)
  in
  go 0.0 x0 p.config.Engine.sim_steps

let pt x = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.6g") x))

(* Violations found, as readable lines; [] when every check holds. *)
let certificate ~rng p (cert : Engine.certificate) =
  let w = Template.w_eval cert.Engine.template cert.Engine.coeffs in
  let l = cert.Engine.level in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  for _ = 1 to x0_samples do
    let x = sample_in rng p.config.Engine.x0_rect in
    if not (w x <= l) then fail "W(%s) = %.9g > level %.9g on X0" (pt x) (w x) l
  done;
  for _ = 1 to face_samples do
    let x = sample_face rng p in
    if not (w x > l) then fail "W(%s) = %.9g <= level %.9g on the unsafe boundary" (pt x) (w x) l
  done;
  for _ = 1 to domain_samples do
    match sample_domain rng p with
    | None -> fail "could not sample D \\ X0"
    | Some x ->
      let d = lie_fd p w x in
      if not (d < 0.0) then fail "dW/dt(%s) = %.9g >= 0 on D \\ X0" (pt x) d
  done;
  for _ = 1 to trajectories do
    let x0 = sample_in rng p.config.Engine.x0_rect in
    match rk4_stays_inside p x0 with
    | None -> ()
    | Some x -> fail "trajectory from %s leaves the safe rectangle at %s" (pt x0) (pt x)
  done;
  List.rev !bad

(* A proof's checks depend only on the problem and the certificate, and
   at jobs 1 every pass proves the same certificate; checking each
   distinct one once covers every operation. *)
let checked : (string, string list) Hashtbl.t = Hashtbl.create 16

let key name (cert : Engine.certificate) =
  String.concat " "
    (name :: Printf.sprintf "%h" cert.Engine.level
    :: Array.to_list (Array.map (Printf.sprintf "%h") cert.Engine.coeffs))

let certificate_once ~rng ~name p cert =
  let k = key name cert in
  match Hashtbl.find_opt checked k with
  | Some v -> v
  | None ->
    let v = List.map (fun s -> name ^ ": " ^ s) (certificate ~rng p cert) in
    Hashtbl.add checked k v;
    v

(* A should-fail problem must fail on a verdict about the problem, never
   on a timeout or a seed-sampling shortfall. *)
let structural = function
  | Engine.Timeout _ | Engine.Seed_shortfall _ -> false
  | Engine.Lp_failed _ | Engine.Cex_budget_exhausted | Engine.Level_range_empty
  | Engine.Level_budget_exhausted | Engine.Solver_inconclusive _ ->
    true

let reason_string outcome =
  match List.assoc_opt "failure" (Engine.outcome_meta outcome) with
  | Some (Obs.Json.String r) -> r
  | _ -> "?"

(* The registry expectation for one verdict. *)
let verdict ~rng ~name ~should_prove p (report : Engine.report) =
  match (report.Engine.outcome, should_prove) with
  | Engine.Proved cert, true -> certificate_once ~rng ~name p cert
  | Engine.Proved _, false -> [ name ^ ": proved, expected to fail" ]
  | Engine.Failed _, true -> [ name ^ ": failed (" ^ reason_string report.Engine.outcome ^ "), expected to prove" ]
  | Engine.Failed r, false ->
    if structural r then []
    else [ name ^ ": failed by " ^ reason_string report.Engine.outcome ^ ", not structurally" ]

let store_fsck root =
  let r = Store.fsck ~root () in
  List.map
    (fun f -> Printf.sprintf "store fsck: %s: %s" f.Store.fingerprint (Store.string_of_issue f.Store.issue))
    r.Store.findings
