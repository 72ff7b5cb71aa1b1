(* What a traced run writes: the [Obs.Trace] spans (the benchmark's own,
   around its calls into each layer, and the program's), each span name's
   self time, and workload-specific records such as the serve requests'
   client-side intervals. *)

(* Self time per span name: each span's duration minus the part of its
   interval covered by its children (children of one parent may overlap,
   so covered time is the union of their intervals). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) -> Option.iter (fun p -> Hashtbl.add children p s) s.parent)
    spans;
  let covered (s : Obs.Trace.span) =
    let ivs =
      List.sort compare
        (List.map
           (fun (c : Obs.Trace.span) -> (Float.max c.t_start s.t_start, Float.min c.t_stop s.t_stop))
           (Hashtbl.find_all children s.id))
    in
    fst
      (List.fold_left
         (fun (acc, reach) (a, b) ->
           let a = Float.max a reach in
           if b > a then (acc +. (b -. a), b) else (acc, reach))
         (0.0, neg_infinity) ivs)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t +. Obs.Trace.duration s -. covered s, n + 1))
    spans;
  List.sort compare (Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) tbl [])

(* Workload-specific records written beside the spans. *)
let extra : (string * Obs.Json.t) list ref = ref []

(* Times are written relative to the start of the run: the JSON printer
   keeps 9 significant digits, too few for the clock's absolute values. *)
let origin = Timing.now ()

let to_json spans =
  let rebased =
    List.map (fun (s : Obs.Trace.span) -> { s with t_start = s.t_start -. origin; t_stop = s.t_stop -. origin }) spans
  in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.String "perfbench.trace");
       ("version", Obs.Json.Int 2);
       ("spans", Obs.Trace.to_json rebased);
       ( "self_seconds",
         Obs.Json.Obj
           (List.map
              (fun (name, t, n) ->
                (name, Obs.Json.Obj [ ("seconds", Obs.Json.Float t); ("count", Obs.Json.Int n) ]))
              (self_times spans)) );
     ]
    @ !extra)
