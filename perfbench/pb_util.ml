(* Small helpers shared by every workload: order statistics, allocation
   and CPU readings, seeds, and the run's scratch directories. *)

(* Linear-interpolated quantile of a non-empty sample (the "inclusive"
   definition: q = 0 is the minimum, q = 1 the maximum). *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Pb_util.quantile: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Words allocated by every domain of the process so far.  [Gc.quick_stat]
   aggregates all domains (a live domain's share is current as of its last
   minor collection); [Gc.minor_words] would see the calling domain only. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let bytes_per_word = float_of_int (Sys.word_size / 8)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. bytes_per_word /. 1e6

(* Deterministic sub-seeds: one independent stream per purpose, so adding a
   consumer of one stream never shifts the values another stream yields. *)
let rng ~seed ~stream = Rng.create ((seed * 1_000_003) + stream)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let rm_rf path =
  let rec go p =
    match (Unix.lstat p).Unix.st_kind with
    | Unix.S_DIR ->
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* Everything a run writes lives under this directory of the checkout. *)
let out_dir = ".perfbench-out"

let fresh_dir =
  let n = ref 0 in
  fun kind ->
    incr n;
    let d = Filename.concat out_dir (Printf.sprintf "%s-%d-%d" kind (Unix.getpid ()) !n) in
    rm_rf d;
    mkdir_p d;
    d
