(* The canonical benchmark suite.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--trace-out FILE]
     main.exe --suite [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--trace-out FILE]
     main.exe --compare A.json... -- B.json... [--bench BENCHMARK.json]
     main.exe --smoke [--bench BENCHMARK.json]

   --workload runs one workload and prints, as its last line, one JSON
   object with the keys correct/attempted/failed/metrics: the end-to-end
   metrics, or with --trace 1 the per-layer ones.  --suite runs all
   four.  --out writes the full results file that --compare reads.
   See README.md. *)

let usage () =
  prerr_endline
    "usage: main.exe (--workload NAME | --suite | --smoke | --compare A.json... -- B.json...)\n\
    \       [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE] [--bench FILE]";
  exit 2

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (x : Suite.metric) ->
         (x.m_name, Json.Obj [ ("value", Json.Float x.m_value); ("unit", Json.Str x.m_unit) ]))
       ms)

let result_json (r : Suite.result) =
  Json.Obj
    [
      ("correct", Json.Bool (r.r_failed = 0));
      ("attempted", Json.Int r.r_attempted);
      ("failed", Json.Int r.r_failed);
      ("response_md5", Json.Str r.r_md5);
      ("jobs", Json.Int r.r_jobs);
      ("samples", Json.Int r.r_samples);
      ("metrics", metrics_json r.r_end_to_end);
      ("per_layer", metrics_json r.r_per_layer);
    ]

let results_json ~seed ~seconds ~traced results =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool traced);
      ("domains", Json.Int (Domain.recommended_domain_count ()));
      ("workloads", Json.Obj (List.map (fun (r : Suite.result) -> (r.r_name, result_json r)) results));
    ]

let print_result (r : Suite.result) =
  Printf.printf "%s: %d jobs, %d step samples, %d/%d checks failed, response md5 %s\n" r.r_name
    r.r_jobs r.r_samples r.r_failed r.r_attempted r.r_md5;
  List.iter
    (fun (x : Suite.metric) -> Printf.printf "  %-32s %14.6g %s\n" x.m_name x.m_value x.m_unit)
    (r.r_end_to_end @ r.r_per_layer);
  flush stdout

let prepare_cache () =
  let root = Layers.cache_root () in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Vgpu.Native.set_cache_dir (Layers.warm_dir ())

let run_workloads ?(print = true) ~seed ~seconds ~min_jobs ~tr ws =
  List.map
    (fun w ->
      let r = Suite.run ~seed ~seconds ~min_jobs ~tr w in
      Gc.full_major ();
      if print then print_result r;
      r)
    ws

(* {2 --compare} *)

type bound = { b_name : string; b_lower : bool; b_bound : float }

let bounds_of bench =
  match Json.member "end_to_end" (Json.of_file bench) with
  | Some (Json.Arr l) ->
      List.filter_map
        (fun e ->
          let bound = Option.bind (Json.member "bound" e) Json.to_float in
          match (Json.member "name" e, Json.member "better" e, bound) with
          | Some (Json.Str b_name), Some (Json.Str better), Some b_bound ->
              Some { b_name; b_lower = better = "lower"; b_bound }
          | _ -> None)
        l
  | _ -> failwith (bench ^ ": no end_to_end list")

(* workload -> metric -> value, from one results file *)
let values_of file =
  match Json.member "workloads" (Json.of_file file) with
  | Some (Json.Obj ws) ->
      List.map
        (fun (w, r) ->
          let ms = match Json.member "metrics" r with Some (Json.Obj ms) -> ms | _ -> [] in
          let value v = Option.bind (Json.member "value" v) Json.to_float in
          (w, List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (value v)) ms))
        ws
  | _ -> failwith (file ^ ": not a results file (no \"workloads\")")

(* A pair is regressed when the second side's median is worse than the
   first's by more than the bound, improved when it is better by more
   than the first side's own quartile spread and wins nine tenths of the
   runs paired in order, unchanged otherwise — and unresolved instead
   when a side's spread is wider than the bound unless every run of one
   side beats every run of the other. *)
let classify b va vb =
  let q1a, ma, q3a = Stat.quartiles va and q1b, mb, q3b = Stat.quartiles vb in
  let worse x y = if b.b_lower then x > y else x < y in
  let delta = (if b.b_lower then mb -. ma else ma -. mb) /. ma in
  let spread = Float.max ((q3a -. q1a) /. ma) ((q3b -. q1b) /. mb) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> worse x y) va) vb in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> worse y x) va) vb in
  let n = min (List.length va) (List.length vb) in
  let take l = List.filteri (fun i _ -> i < n) l in
  let wins = List.length (List.filter (fun (x, y) -> worse x y) (List.combine (take va) (take vb))) in
  let label =
    if spread > b.b_bound && not (all_better || all_worse) then "unresolved"
    else if delta > b.b_bound then "regressed"
    else if -.delta > (q3a -. q1a) /. ma && 10 * wins >= 9 * n then "improved"
    else "unchanged"
  in
  (label, (q1a, ma, q3a), (q1b, mb, q3b), delta)

(* Every workload x end-to-end metric present on both sides, classified. *)
let compare_rows ~bench a_files b_files =
  let bounds = bounds_of bench in
  let a = List.map values_of a_files and b = List.map values_of b_files in
  let workloads = List.sort_uniq compare (List.concat_map (List.map fst) (a @ b)) in
  let collect side w name =
    List.filter_map (fun file -> Option.bind (List.assoc_opt w file) (List.assoc_opt name)) side
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun bd ->
          match (collect a w bd.b_name, collect b w bd.b_name) with
          | [], _ | _, [] -> None
          | va, vb -> Some (w, bd, classify bd va vb))
        bounds)
    workloads

let compare ~bench a_files b_files =
  if a_files = [] || b_files = [] then usage ();
  let rows = compare_rows ~bench a_files b_files in
  Printf.printf "%-18s %-12s %-36s %-36s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "worse" "verdict";
  List.iter
    (fun (w, bd, (label, (q1a, ma, q3a), (q1b, mb, q3b), delta)) ->
      let side m q1 q3 = Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3 in
      Printf.printf "%-18s %-12s %-36s %-36s %+7.1f%%  %s (bound %.0f%%)\n" w bd.b_name
        (side ma q1a q3a) (side mb q1b q3b) (100. *. delta) label (100. *. bd.b_bound))
    rows;
  let count l = List.length (List.filter (fun (_, _, (label, _, _, _)) -> label = l) rows) in
  Printf.printf "%d regressed, %d unresolved\n" (count "regressed") (count "unresolved");
  if count "regressed" > 0 then exit 1

(* {2 --smoke} *)

(* The whole suite on tiny rooms, traced, with the results and the trace
   written and read back, checked against BENCHMARK.json's metric
   names, and compared with themselves. *)
let smoke ~bench =
  prepare_cache ();
  let tr = Trace.create () in
  let results =
    run_workloads ~print:false ~seed:1 ~seconds:0. ~min_jobs:2 ~tr:(Some tr) Suite.smoke_workloads
  in
  let names key =
    match Json.member key (Json.of_file bench) with
    | Some (Json.Arr l) ->
        List.filter_map (fun e -> match Json.member "name" e with Some (Json.Str n) -> Some n | _ -> None) l
    | _ -> []
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let listed = List.map (fun (w : Suite.workload) -> w.name) Suite.workloads in
  if names "workloads" <> listed then fail "BENCHMARK.json workloads differ from the suite's";
  List.iter
    (fun (r : Suite.result) ->
      if r.r_failed > 0 then fail "%s: %d of %d output checks failed" r.r_name r.r_failed r.r_attempted;
      let have ms = List.map (fun (x : Suite.metric) -> x.m_name) ms in
      let differ kind = fail "%s: %s metrics differ from BENCHMARK.json" r.r_name kind in
      if have r.r_end_to_end <> names "end_to_end" then differ "end-to-end";
      if have r.r_per_layer <> names "per_layer" then differ "per-layer")
    results;
  let trace_file = Filename.concat (Layers.cache_root ()) "smoke-trace.json" in
  let results_file = Filename.concat (Layers.cache_root ()) "smoke-results.json" in
  Trace.write_file tr trace_file;
  if not (Trace.balanced (Json.of_file trace_file)) then fail "trace spans are unbalanced";
  Json.to_file results_file (results_json ~seed:1 ~seconds:0. ~traced:true results);
  let rows = compare_rows ~bench [ results_file ] [ results_file ] in
  if List.length rows <> List.length listed * List.length (names "end_to_end") then
    fail "--compare skipped metrics of the results file";
  List.iter
    (fun (w, bd, (label, _, _, _)) ->
      if label <> "unchanged" then fail "%s %s: compared with itself as %s" w bd.b_name label)
    rows;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      exit 1

(* {2 Entry point} *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode = ref `None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let out = ref None and trace_out = ref None and bench = ref "BENCHMARK.json" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        mode := `Workload w;
        parse rest
    | "--suite" :: rest ->
        mode := `Suite;
        parse rest
    | "--smoke" :: rest ->
        mode := `Smoke;
        parse rest
    | "--compare" :: rest ->
        let rec split acc = function
          | "--" :: b -> (List.rev acc, b)
          | x :: r -> split (x :: acc) r
          | [] -> (List.rev acc, [])
        in
        let a, b = split [] rest in
        let rec opts files = function
          | "--bench" :: f :: r ->
              bench := f;
              opts files r
          | f :: r -> opts (f :: files) r
          | [] -> List.rev files
        in
        mode := `Compare (a, opts [] b)
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s >= 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--trace-out" :: f :: rest ->
        trace_out := Some f;
        trace := true;
        parse rest
    | "--bench" :: f :: rest ->
        bench := f;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let measure ws =
    prepare_cache ();
    let tr = if !trace then Some (Trace.create ()) else None in
    let results = run_workloads ~seed:!seed ~seconds:!seconds ~min_jobs:3 ~tr ws in
    Option.iter
      (fun f -> Json.to_file f (results_json ~seed:!seed ~seconds:!seconds ~traced:!trace results))
      !out;
    (match (tr, !trace_out) with Some t, Some f -> Trace.write_file t f | _ -> ());
    results
  in
  match !mode with
  | `None -> usage ()
  | `Smoke -> smoke ~bench:!bench
  | `Compare (a, b) -> compare ~bench:!bench a b
  | `Suite ->
      let results = measure Suite.workloads in
      if List.exists (fun (r : Suite.result) -> r.r_failed > 0) results then exit 1
  | `Workload name -> (
      match Suite.find name with
      | None ->
          prerr_endline ("unknown workload " ^ name);
          exit 2
      | Some w ->
          let r = List.hd (measure [ w ]) in
          let line =
            Json.Obj
              [
                ("correct", Json.Bool (r.r_failed = 0));
                ("attempted", Json.Int r.r_attempted);
                ("failed", Json.Int r.r_failed);
                ("metrics", metrics_json (if !trace then r.r_per_layer else r.r_end_to_end));
              ]
          in
          print_endline (Json.to_string line);
          if r.r_failed > 0 then exit 1)
