(* The measured autotuner and its best-plan cache.

   Mirrors the native binary cache's torture tests on the plan side
   (round-trip, corrupt entry = miss, key-field validation), pins the
   search deterministic under an injected fake timer, asserts the
   warm-cache path re-runs with zero measurements, and property-checks
   that any plan the tuner can emit stays bit-identical to the default
   plan across schemes, precisions and shard counts. *)

open Acoustics
module PC = Harness.Plan_cache
module AT = Harness.Autotune

let scratch_counter = ref 0

let use_scratch_dir () =
  incr scratch_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "racs-plan-test-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  PC.set_cache_dir dir;
  PC.reset_counters ();
  dir

let sample_key () : PC.key =
  {
    PC.k_scheme = "fi";
    k_shape = "box";
    k_dims = (12, 10, 8);
    k_precision = "double";
    k_device = "Host";
    k_engine = "native";
    k_digest = "0123456789abcdef0123456789abcdef";
  }

let sample_entry () : PC.entry =
  {
    PC.e_plan =
      {
        PC.pl_tile = Some (8, 4);
        pl_variant = [ "fuse_map"; "split_join" ];
        pl_local = 32;
        pl_unroll = Some 16384;
        pl_shards = 3;
        pl_schedule = `Overlap;
        pl_tblock = 2;
      };
    e_predicted_s = 1.25e-6;
    e_measured_s = 2.5e-6;
    e_default_s = 3.75e-6;
    e_samples = 5;
  }

(* -- Plan cache ------------------------------------------------------- *)

let test_roundtrip () =
  ignore (use_scratch_dir ());
  let key = sample_key () and entry = sample_entry () in
  Alcotest.(check bool) "cold lookup misses" true (PC.find key = None);
  PC.store key entry;
  (match PC.find key with
  | None -> Alcotest.fail "stored entry not found"
  | Some got ->
      Alcotest.(check bool) "plan round-trips" true (got.PC.e_plan = entry.PC.e_plan);
      Alcotest.(check int) "samples round-trip" entry.PC.e_samples got.PC.e_samples;
      (* times are stored at nanosecond resolution *)
      Alcotest.(check bool) "measured time round-trips" true
        (Float.abs (got.PC.e_measured_s -. entry.PC.e_measured_s) < 1e-12));
  let hits, misses, stores = PC.counters () in
  Alcotest.(check (triple int int int)) "counters" (1, 1, 1) (hits, misses, stores);
  (* the default plan (no tile, no variant, default unroll) round-trips
     through its None/empty encodings too *)
  let dkey = { (sample_key ()) with PC.k_scheme = "fd-mm" } in
  PC.store dkey { (sample_entry ()) with PC.e_plan = PC.default_plan };
  match PC.find dkey with
  | Some got ->
      Alcotest.(check bool) "default plan round-trips" true
        (got.PC.e_plan = PC.default_plan)
  | None -> Alcotest.fail "default-plan entry not found"

let test_corrupt_entry_is_miss () =
  let dir = use_scratch_dir () in
  let key = sample_key () in
  PC.store key (sample_entry ());
  let path = Filename.concat dir (PC.key_digest key ^ ".plan") in
  Alcotest.(check bool) "entry file exists" true (Sys.file_exists path);
  (* truncated mid-field *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 (String.length contents / 2)));
  Alcotest.(check bool) "truncated entry is a miss" true (PC.find key = None);
  (* arbitrary garbage *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "this is not a plan file\n\x00\xff");
  Alcotest.(check bool) "garbage entry is a miss" true (PC.find key = None);
  (* a store heals it *)
  PC.store key (sample_entry ());
  Alcotest.(check bool) "overwritten entry is trusted again" true (PC.find key <> None)

let test_key_fields_validated () =
  let dir = use_scratch_dir () in
  let key = sample_key () in
  PC.store key (sample_entry ());
  (* the same file answering for a different key (digest collision,
     copied cache dir, hand-edited entry) must be rejected: copy the
     entry to where a different key would look *)
  let other = { key with PC.k_digest = "ffffffffffffffffffffffffffffffff" } in
  let src = Filename.concat dir (PC.key_digest key ^ ".plan") in
  let dst = Filename.concat dir (PC.key_digest other ^ ".plan") in
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc contents);
  Alcotest.(check bool) "entry with mismatched key fields is a miss" true
    (PC.find other = None);
  Alcotest.(check bool) "original key still hits" true (PC.find key <> None)

let test_calibration_roundtrip () =
  ignore (use_scratch_dir ());
  let c = Vgpu.Perf_model.Calibration.create () in
  Vgpu.Perf_model.Calibration.observe c ~device:"Host" ~kernel_name:"volume"
    ~predicted_s:1e-6 ~measured_s:4e-6;
  Vgpu.Perf_model.Calibration.observe c ~device:"Host" ~kernel_name:"volume"
    ~predicted_s:1e-6 ~measured_s:1e-6;
  Vgpu.Perf_model.Calibration.observe c ~device:"GTX 780" ~kernel_name:"boundary_fi"
    ~predicted_s:2e-6 ~measured_s:1e-6;
  PC.save_calibration c;
  let c' = PC.load_calibration () in
  List.iter
    (fun (device, kernel_name) ->
      let f = Vgpu.Perf_model.Calibration.factor c ~device ~kernel_name in
      let f' = Vgpu.Perf_model.Calibration.factor c' ~device ~kernel_name in
      Alcotest.(check bool)
        (Printf.sprintf "factor %s/%s round-trips" device kernel_name)
        true
        (Float.abs (f -. f') < 1e-12 *. f))
    [ ("Host", "volume"); ("GTX 780", "boundary_fi"); ("Host", "absent") ];
  (* geometric mean of 4x and 1x is 2x *)
  Alcotest.(check bool) "observed factor is the geometric mean" true
    (Float.abs (Vgpu.Perf_model.Calibration.factor c' ~device:"Host" ~kernel_name:"volume" -. 2.)
    < 1e-9)

(* -- The search ------------------------------------------------------- *)

(* One microsecond per call.  [AT.tune] installs this clock as the
   runtimes' launch timer too, which the pool's worker domains call
   concurrently under Concurrent candidates: an atomic tick counter
   loses no increment, so both runs read the same ticks. *)
let fake_clock () =
  let ticks = Atomic.make 0 in
  fun () -> float_of_int (Atomic.fetch_and_add ticks 1 + 1) *. 1e-6

let small_dims = Geometry.dims ~nx:10 ~ny:8 ~nz:7

let tune_small ?(use_cache = false) ?clock () =
  let clock = match clock with Some c -> c | None -> fake_clock () in
  AT.tune ~engine:`Native ~topk:4 ~warmup:1 ~repeats:3 ~steps:2 ~max_shards:2
    ~clock ~use_cache ~explore_depth:1 ~scheme:"fi" ~shape:Geometry.Box
    ~dims:small_dims ()

let test_deterministic_under_fake_timer () =
  ignore (use_scratch_dir ());
  let r1 = tune_small () and r2 = tune_small () in
  Alcotest.(check bool) "same winner plan" true
    (r1.AT.r_entry.PC.e_plan = r2.AT.r_entry.PC.e_plan);
  Alcotest.(check int) "same measurement count" r1.AT.r_measurements r2.AT.r_measurements;
  List.iter2
    (fun (a : AT.measured) (b : AT.measured) ->
      Alcotest.(check bool) "same plan order" true (a.AT.m_plan = b.AT.m_plan);
      Alcotest.(check bool) "same measured time" true
        (a.AT.m_measured_s = b.AT.m_measured_s);
      Alcotest.(check bool) "same identity verdict" a.AT.m_identical b.AT.m_identical)
    r1.AT.r_evaluated r2.AT.r_evaluated;
  Alcotest.(check bool) "same winner time" true
    (r1.AT.r_entry.PC.e_measured_s = r2.AT.r_entry.PC.e_measured_s)

let test_all_candidates_identical () =
  ignore (use_scratch_dir ());
  let r = tune_small () in
  Alcotest.(check bool) "measured something" true (r.AT.r_measurements > 0);
  List.iter
    (fun (m : AT.measured) ->
      Alcotest.(check bool)
        (Printf.sprintf "plan %S bit-identical" (AT.plan_label m.AT.m_plan))
        true m.AT.m_identical)
    r.AT.r_evaluated

let test_warm_cache_zero_measurements () =
  ignore (use_scratch_dir ());
  let cold = tune_small ~use_cache:true () in
  Alcotest.(check bool) "cold run measures" true (cold.AT.r_measurements > 0);
  Alcotest.(check bool) "cold run searched" true (not cold.AT.r_from_cache);
  PC.reset_counters ();
  let warm = tune_small ~use_cache:true () in
  Alcotest.(check bool) "warm run is from cache" true warm.AT.r_from_cache;
  Alcotest.(check int) "warm run measures nothing" 0 warm.AT.r_measurements;
  Alcotest.(check (list pass)) "warm run evaluates nothing" [] warm.AT.r_evaluated;
  Alcotest.(check bool) "same plan both ways" true
    (warm.AT.r_entry.PC.e_plan = cold.AT.r_entry.PC.e_plan);
  let hits, _, stores = PC.counters () in
  Alcotest.(check int) "exactly one cache hit" 1 hits;
  Alcotest.(check int) "no new store" 0 stores

let test_winner_not_slower_than_default () =
  ignore (use_scratch_dir ());
  let r = tune_small () in
  Alcotest.(check bool) "winner measured <= default measured" true
    (r.AT.r_entry.PC.e_measured_s <= r.AT.r_entry.PC.e_default_s)

(* -- Tuned plan == default plan output, property-checked -------------- *)

(* Run [steps] simulation steps under an arbitrary plan and return the
   final field bits.  This exercises exactly the path [racs simulate
   --tuned] takes: plan kernels + plan runtime knobs. *)
let run_plan ~scheme ~precision (plan : PC.plan) =
  let dims = Geometry.dims ~nx:9 ~ny:8 ~nz:10 in
  let room = Geometry.build ~n_materials:(Array.length Material.defaults) Geometry.Box dims in
  let kernels = AT.plan_kernels ~precision ~n_branches:3 ~scheme plan in
  let shards = if plan.PC.pl_shards > 1 then Some plan.PC.pl_shards else None in
  let schedule =
    if plan.PC.pl_shards > 1 then Some (plan.PC.pl_schedule :> Gpu_sim.schedule) else None
  in
  let tblock =
    if plan.PC.pl_shards > 1 && plan.PC.pl_tblock > 1 then Some plan.PC.pl_tblock
    else None
  in
  let sim =
    Gpu_sim.create ~engine:`Native ?unroll_budget:plan.PC.pl_unroll ?shards ?schedule
      ?tblock ~fi_beta:0.1 ~n_branches:3 ~precision Params.default room
  in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to 6 do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.sync sim;
  Array.map Int64.bits_of_float sim.Gpu_sim.state.State.curr

let plan_gen : (string * Kernel_ast.Cast.precision * PC.plan) QCheck.Gen.t =
  let open QCheck.Gen in
  let* scheme = oneofl [ "fi"; "fi-mm"; "fd-mm" ] in
  let* precision = oneofl [ Kernel_ast.Cast.Single; Kernel_ast.Cast.Double ] in
  let* tile = oneofl [ None; Some (4, 4); Some (8, 4) ] in
  let* unroll = oneofl [ None; Some 0; Some 16384 ] in
  let* shards = int_range 1 4 in
  let* tblock = oneofl [ 1; 2; 3 ] in
  let* schedule =
    (* the overlapped schedule range-splits the flat volume kernel; the
       tiled kernel only runs seq/concurrent (Autotune.enumerate never
       pairs them either) *)
    if tile = None then oneofl [ `Seq; `Concurrent; `Overlap ]
    else oneofl [ `Seq; `Concurrent ]
  in
  return
    ( scheme,
      precision,
      {
        PC.pl_tile = tile;
        pl_variant = [];
        pl_local = 64;
        pl_unroll = unroll;
        pl_shards = shards;
        pl_schedule = schedule;
        pl_tblock = tblock;
      } )

let arb_plan =
  QCheck.make plan_gen ~print:(fun (scheme, precision, plan) ->
      Printf.sprintf "%s %s %s" scheme
        (AT.precision_label precision)
        (AT.plan_label plan))

let qcheck_plan_matches_default =
  QCheck.Test.make ~name:"any tuned plan == default plan, bit for bit" ~count:12
    arb_plan
    (fun (scheme, precision, plan) ->
      let got = run_plan ~scheme ~precision plan in
      let want = run_plan ~scheme ~precision PC.default_plan in
      got = want)

let suite =
  [
    Alcotest.test_case "plan cache round-trip" `Quick test_roundtrip;
    Alcotest.test_case "corrupt entry is a miss" `Quick test_corrupt_entry_is_miss;
    Alcotest.test_case "key fields validated" `Quick test_key_fields_validated;
    Alcotest.test_case "calibration round-trip" `Quick test_calibration_roundtrip;
    Alcotest.test_case "deterministic under fake timer" `Slow
      test_deterministic_under_fake_timer;
    Alcotest.test_case "all candidates bit-identical" `Slow test_all_candidates_identical;
    Alcotest.test_case "warm cache re-runs with zero measurements" `Slow
      test_warm_cache_zero_measurements;
    Alcotest.test_case "winner never slower than default" `Slow
      test_winner_not_slower_than_default;
    QCheck_alcotest.to_alcotest qcheck_plan_matches_default;
  ]
