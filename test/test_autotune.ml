(* The measured autotuner and its best-plan cache.

   Mirrors the native binary cache's torture tests on the plan side
   (round-trip, corrupt entry = miss, key-field validation, an entry of
   the previous format = miss), pins the search deterministic under an
   injected fake timer, asserts the warm-cache path re-runs with zero
   measurements, checks that every enumerated plan runs as labelled, and
   property-checks that any plan the tuner can emit stays bit-identical
   to the default plan across schemes, precisions and shard counts. *)

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
        PC.pl_unroll = Some 16384;
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
  let dir = use_scratch_dir () in
  let key = sample_key () and entry = sample_entry () in
  Alcotest.(check bool) "cold lookup misses" true (PC.find key = None);
  PC.store key entry;
  (* the file records only knobs that change what runs *)
  let lines =
    In_channel.with_open_bin
      (Filename.concat dir (PC.key_digest key ^ ".plan"))
      In_channel.input_all
    |> String.split_on_char '\n'
  in
  Alcotest.(check string) "magic" "racs-plan-v4" (List.hd lines);
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "no %s line" field)
        false
        (List.exists (fun l -> String.starts_with ~prefix:(field ^ " ") l) lines))
    [ "tile"; "local" ];
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
  (* the default plan (default unroll) round-trips through its None
     encoding too *)
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

(* An entry written in the previous format (racs-plan-v3, with the tile
   and work-group-size lines) found where a current entry would be is a
   miss, not a plan. *)
let test_v3_entry_is_miss () =
  let dir = use_scratch_dir () in
  let key = sample_key () in
  let path = Filename.concat dir (PC.key_digest key ^ ".plan") in
  Unix.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.concat "\n"
           [
             "racs-plan-v3"; "scheme fi"; "shape box"; "dims 12 10 8"; "precision double";
             "device Host"; "engine native"; "digest 0123456789abcdef0123456789abcdef";
             "tile none"; "local 64"; "unroll default"; "shards 2"; "schedule concurrent";
             "tblock 1"; "predicted_ns 1250"; "measured_ns 2500"; "default_ns 3750";
             "samples 5"; "";
           ]));
  Alcotest.(check bool) "v3 entry is a miss" true (PC.find key = None);
  let hits, misses, _ = PC.counters () in
  Alcotest.(check (pair int int)) "counted as a miss" (0, 1) (hits, misses)

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
    ~clock ~use_cache ~scheme:"fi" ~shape:Geometry.Box ~dims:small_dims ()

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

(* A step or repeat count below 1 gives every candidate an infinite (or
   negative) time per step, so any winner would be arbitrary: the tuner
   refuses it before measuring, and caches nothing. *)
let test_bad_counts_store_nothing () =
  ignore (use_scratch_dir ());
  let key =
    AT.key ~engine:`Native ~precision:Kernel_ast.Cast.Double ~n_branches:3 ~scheme:"fi"
      ~shape:Geometry.Box ~dims:small_dims
  in
  List.iter
    (fun (steps, repeats) ->
      match
        AT.tune ~engine:`Native ~topk:4 ~warmup:1 ~repeats ~steps ~max_shards:2
          ~clock:(fake_clock ()) ~use_cache:true ~scheme:"fi" ~shape:Geometry.Box
          ~dims:small_dims ()
      with
      | _ -> Alcotest.failf "tune accepted steps %d, repeats %d" steps repeats
      | exception Invalid_argument _ -> ())
    [ (0, 3); (-1, 3); (2, 0) ];
  Alcotest.(check bool) "no plan cached" true (PC.find key = None);
  let _, _, stores = PC.counters () in
  Alcotest.(check int) "nothing stored" 0 stores

let test_winner_not_slower_than_default () =
  ignore (use_scratch_dir ());
  let r = tune_small () in
  Alcotest.(check bool) "winner measured <= default measured" true
    (r.AT.r_entry.PC.e_measured_s <= r.AT.r_entry.PC.e_default_s)

(* -- Plans run as labelled --------------------------------------------- *)

(* The simulation [racs simulate --tuned] builds from a plan: the plan's
   runtime knobs, shards and block depth only when sharded. *)
let sim_of_plan ~precision room (plan : PC.plan) =
  let shards = if plan.PC.pl_shards > 1 then Some plan.PC.pl_shards else None in
  let schedule =
    if plan.PC.pl_shards > 1 then Some (plan.PC.pl_schedule :> Gpu_sim.schedule) else None
  in
  let tblock =
    if plan.PC.pl_shards > 1 && plan.PC.pl_tblock > 1 then Some plan.PC.pl_tblock
    else None
  in
  Gpu_sim.create ~engine:`Native ?unroll_budget:plan.PC.pl_unroll ?shards ?schedule ?tblock
    ~fi_beta:0.1 ~n_branches:3 ~precision Params.default room

let room_of dims =
  Geometry.build ~n_materials:(Array.length Material.defaults) Geometry.Box dims

(* Shard.plan clamps a shard count above the room's planes and a block
   depth deeper than the thinnest slab.  On a 4-plane room searched up to
   8 shards, [enumerate] must leave out every plan that would be clamped,
   so each one runs with the shard count and depth its label names. *)
let test_enumerated_plans_run_as_labelled () =
  let dims = Geometry.dims ~nx:16 ~ny:12 ~nz:4 in
  let room = room_of dims in
  let plans = AT.enumerate ~dims ~max_shards:8 () in
  Alcotest.(check bool) "plans enumerated" true (plans <> []);
  List.iter
    (fun (plan : PC.plan) ->
      let sim = sim_of_plan ~precision:Kernel_ast.Cast.Double room plan in
      let label = AT.plan_label plan in
      Alcotest.(check int) (label ^ ": shard count") plan.PC.pl_shards (Gpu_sim.n_shards sim);
      Alcotest.(check int) (label ^ ": block depth") plan.PC.pl_tblock (Gpu_sim.tblock sim))
    plans;
  (* 3 unroll budgets x (one device; 2 shards at T = 1, 2 under both
     schedules; 3 and 4 shards at T = 1) *)
  Alcotest.(check int) "candidates" 21 (List.length plans)

(* -- Tuned plan == default plan output, property-checked -------------- *)

(* Run [steps] simulation steps under an arbitrary plan and return the
   final field bits.  This exercises exactly the path [racs simulate
   --tuned] takes: the tuner's kernels + plan runtime knobs. *)
let run_plan ~scheme ~precision (plan : PC.plan) =
  let room = room_of (Geometry.dims ~nx:9 ~ny:8 ~nz:10) in
  let kernels = AT.kernels ~precision ~n_branches:3 ~scheme in
  let sim = sim_of_plan ~precision room plan in
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
  let* pl_unroll = oneofl [ None; Some 0; Some 16384 ] in
  let* pl_shards = int_range 1 4 in
  let* pl_tblock = oneofl [ 1; 2; 3 ] in
  let* pl_schedule = oneofl [ `Seq; `Concurrent; `Overlap ] in
  return (scheme, precision, { PC.pl_unroll; pl_shards; pl_schedule; pl_tblock })

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
    Alcotest.test_case "v3 entry at the v4 path is a miss" `Quick test_v3_entry_is_miss;
    Alcotest.test_case "key fields validated" `Quick test_key_fields_validated;
    Alcotest.test_case "calibration round-trip" `Quick test_calibration_roundtrip;
    Alcotest.test_case "deterministic under fake timer" `Slow
      test_deterministic_under_fake_timer;
    Alcotest.test_case "all candidates bit-identical" `Slow test_all_candidates_identical;
    Alcotest.test_case "warm cache re-runs with zero measurements" `Slow
      test_warm_cache_zero_measurements;
    Alcotest.test_case "bad step or repeat counts cache no plan" `Quick
      test_bad_counts_store_nothing;
    Alcotest.test_case "every enumerated plan runs as labelled" `Quick
      test_enumerated_plans_run_as_labelled;
    Alcotest.test_case "winner never slower than default" `Slow
      test_winner_not_slower_than_default;
    QCheck_alcotest.to_alcotest qcheck_plan_matches_default;
  ]
