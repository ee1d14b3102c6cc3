(* Differential validation of temporally-blocked execution (temporal
   blocking of the sharded leapfrog).

   A blocked run — depth-T ghost zones, redundant recompute of the inner
   ghost planes on every in-block step, one deep halo exchange per block
   of T steps — must be bit-for-bit identical to the per-step (T = 1)
   exchange cadence, which is itself bit-identical to the single-device
   engines.  The tests here run the three paper workloads under
   combinations of scheme x precision x shard count x block depth x
   schedule x engine and require exact agreement of every grid and
   boundary-state array.

   Also covered: syncs and reads that fall mid-block (owned planes stay
   valid at every in-block position), clamping of T to the thinnest
   slab, and the static blocked-cost profile (exchange rounds amortised
   over T, deep-halo bytes, redundant frontier points) against the
   transfer bytes the runtime actually measures. *)

open Kernel_ast.Cast
open Acoustics

let params = Params.default
let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

let kernels_of scheme precision =
  match scheme with
  | `Fi -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]
  | `Fi_mm ->
      [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]
  | `Fd_mm ->
      [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]

let run ?shards ?schedule ?tblock ?(steps = 10) ?(engine = `Native) ?precision ~kernels () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim =
    Gpu_sim.create ~engine ?shards ?schedule ?precision ?tblock ~fi_beta:0.2
      ~n_branches:3 params room
  in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.sync sim;
  sim

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let state_bits_equal (a : State.t) (b : State.t) =
  bits_equal a.State.curr b.State.curr
  && bits_equal a.State.prev b.State.prev
  && bits_equal a.State.g1 b.State.g1
  && bits_equal a.State.vel_prev b.State.vel_prev

let check_state msg (a : State.t) (b : State.t) =
  Test_util.check_bits (msg ^ " curr") a.State.curr b.State.curr;
  Test_util.check_bits (msg ^ " prev") a.State.prev b.State.prev;
  Test_util.check_bits (msg ^ " g1") a.State.g1 b.State.g1;
  Test_util.check_bits (msg ^ " vel") a.State.vel_prev b.State.vel_prev

(* FI / FI-MM / FD-MM, both precisions, 2/4 shards, T = 2..4 (clamped to
   the thinnest slab where needed), vs the single-device native run. *)
let test_blocked_bit_identical () =
  List.iter
    (fun (scheme_label, scheme) ->
      List.iter
        (fun precision ->
          let kernels = kernels_of scheme precision in
          let reference = (run ~precision ~kernels ()).Gpu_sim.state in
          List.iter
            (fun shards ->
              List.iter
                (fun tblock ->
                  let sim = run ~shards ~tblock ~precision ~kernels () in
                  let msg =
                    Printf.sprintf "%s %s shards=%d T=%d (eff %d)" scheme_label
                      (match precision with Single -> "single" | Double -> "double")
                      shards tblock (Gpu_sim.tblock sim)
                  in
                  check_state msg reference sim.Gpu_sim.state)
                [ 2; 3; 4 ])
            [ 2; 4 ])
        [ Double; Single ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* All three schedules agree when blocked, including the overlapped
   queues whose block-start frontier launches wait on the previous
   block's deep exchanges. *)
let test_blocked_schedules_agree () =
  let kernels = kernels_of `Fd_mm Double in
  let reference = (run ~kernels ()).Gpu_sim.state in
  List.iter
    (fun (sched_label, schedule) ->
      List.iter
        (fun tblock ->
          let sim = run ~shards:3 ~schedule ~tblock ~kernels () in
          check_state
            (Printf.sprintf "fd-mm %s T=%d" sched_label tblock)
            reference sim.Gpu_sim.state)
        [ 2; 3 ])
    [ ("seq", `Seq); ("concurrent", `Concurrent); ("overlap", `Overlap) ]

(* Both engines produce the same blocked result. *)
let test_blocked_engines_agree () =
  let kernels = kernels_of `Fd_mm Double in
  let reference = (run ~kernels ()).Gpu_sim.state in
  List.iter
    (fun (engine_label, engine) ->
      let sim = run ~engine ~shards:2 ~tblock:2 ~kernels () in
      check_state ("fd-mm blocked " ^ engine_label) reference sim.Gpu_sim.state)
    [
      ("interp", `Interp);
      ("native", `Native);
    ]

(* Step counts that are not multiples of T: the sync (and reads) fall
   mid-block, where the ghost zones are partially stale but every owned
   plane is valid — the gathered state must still be exact. *)
let test_mid_block_sync_is_exact () =
  let kernels = kernels_of `Fi_mm Double in
  List.iter
    (fun steps ->
      let reference = (run ~steps ~kernels ()).Gpu_sim.state in
      let sim = run ~steps ~shards:3 ~tblock:3 ~kernels () in
      check_state (Printf.sprintf "fi-mm T=3 steps=%d" steps) reference
        sim.Gpu_sim.state)
    [ 1; 2; 5; 7 ]

let test_mid_block_read_addresses_owner () =
  let kernels = kernels_of `Fi Double in
  let single = run ~steps:7 ~kernels () in
  let sharded = run ~steps:7 ~shards:4 ~tblock:2 ~kernels () in
  let { Geometry.nx; ny; nz } = dims in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let a = Gpu_sim.read single ~x ~y ~z and b = Gpu_sim.read sharded ~x ~y ~z in
        if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
          Alcotest.failf "read (%d,%d,%d): %.17g vs %.17g" x y z a b
      done
    done
  done

(* The block depth clamps to the thinnest slab's owned plane count
   (nz = 10 over 4 shards -> slabs of 3,3,2,2 -> T <= 2). *)
let test_tblock_clamps_to_thinnest_slab () =
  let kernels = kernels_of `Fi Double in
  let sim = run ~shards:4 ~tblock:4 ~kernels () in
  Alcotest.(check int) "T clamped to thinnest slab" 2 (Gpu_sim.tblock sim);
  let wide = run ~shards:2 ~tblock:4 ~kernels () in
  Alcotest.(check int) "T kept when slabs are deep enough" 4 (Gpu_sim.tblock wide)

(* The static blocked-cost profile: exchange rounds amortise over T; the
   deep-halo bytes match what the runtime actually transfers; T = 2
   moves the same grid bytes per step as T = 1 (the depth-1 [curr]
   refresh is recomputed, not communicated); redundant frontier points
   appear only for T > 1. *)
let test_blocked_stats_profile () =
  let kernels = kernels_of `Fi Double in
  let steps = 8 in
  let plane_bytes = float_of_int (dims.Geometry.nx * dims.Geometry.ny * 8) in
  let profile tblock =
    let sim = run ~steps ~shards:2 ~tblock ~kernels () in
    let bs = Gpu_sim.blocked_stats sim kernels in
    let measured = (Gpu_sim.stats sim).Vgpu.Runtime.s_d2d_bytes in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "T=%d measured bytes match the profile" tblock)
      (float_of_int measured)
      (bs.Gpu_sim.bs_halo_bytes_per_step *. float_of_int steps);
    bs
  in
  let b1 = profile 1 and b2 = profile 2 and b4 = profile 4 in
  Alcotest.(check (float 1e-9)) "T=1: one exchange round = 2 ops per step" 2.
    b1.Gpu_sim.bs_exchanges_per_step;
  Alcotest.(check (float 1e-9)) "T=2: exchange ops amortise to 1 per step" 1.
    b2.Gpu_sim.bs_exchanges_per_step;
  Alcotest.(check (float 1e-9)) "T=1: 2 halo planes per step" (2. *. plane_bytes)
    b1.Gpu_sim.bs_halo_bytes_per_step;
  Alcotest.(check (float 1e-9)) "T=2: same grid bytes per step as T=1"
    b1.Gpu_sim.bs_halo_bytes_per_step b2.Gpu_sim.bs_halo_bytes_per_step;
  Alcotest.(check (float 1e-9)) "T=4: (4+3) planes each way over 4 steps"
    (3.5 *. plane_bytes) b4.Gpu_sim.bs_halo_bytes_per_step;
  Alcotest.(check int) "T=1: no redundant recompute" 0 b1.Gpu_sim.bs_redundant_points;
  (* at T = 2 each shard recomputes the one inner ghost plane beside the
     cut: a full interior plane of the box, read off the byte slabs *)
  Alcotest.(check int) "T=2: one box plane per shard"
    (2 * (dims.Geometry.nx - 2) * (dims.Geometry.ny - 2))
    b2.Gpu_sim.bs_redundant_points;
  if b4.Gpu_sim.bs_redundant_points <= b2.Gpu_sim.bs_redundant_points then
    Alcotest.failf "redundant points should grow with T: T=2 %d, T=4 %d"
      b2.Gpu_sim.bs_redundant_points b4.Gpu_sim.bs_redundant_points

(* -- Static verification of the blocked plans ------------------------- *)

let mk_plan_sim ?(schedule = `Seq) ~shards ~tblock () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  Gpu_sim.create ~engine:`Native ~shards ~schedule ~tblock ~fi_beta:0.2
    ~n_branches:3 Params.default room

let slab_of sim =
  let nx, ny, planes = Gpu_sim.slab_geometry sim in
  { Lift.Lint.sl_nx = nx; sl_ny = ny; sl_planes = planes }

let state_bufs = [ "g1"; "v1" ]
let err_codes issues = List.map (fun i -> i.Lift.Lint.code) (Lift.Lint.errors issues)

(* The real blocked cadences — depth-T ghosts, one exchange round per
   block — prove out under the footprint verifier at [~halo:T], sync and
   overlapped alike. *)
let test_blocked_plans_verify_clean () =
  List.iter
    (fun (label, scheme) ->
      let kernels = kernels_of scheme Double in
      List.iter
        (fun (shards, tblock) ->
          List.iter
            (fun (sname, schedule) ->
              let sim = mk_plan_sim ~schedule ~shards ~tblock () in
              let t = Gpu_sim.tblock sim in
              let issues =
                Lift.Lint.verify_async ~halo:t ~state_bufs (slab_of sim)
                  (Gpu_sim.plan sim kernels ~steps:(2 * t))
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s shards=%d T=%d error-free" sname label shards t)
                [] (err_codes issues))
            [ ("sync", `Seq); ("async", `Overlap) ])
        [ (2, 2); (3, 3); (2, 4) ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* Acceptance case: exchanges narrowed to depth T-1 under a depth-T
   block must be rejected once validity runs out mid-block, and the
   diagnostic must name the depth the exchange should have had. *)
let test_depth_short_exchange_rejected () =
  let kernels = kernels_of `Fi Double in
  let sim = mk_plan_sim ~shards:2 ~tblock:2 () in
  let slab = slab_of sim in
  let plan = Gpu_sim.plan sim kernels ~steps:4 in
  let plane = slab.Lift.Lint.sl_nx * slab.Lift.Lint.sl_ny in
  let h = 2 in
  let narrow = function
    | Vgpu.Multi.Exchange ({ src_off; dst_off; elems; _ } as e) when elems > plane ->
        let w = elems / plane in
        let d0 = dst_off / plane in
        if d0 + w - 1 = h - 1 then
          (* low-side fill: keep only the cut-adjacent plane *)
          Vgpu.Multi.Exchange
            {
              e with
              src_off = src_off + ((w - 1) * plane);
              dst_off = dst_off + ((w - 1) * plane);
              elems = plane;
            }
        else Vgpu.Multi.Exchange { e with elems = plane }
    | op -> op
  in
  let narrowed =
    List.map (fun (o : Vgpu.Multi.async_op) -> { o with Vgpu.Multi.a_op = narrow o.Vgpu.Multi.a_op }) plan
  in
  let issues = Lift.Lint.verify_async ~halo:h ~state_bufs slab narrowed in
  Alcotest.(check bool) "halo-too-narrow raised" true
    (List.mem "halo-too-narrow" (err_codes issues));
  let pointed =
    List.exists
      (fun i ->
        i.Lift.Lint.code = "halo-too-narrow"
        && Test_util.contains i.Lift.Lint.message "widen the exchange to 2 plane")
      issues
  in
  Alcotest.(check bool) "diagnostic names the required depth" true pointed

(* Property: for random scheme / precision / shard count / block depth /
   schedule / step count, the blocked run equals the unblocked
   single-device run bit-for-bit. *)
let qcheck_blocked_matches_sequential =
  QCheck.Test.make ~name:"blocked T-step cadence == T sequential steps"
    ~count:25
    QCheck.(quad (int_range 0 2) (int_range 1 4) (int_range 1 4) (int_range 0 2))
    (fun (scheme_i, shards, tblock, sched_i) ->
      let scheme = List.nth [ `Fi; `Fi_mm; `Fd_mm ] scheme_i in
      let precision = if (shards + tblock) mod 2 = 0 then Double else Single in
      let schedule = List.nth [ `Seq; `Concurrent; `Overlap ] sched_i in
      let steps = 4 + ((scheme_i + shards + tblock) mod 5) in
      let kernels = kernels_of scheme precision in
      let a = run ~steps ~precision ~kernels () in
      let b = run ~steps ~shards ~schedule ~tblock ~precision ~kernels () in
      state_bits_equal a.Gpu_sim.state b.Gpu_sim.state)

let suite =
  [
    Alcotest.test_case "blocked runs bit-identical across scheme/precision/T" `Slow
      test_blocked_bit_identical;
    Alcotest.test_case "blocked runs agree across schedules" `Quick
      test_blocked_schedules_agree;
    Alcotest.test_case "blocked runs agree across engines" `Quick
      test_blocked_engines_agree;
    Alcotest.test_case "mid-block sync gathers exact state" `Quick
      test_mid_block_sync_is_exact;
    Alcotest.test_case "mid-block read addresses the owning shard" `Quick
      test_mid_block_read_addresses_owner;
    Alcotest.test_case "block depth clamps to the thinnest slab" `Quick
      test_tblock_clamps_to_thinnest_slab;
    Alcotest.test_case "blocked cost profile matches measured transfers" `Quick
      test_blocked_stats_profile;
    Alcotest.test_case "blocked sync+async plans verify at depth T" `Quick
      test_blocked_plans_verify_clean;
    Alcotest.test_case "depth T-1 exchange rejected, pointed" `Quick
      test_depth_short_exchange_rejected;
    QCheck_alcotest.to_alcotest qcheck_blocked_matches_sequential;
  ]
