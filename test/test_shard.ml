(* Cross-validation of the Z-sharded multi-device backend.

   Differential tests: the three paper workloads (FI as volume +
   boundary_fi, FI-MM, FD-MM) run for 10 time steps under 1/2/3/4
   shards, in both precisions, against the single-device interpreter and
   native engine; every grid and boundary-state array must match bit-for-bit —
   the invariant that makes the decomposition unobservable.  (FI uses
   the two-kernel nbrs-driven form here: the fused Listing-1 kernel
   derives its boundary mask from global coordinates, which is only
   meaningful on the full grid.)

   Property tests: for random grid sizes and shard counts, the
   Z-partition is an exact disjoint cover of the planes; and a
   scatter / random-store / halo-exchange / gather round trip through
   the shard machinery reproduces exactly the unsharded grid.

   Stats tests: per-kernel launch counts scale with the shard count and
   the aggregated transfer bytes include the halo planes at the
   precision in force.

   Plan test: the plan [Gpu_sim.plan] returns — the value racs check
   verifies — executed directly through [Vgpu.Multi] reproduces what
   [Gpu_sim.step] computes, for every schedule, scheme, shard count and
   block depth.  An early [sync] leaves the global state in charge until
   the first step. *)

open Kernel_ast.Cast
open Acoustics

let params = Params.default
let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let steps = 10
let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

let kernels_of scheme precision =
  match scheme with
  | `Fi -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]
  | `Fi_mm ->
      [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]
  | `Fd_mm ->
      [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]

let run ?shards ~engine ~kernels () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim = Gpu_sim.create ~engine ?shards ~fi_beta:0.2 ~n_branches:3 params room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.sync sim;
  sim

let check_state msg (a : State.t) (b : State.t) =
  Test_util.check_bits (msg ^ " curr") a.State.curr b.State.curr;
  Test_util.check_bits (msg ^ " prev") a.State.prev b.State.prev;
  Test_util.check_bits (msg ^ " g1") a.State.g1 b.State.g1;
  Test_util.check_bits (msg ^ " vel") a.State.vel_prev b.State.vel_prev

(* FI / FI-MM / FD-MM, 1-4 shards, both precisions, vs the single-device
   interpreter and native engine. *)
let test_sharded_bit_identical () =
  List.iter
    (fun (scheme_label, scheme) ->
      List.iter
        (fun precision ->
          let kernels = kernels_of scheme precision in
          let references =
            List.map
              (fun (l, engine) -> (l, (run ~engine ~kernels ()).Gpu_sim.state))
              [ ("interp", `Interp); ("native", `Native) ]
          in
          List.iter
            (fun shards ->
              let sharded = run ~shards ~engine:`Native ~kernels () in
              Alcotest.(check int)
                (Printf.sprintf "%s: %d shards materialised" scheme_label shards)
                shards
                (Gpu_sim.n_shards sharded);
              List.iter
                (fun (ref_label, ref_state) ->
                  let msg =
                    Printf.sprintf "%s %s shards=%d vs %s" scheme_label
                      (match precision with Single -> "single" | Double -> "double")
                      shards ref_label
                  in
                  check_state msg ref_state sharded.Gpu_sim.state)
                references)
            [ 1; 2; 3; 4 ])
        [ Double; Single ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* The sharded interpreter engine must agree with sharded native too. *)
(* Each shard's byte nbrs slab, blitted from the room's byte grid: real
   counts on local planes [1, planes-2] that lie in the grid (the halo-1
   inner ghost planes included), zero on the two extreme planes and on
   planes outside the grid. *)
let test_slab_nbrs_layout () =
  let room = Geometry.build Geometry.Dome (Geometry.dims ~nx:13 ~ny:11 ~nz:12) in
  let nz = room.Geometry.dims.Geometry.nz in
  List.iter
    (fun (shards, halo) ->
      let p = Shard.plan ~halo ~shards room in
      Array.iter
        (fun (sh : Shard.shard) ->
          Alcotest.(check int) "slab length" sh.Shard.local_n (Bytes.length sh.Shard.nbrs);
          for q = 0 to sh.Shard.local_n - 1 do
            let lp = q / sh.Shard.plane in
            let z = sh.Shard.z0 - sh.Shard.halo + lp in
            let want =
              if lp = 0 || lp = sh.Shard.planes - 1 || z < 0 || z >= nz then 0
              else room.Geometry.nbrs.(sh.Shard.base + q)
            in
            if Bytes.get_uint8 sh.Shard.nbrs q <> want then
              Alcotest.failf "%d shards, halo %d: shard %d local %d holds %d, want %d" shards halo
                sh.Shard.index q (Bytes.get_uint8 sh.Shard.nbrs q) want
          done)
        p.Shard.shards)
    [ (1, 1); (2, 1); (3, 1); (2, 2); (2, 3); (4, 2) ]

let test_sharded_interp_matches_native () =
  let kernels = kernels_of `Fd_mm Double in
  let a = run ~shards:3 ~engine:`Interp ~kernels () in
  let b = run ~shards:3 ~engine:`Native ~kernels () in
  check_state "fd-mm sharded interp vs native" a.Gpu_sim.state b.Gpu_sim.state

(* [Gpu_sim.read] must address the owning shard without a gather. *)
let test_read_addresses_owner () =
  let kernels = kernels_of `Fi Double in
  let single = run ~engine:`Native ~kernels () in
  let sharded = run ~shards:4 ~engine:`Native ~kernels () in
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

(* [read] and [sync] read each device's state cells, looked up once at
   [create]: after steps have rotated the bindings, rebinding a device's
   [curr] (as an executor of [Gpu_sim.plan] does) must be seen by both,
   on one device and on two shards.  Each fresh array holds, at every
   local index, the global index it stands for. *)
let test_read_after_rebind () =
  let kernels = kernels_of `Fi Double in
  List.iter
    (fun shards ->
      let sim = run ~shards ~engine:`Native ~kernels () in
      Array.iter
        (fun (sh : Shard.shard) ->
          let fresh = Array.init sh.Shard.local_n (fun l -> float_of_int (sh.Shard.base + l)) in
          Vgpu.Multi.bind sim.Gpu_sim.multi sh.Shard.index "curr" (Vgpu.Buffer.F fresh))
        sim.Gpu_sim.plan.Shard.shards;
      let { Geometry.nx; ny; nz } = dims in
      for z = 0 to nz - 1 do
        for y = 0 to ny - 1 do
          for x = 0 to nx - 1 do
            let idx = State.idx_of sim.Gpu_sim.state ~x ~y ~z in
            let v = Gpu_sim.read sim ~x ~y ~z in
            if v <> float_of_int idx then
              Alcotest.failf "%d shard(s): read (%d,%d,%d) = %g, want %d" shards x y z v idx
          done
        done
      done;
      Gpu_sim.sync sim;
      Array.iteri
        (fun idx v ->
          if v <> float_of_int idx then
            Alcotest.failf "%d shard(s): synced curr.(%d) = %g" shards idx v)
        sim.Gpu_sim.state.State.curr)
    [ 1; 2 ]

(* -- Properties ------------------------------------------------------ *)

(* The Z-partition is an exact disjoint cover: non-empty contiguous
   slabs, first starts at 0, last ends at nz, clamped count. *)
let qcheck_partition_covers =
  QCheck.Test.make ~name:"Z-partition is an exact disjoint cover" ~count:500
    QCheck.(pair (int_range 1 60) (int_range 1 10))
    (fun (nz, shards) ->
      let slabs = Shard.partition ~nz ~shards in
      let n = Array.length slabs in
      n = min shards nz
      && slabs.(0).Shard.z0 = 0
      && slabs.(n - 1).Shard.z1 = nz
      && Array.for_all (fun (s : Shard.slab) -> s.Shard.z0 < s.Shard.z1) slabs
      && Array.for_all2
           (fun (a : Shard.slab) (b : Shard.slab) -> a.Shard.z1 = b.Shard.z0)
           (Array.sub slabs 0 (n - 1))
           (Array.sub slabs 1 (n - 1)))

(* Scatter a random grid, store a random pattern into every shard's
   owned planes of [next] (all of them in a one-slab plan, which has no
   ghost planes), halo-exchange, then check: (a) gathering
   reproduces exactly the unsharded result of the same stores; (b) every
   interior ghost plane equals the neighbouring shard's owned plane. *)
let qcheck_exchange_round_trip =
  QCheck.Test.make ~name:"halo exchange reproduces the unsharded grid" ~count:100
    QCheck.(
      quad (int_range 3 8) (int_range 3 6) (int_range 3 12) (int_range 1 6))
    (fun (nx, ny, nz, shards) ->
      let room = Geometry.build Geometry.Box (Geometry.dims ~nx ~ny ~nz) in
      let p = Shard.plan ~shards room in
      let st = State.create room in
      let n = Geometry.n_points room.Geometry.dims in
      let rnd = QCheck.Gen.(generate1 (array_size (return n) (float_range 0. 1.))) in
      Array.blit rnd 0 st.State.curr 0 n;
      let sstates = Shard.create_states p in
      Shard.scatter p st sstates;
      (* the same deterministic store pattern, unsharded and sharded *)
      let store_global = Array.copy st.State.next in
      for idx = 0 to n - 1 do
        if idx mod 3 = 0 then store_global.(idx) <- st.State.curr.(idx) *. 2.
      done;
      Array.iteri
        (fun i (sh : Shard.shard) ->
          let ss = sstates.(i) in
          for l = sh.Shard.halo * sh.Shard.plane to ((sh.Shard.planes - sh.Shard.halo) * sh.Shard.plane) - 1 do
            let idx = sh.Shard.base + l in
            if idx mod 3 = 0 then ss.Shard.next.(l) <- ss.Shard.curr.(l) *. 2.
          done)
        p.Shard.shards;
      (* run the exchange through a Multi, as the simulation does *)
      let multi = Vgpu.Multi.create ~devices:(Shard.n_shards p) () in
      Array.iteri
        (fun i (ss : Shard.shard_state) ->
          Vgpu.Multi.bind multi i "next" (Vgpu.Buffer.F ss.Shard.next))
        sstates;
      Vgpu.Multi.run multi (Shard.exchange_ops p ~buffer:"next");
      Shard.gather p sstates st;
      let gathered_ok =
        Array.for_all2
          (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          store_global st.State.next
      in
      let ghosts_ok = ref true in
      Array.iteri
        (fun i (sh : Shard.shard) ->
          let ss = sstates.(i) in
          for l = 0 to sh.Shard.local_n - 1 do
            let idx = sh.Shard.base + l in
            if idx >= 0 && idx < n && ss.Shard.next.(l) <> store_global.(idx) then
              ghosts_ok := false
          done)
        p.Shard.shards;
      gathered_ok && !ghosts_ok)

(* -- Stats under sharding -------------------------------------------- *)

let halo_steps_bytes ~precision ~shards =
  let plane = dims.Geometry.nx * dims.Geometry.ny in
  steps * Vgpu.Perf_model.halo_bytes_per_step ~radius:1 ~precision ~plane_elems:plane ~shards

let test_stats_scale_with_shards () =
  let shards = 3 in
  let kernels = kernels_of `Fi Double in
  let sim = run ~shards ~engine:`Native ~kernels () in
  let s = Gpu_sim.stats sim in
  Alcotest.(check int) "total launches" (steps * shards * 2) s.Vgpu.Runtime.s_launches;
  List.iter
    (fun name ->
      match List.assoc_opt name s.Vgpu.Runtime.per_kernel with
      | None -> Alcotest.failf "no per-kernel stats for %s" name
      | Some k ->
          Alcotest.(check int)
            (name ^ " launches") (steps * shards) k.Vgpu.Runtime.k_launches)
    [ "volume"; "boundary_fi" ];
  let per = Gpu_sim.per_shard_stats sim in
  Alcotest.(check int) "per-shard entries" shards (List.length per);
  List.iter
    (fun (i, (d : Vgpu.Runtime.stats)) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d launches" i)
        (steps * 2) d.Vgpu.Runtime.s_launches)
    per

let test_halo_bytes_at_precision () =
  List.iter
    (fun (precision, label) ->
      List.iter
        (fun shards ->
          let kernels = kernels_of `Fi precision in
          let room = Geometry.build ~n_materials:4 Geometry.Box dims in
          let sim =
            Gpu_sim.create ~engine:`Native ~shards ~precision ~fi_beta:0.2 ~n_branches:3
              params room
          in
          for _ = 1 to steps do
            Gpu_sim.step sim kernels
          done;
          let s = Gpu_sim.stats sim in
          Alcotest.(check int)
            (Printf.sprintf "%s shards=%d d2d bytes" label shards)
            (halo_steps_bytes ~precision ~shards)
            s.Vgpu.Runtime.s_d2d_bytes)
        [ 1; 2; 4 ])
    [ (Double, "double"); (Single, "single") ]

(* -- The verified plan is the executed plan ---------------------------- *)

(* Step a simulation n times; on a twin, execute [Gpu_sim.plan ~steps:n]
   through [Vgpu.Multi] ([run] in list order for the sync schedules,
   [run_async] for the overlapped one).  Grids and branch state must
   agree bit for bit. *)
let test_plan_is_what_step_runs () =
  let room = Geometry.build ~n_materials:4 Geometry.Dome (Geometry.dims ~nx:9 ~ny:8 ~nz:12) in
  let schemes =
    [
      ("fi", kernels_of `Fi Double);
      ("fi-mm", kernels_of `Fi_mm Double);
      ("fd-mm", kernels_of `Fd_mm Double);
    ]
  in
  List.iter
    (fun (label, kernels) ->
      List.iter
        (fun shards ->
          List.iter
            (fun tblock ->
              List.iter
                (fun schedule ->
                  let mk () =
                    let sim =
                      Gpu_sim.create ~engine:`Native ~shards ~schedule ~tblock ~fi_beta:0.1
                        ~n_branches:3 params room
                    in
                    let cx, cy, cz = State.centre sim.Gpu_sim.state in
                    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
                    sim
                  in
                  let stepped = mk () and twin = mk () in
                  let steps = (2 * tblock) + 1 in
                  let plan = Gpu_sim.plan twin kernels ~steps in
                  for _ = 1 to steps do
                    Gpu_sim.step stepped kernels
                  done;
                  Gpu_sim.ensure_scattered twin;
                  (match schedule with
                  | `Overlap -> ignore (Vgpu.Multi.run_async twin.Gpu_sim.multi plan)
                  | `Seq | `Concurrent ->
                      Vgpu.Multi.run twin.Gpu_sim.multi
                        (List.map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_op) plan));
                  Gpu_sim.sync stepped;
                  Gpu_sim.sync twin;
                  let a = stepped.Gpu_sim.state and b = twin.Gpu_sim.state in
                  let msg =
                    Printf.sprintf "%s shards=%d T=%d %s" label shards tblock
                      (match schedule with
                      | `Seq -> "seq"
                      | `Concurrent -> "concurrent"
                      | `Overlap -> "overlap")
                  in
                  check_state msg a b;
                  Test_util.check_bits (msg ^ " next") a.State.next b.State.next;
                  Test_util.check_bits (msg ^ " v1") a.State.vel_next b.State.vel_next)
                [ `Seq; `Concurrent; `Overlap ])
            [ 1; 2; 3 ])
        [ 1; 2; 3; 4 ])
    schemes

(* Before the first step [state] is the only copy of the field: an
   early [sync] gathers nothing, and an impulse added after it still
   reaches the shards. *)
let test_early_sync_keeps_impulses () =
  let kernels = kernels_of `Fi Double in
  let reference = run ~engine:`Native ~kernels () in
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim = Gpu_sim.create ~engine:`Native ~shards:2 ~fi_beta:0.2 ~n_branches:3 params room in
  Gpu_sim.sync sim;
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.sync sim;
  check_state "impulse after an early sync" reference.Gpu_sim.state sim.Gpu_sim.state

let suite =
  [
    Alcotest.test_case "FI/FI-MM/FD-MM bit-identical under 1-4 shards" `Slow
      test_sharded_bit_identical;
    Alcotest.test_case "sharded interp == sharded native" `Quick
      test_sharded_interp_matches_native;
    Alcotest.test_case "byte nbrs slabs blitted from the room" `Quick test_slab_nbrs_layout;
    Alcotest.test_case "read addresses the owning shard" `Quick test_read_addresses_owner;
    Alcotest.test_case "read and sync see a rebound curr" `Quick test_read_after_rebind;
    QCheck_alcotest.to_alcotest qcheck_partition_covers;
    QCheck_alcotest.to_alcotest qcheck_exchange_round_trip;
    Alcotest.test_case "launch stats scale with the shard count" `Quick
      test_stats_scale_with_shards;
    Alcotest.test_case "halo bytes counted at the transfer precision" `Quick
      test_halo_bytes_at_precision;
    Alcotest.test_case "the planned ops are the stepped ops" `Quick
      test_plan_is_what_step_runs;
    Alcotest.test_case "an impulse added after an early sync is stepped" `Quick
      test_early_sync_keeps_impulses;
  ]
