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

(* -- Live planes -------------------------------------------------------- *)

(* The (goff, count) of a ranged launch, in elements, with its spans;
   [None] for a launch over its kernel's full NDRange. *)
let launch_range (o : Vgpu.Multi.async_op) =
  match o.Vgpu.Multi.a_op with
  | Vgpu.Multi.Dev (d, Vgpu.Runtime.Launch { kernel; args; global; spans }) ->
      let goff =
        List.find_map
          (fun ((p : param), a) ->
            match a with Vgpu.Runtime.A_int n when p.p_name = "goff" -> Some n | _ -> None)
          (List.combine kernel.params args)
      in
      Some (d, kernel, Option.map (fun g -> ((g, List.hd global), spans)) goff)
  | _ -> None

(* A plan's ops cut into steps: a step ends with the last device's last
   [Swap]. *)
let steps_of ~n (plan : Vgpu.Multi.async_plan) =
  let steps, cur =
    List.fold_left
      (fun (steps, cur) (o : Vgpu.Multi.async_op) ->
        match o.Vgpu.Multi.a_op with
        | Vgpu.Multi.Dev (d, Vgpu.Runtime.Swap ("v2", "v1")) when d = n - 1 ->
            (List.rev (o :: cur) :: steps, [])
        | _ -> (steps, o :: cur))
      ([], []) plan
  in
  assert (cur = []);
  List.rev steps

(* Every unsplit volume launch of [Gpu_sim.plan] sweeps exactly its
   shard's live planes, on every schedule, 1-4 shards and T 1-3; a
   block start of the overlapped schedule on several devices launches
   [Shard.split_ranges] as they are; every such launch visits exactly
   the shard's spans in its range ([Shard.launch_spans]), an emptied
   frontier none; split and unsplit launches share one kernel value per
   device; the boundary kernels keep their full NDRange; and no T = 1
   exchange waits on a launch. *)
let test_launches_cover_live_planes () =
  let room = Geometry.build ~n_materials:4 Geometry.Dome (Geometry.dims ~nx:9 ~ny:8 ~nz:12) in
  let nz = room.Geometry.dims.Geometry.nz in
  let check_config label kernels ~shards ~tblock (sname, schedule) =
    let sim =
      Gpu_sim.create ~engine:`Interp ~shards ~schedule ~tblock ~fi_beta:0.1 ~n_branches:3 params
        room
    in
    let n = Gpu_sim.n_shards sim and t = Gpu_sim.tblock sim in
    let p = sim.Gpu_sim.plan in
    let where = Printf.sprintf "%s shards=%d T=%d %s" label shards t sname in
    let forms = Array.make n None in
    List.iteri
      (fun k ops ->
        let split = schedule = `Overlap && n > 1 && k mod t = 0 in
        Array.iter
          (fun (sh : Shard.shard) ->
            let d = sh.Shard.index in
            let ranges =
              List.filter_map
                (fun o ->
                  match launch_range o with
                  | Some (d', kernel, Some (((goff, count) as r), spans)) when d' = d ->
                      (match forms.(d) with
                      | None -> forms.(d) <- Some kernel
                      | Some f ->
                          if f != kernel then
                            Alcotest.failf "%s step %d device %d: two volume forms" where k d);
                      Alcotest.(check (option (list (pair int int))))
                        (Printf.sprintf "%s step %d device %d spans of [%d, +%d)" where k d goff
                           count)
                        (Some (Vgpu.Spans.to_list (Shard.launch_spans sh ~goff ~count)))
                        (Option.map Vgpu.Spans.to_list spans);
                      Some r
                  | _ -> None)
                ops
            in
            let first, count = Shard.live_planes p sh in
            (* the local planes 1 .. planes-2 that map into the room's
               planes 1 .. nz-2 *)
            let live =
              List.filter
                (fun lp ->
                  let z = sh.Shard.z0 - sh.Shard.halo + lp in
                  z >= 1 && z <= nz - 2)
                (List.init (sh.Shard.planes - 2) (fun i -> i + 1))
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s device %d live planes" where d)
              live
              (List.init count (fun i -> first + i));
            let want =
              if split then List.map (fun (_, g, c) -> (g, c)) (Shard.split_ranges sh)
              else [ (first * sh.Shard.plane, count * sh.Shard.plane) ]
            in
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s step %d device %d ranges" where k d)
              want ranges)
          p.Shard.shards;
        List.iter
          (fun (o : Vgpu.Multi.async_op) ->
            match (launch_range o, o.Vgpu.Multi.a_op) with
            | Some (_, kernel, None), _ when kernel.global_size <> [ Var "nB" ] ->
                Alcotest.failf "%s: %s launched over its full NDRange" where kernel.name
            | Some _, _ when t = 1 && o.Vgpu.Multi.a_signal <> None ->
                Alcotest.failf "%s: a T = 1 launch signals an event" where
            | None, Vgpu.Multi.Exchange _ when t = 1 && o.Vgpu.Multi.a_waits <> [] ->
                Alcotest.failf "%s: a T = 1 exchange waits" where
            | _ -> ())
          ops)
      (steps_of ~n (Gpu_sim.plan sim kernels ~steps:((2 * t) + 1)))
  in
  List.iter
    (fun (label, kernels) ->
      List.iter
        (fun shards ->
          List.iter
            (fun tblock ->
              List.iter
                (check_config label kernels ~shards ~tblock)
                [ ("seq", `Seq); ("concurrent", `Concurrent); ("overlap", `Overlap) ])
            [ 1; 2; 3 ])
        [ 1; 2; 3; 4 ])
    [
      ("fi", kernels_of `Fi Double);
      ("fi-mm", kernels_of `Fi_mm Double);
      ("fd-mm", kernels_of `Fd_mm Double);
    ]

(* The nonzero runs of [b] in [lo, hi), as [(start, stop)]. *)
let nonzero_runs b ~lo ~hi =
  let runs = ref [] and start = ref (-1) in
  for i = lo to hi do
    let live = i < hi && Bytes.get b i <> '\000' in
    if live && !start < 0 then start := i
    else if (not live) && !start >= 0 then begin
      runs := (!start, i) :: !runs;
      start := -1
    end
  done;
  List.rev !runs

(* Each device's span set, for box, dome and L-shape, 1-4 shards, T
   1-3: ascending, disjoint and inside its hull (its live planes); it
   covers every nonzero byte of its slab there, and on these rooms each
   span is exactly one run of nonzero bytes. *)
let test_span_sets () =
  List.iter
    (fun shape ->
      let room = Geometry.build ~n_materials:4 shape (Geometry.dims ~nx:13 ~ny:11 ~nz:12) in
      List.iter
        (fun shards ->
          List.iter
            (fun halo ->
              let p = Shard.plan ~n_branches:3 ~halo ~shards room in
              Array.iter
                (fun (sh : Shard.shard) ->
                  let where =
                    Printf.sprintf "%s shards=%d T=%d device %d" (Geometry.shape_label shape)
                      shards sh.Shard.halo sh.Shard.index
                  in
                  let first, count = Shard.live_planes p sh in
                  let lo = first * sh.Shard.plane and hi = (first + count) * sh.Shard.plane in
                  (* as local indices *)
                  let spans =
                    List.map (fun (a, b) -> (a + lo, b + lo)) (Vgpu.Spans.to_list sh.Shard.spans)
                  in
                  ignore
                    (List.fold_left
                       (fun prev (a, b) ->
                         if a < prev || b <= a || a < lo || b > hi then
                           Alcotest.failf "%s: span [%d, %d) after %d, hull [%d, %d)" where a b
                             prev lo hi;
                         b)
                       lo spans);
                  for q = lo to hi - 1 do
                    if Bytes.get sh.Shard.nbrs q <> '\000'
                       && not (List.exists (fun (a, b) -> a <= q && q < b) spans)
                    then Alcotest.failf "%s: nonzero byte %d in no span" where q
                  done;
                  Alcotest.(check (list (pair int int)))
                    (where ^ ": the nonzero runs")
                    (nonzero_runs sh.Shard.nbrs ~lo ~hi)
                    spans)
                p.Shard.shards)
            [ 1; 2; 3 ])
        [ 1; 2; 3; 4 ])
    [ Geometry.Box; Geometry.Dome; Geometry.L_shape ]

let lift_kernels scheme precision =
  let c name lam = (Lift_acoustics.Programs.compile ~name ~precision lam).Lift.Codegen.kernel in
  c "volume" (Lift_acoustics.Programs.volume ())
  ::
  (match scheme with
  | `Fi -> [ c "boundary_fi" (Lift_acoustics.Programs.boundary_fi ()) ]
  | `Fi_mm -> [ c "boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ()) ]
  | `Fd_mm -> [ c "boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ()) ])

(* [plan] with every ranged launch widened to its shard's whole slab
   ([goff] 0, every element, no spans): what a launch over the full
   NDRange computes. *)
let widen (plan : Vgpu.Multi.async_plan) ~local_n =
  List.map
    (fun (o : Vgpu.Multi.async_op) ->
      match o.Vgpu.Multi.a_op with
      | Vgpu.Multi.Dev (d, Vgpu.Runtime.Launch l)
        when List.exists (fun (p : param) -> p.p_name = "goff") l.kernel.params ->
          let args =
            List.map2
              (fun (p : param) a -> if p.p_name = "goff" then Vgpu.Runtime.A_int 0 else a)
              l.kernel.params l.args
          in
          {
            o with
            Vgpu.Multi.a_op =
              Vgpu.Multi.Dev
                (d, Vgpu.Runtime.Launch { l with args; global = [ local_n ]; spans = None });
          }
      | _ -> o)
    plan

(* One device sweeps the room minus its two shell planes: after 50
   steps of each scheme, hand and Lift kernels, in both precisions, the
   shell planes of prev/curr/next still hold zeros, and the field
   matches the same kernels launched over the whole grid bit for bit —
   and, in double precision, the OCaml reference. *)
let test_one_device_shell_stays_zero () =
  let steps = 50 in
  let room = Geometry.build ~n_materials:4 Geometry.Dome (Geometry.dims ~nx:11 ~ny:9 ~nz:8) in
  let { Geometry.nx; ny; nz } = room.Geometry.dims in
  let tables = Material.tables ~n_branches:3 Material.defaults in
  let beta = 0.2 in
  List.iter
    (fun (label, scheme) ->
      List.iter
        (fun (origin, kernels_of) ->
          List.iter
            (fun precision ->
              let kernels = kernels_of scheme precision in
              let mk () =
                let sim =
                  Gpu_sim.create ~engine:`Native ~precision ~fi_beta:beta ~n_branches:3 params
                    room
                in
                let cx, cy, cz = State.centre sim.Gpu_sim.state in
                State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
                sim
              in
              let sim = mk () and whole = mk () in
              let wplan = widen (Gpu_sim.plan whole kernels ~steps:1) ~local_n:(nx * ny * nz) in
              for _ = 1 to steps do
                Gpu_sim.step sim kernels;
                Vgpu.Multi.run whole.Gpu_sim.multi
                  (List.map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_op) wplan)
              done;
              Gpu_sim.sync whole;
              let st = sim.Gpu_sim.state in
              let where =
                Printf.sprintf "%s %s %s" label origin
                  (match precision with Single -> "single" | Double -> "double")
              in
              List.iter
                (fun (name, a) ->
                  List.iter
                    (fun z ->
                      for q = z * nx * ny to ((z + 1) * nx * ny) - 1 do
                        if Int64.bits_of_float a.(q) <> 0L then
                          Alcotest.failf "%s: %s holds %g on shell plane %d" where name a.(q) z
                      done)
                    [ 0; nz - 1 ])
                [ ("prev", st.State.prev); ("curr", st.State.curr); ("next", st.State.next) ];
              check_state (where ^ " vs whole-grid launches") whole.Gpu_sim.state st;
              Test_util.check_bits (where ^ " next vs whole-grid launches")
                whole.Gpu_sim.state.State.next st.State.next;
              if precision = Double then begin
                let r = State.create ~n_branches:3 room in
                let cx, cy, cz = State.centre r in
                State.add_impulse r ~x:cx ~y:cy ~z:cz;
                for _ = 1 to steps do
                  match scheme with
                  | `Fi -> Ref_kernels.step_fi params r ~beta
                  | `Fi_mm -> Ref_kernels.step_fi_mm params r ~beta:tables.Material.t_beta
                  | `Fd_mm ->
                      Ref_kernels.step_fd_mm params r ~beta:tables.Material.t_beta_fd
                        ~bi:tables.Material.t_bi ~d:tables.Material.t_d ~f:tables.Material.t_f
                        ~di:tables.Material.t_di
                done;
                check_state (where ^ " vs reference") r st
              end)
            [ Double; Single ])
        [ ("hand", kernels_of); ("lift", lift_kernels) ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* The field on every device's [prev]/[curr]/[next] cells whose global
   point has [nbrs] = 0 in the room's grid (a slab zeroes its ghost
   planes' [nbrs], though they hold copies of the neighbour's live
   points), and on the out-of-grid ghost cells: all [+0.0]. *)
let check_dead_points where (sim : Gpu_sim.t) =
  let room = sim.Gpu_sim.state.State.room in
  let n = Geometry.n_points room.Geometry.dims in
  Array.iteri
    (fun d (sh : Shard.shard) ->
      let c = sim.Gpu_sim.cells.(d) in
      List.iter
        (fun (name, cell) ->
          match !cell with
          | Vgpu.Buffer.F a ->
              for q = 0 to sh.Shard.local_n - 1 do
                let g = sh.Shard.base + q in
                if (g < 0 || g >= n || Bytes.get room.Geometry.nbrs_u8 g = '\000')
                   && Int64.bits_of_float a.(q) <> 0L
                then
                  Alcotest.failf "%s: device %d %s holds %g at dead point %d" where d name a.(q) g
              done
          | _ -> Alcotest.failf "%s: %s is not real" where name)
        [ ("prev", c.Gpu_sim.c_prev); ("curr", c.Gpu_sim.c_curr); ("next", c.Gpu_sim.c_next) ])
    sim.Gpu_sim.plan.Shard.shards

(* The volume launches skip the dead points inside their hulls, where
   the hand kernel would write nothing and the Lift kernel 0: after 50
   steps of each scheme, Lift and hand, both precisions, on 1-3 shards
   under every schedule, every dead point still holds +0.0. *)
let test_dead_points_stay_zero () =
  let room = Geometry.build ~n_materials:4 Geometry.Dome (Geometry.dims ~nx:11 ~ny:9 ~nz:10) in
  List.iter
    (fun (label, scheme) ->
      List.iter
        (fun (origin, kernels_of) ->
          List.iter
            (fun precision ->
              let kernels = kernels_of scheme precision in
              List.iter
                (fun (shards, tblock) ->
                  List.iter
                    (fun (sname, schedule) ->
                      let sim =
                        Gpu_sim.create ~engine:`Native ~shards ~schedule ~tblock ~precision
                          ~fi_beta:0.2 ~n_branches:3 params room
                      in
                      let cx, cy, cz = State.centre sim.Gpu_sim.state in
                      State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
                      for _ = 1 to 50 do
                        Gpu_sim.step sim kernels
                      done;
                      check_dead_points
                        (Printf.sprintf "%s %s %s shards=%d T=%d %s" label origin
                           (match precision with Single -> "single" | Double -> "double")
                           shards tblock sname)
                        sim)
                    [ ("seq", `Seq); ("concurrent", `Concurrent); ("overlap", `Overlap) ])
                [ (1, 1); (2, 1); (3, 2) ])
            [ Double; Single ])
        [ ("hand", kernels_of); ("lift", lift_kernels) ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

(* The identity tests see the span set: a plan whose volume launch
   drops the impulse's own point from its span diverges from the OCaml
   reference within 2 steps, while the plan as built matches it. *)
let test_span_mutation_diverges () =
  let room = Geometry.build ~n_materials:4 Geometry.Dome (Geometry.dims ~nx:11 ~ny:9 ~nz:8) in
  let kernels = kernels_of `Fi Double and steps = 2 in
  let run mutate =
    let sim = Gpu_sim.create ~engine:`Native ~fi_beta:0.2 ~n_branches:3 params room in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    let i = State.idx_of sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz in
    (* the launch's spans without work item [i - goff] *)
    let drop goff s =
      let w = i - goff in
      Vgpu.Spans.of_list
        (List.concat_map
           (fun (a, b) -> if a <= w && w < b then [ (a, w); (w + 1, b) ] else [ (a, b) ])
           (Vgpu.Spans.to_list s))
    in
    let op (o : Vgpu.Multi.async_op) =
      match (launch_range o, o.Vgpu.Multi.a_op) with
      | Some (_, _, Some ((goff, _), Some s)), Vgpu.Multi.Dev (d, Vgpu.Runtime.Launch l) when mutate
        ->
          Vgpu.Multi.Dev (d, Vgpu.Runtime.Launch { l with spans = Some (drop goff s) })
      | _ -> o.Vgpu.Multi.a_op
    in
    Vgpu.Multi.run sim.Gpu_sim.multi (List.map op (Gpu_sim.plan sim kernels ~steps));
    Gpu_sim.sync sim;
    sim.Gpu_sim.state
  in
  let r = State.create ~n_branches:3 room in
  let cx, cy, cz = State.centre r in
  State.add_impulse r ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Ref_kernels.step_fi params r ~beta:0.2
  done;
  Test_util.check_bits "the plan as built vs reference" r.State.curr (run false).State.curr;
  let mutant = (run true).State.curr in
  Alcotest.(check bool) "a dropped impulse point diverges from the reference" true
    (Array.exists2 (fun a b -> Int64.bits_of_float a <> Int64.bits_of_float b) r.State.curr mutant)

(* nz = 3 on 3 shards: the outer shards own only the room's shell
   planes, so their live ranges and span sets are empty (zero-count,
   zero-span launches), and every schedule is bit-identical to one
   device; the plans verify clean. *)
let test_empty_live_ranges () =
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:9 ~ny:8 ~nz:3) in
  let p = Shard.plan ~shards:3 room in
  Alcotest.(check (list (pair int int)))
    "live planes" [ (2, 0); (1, 1); (1, 0) ]
    (Array.to_list (Array.map (Shard.live_planes p) p.Shard.shards));
  Alcotest.(check (list int))
    "spans per shard" [ 0; 6; 0 ]
    (Array.to_list (Array.map (fun (sh : Shard.shard) -> Vgpu.Spans.length sh.Shard.spans) p.Shard.shards));
  List.iter
    (fun (label, scheme) ->
      let kernels = kernels_of scheme Double in
      let mk ?shards ?schedule () =
        let sim =
          Gpu_sim.create ~engine:`Native ?shards ?schedule ~fi_beta:0.2 ~n_branches:3 params room
        in
        let cx, cy, cz = State.centre sim.Gpu_sim.state in
        State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
        sim
      in
      let one = mk () in
      for _ = 1 to steps do
        Gpu_sim.step one kernels
      done;
      List.iter
        (fun schedule ->
          let sim = mk ~shards:3 ~schedule () in
          let nx, ny, planes = Gpu_sim.slab_geometry sim in
          Alcotest.(check (list string))
            (label ^ ": plan verifies clean")
            []
            (List.map
               (fun (i : Lift.Lint.issue) -> i.Lift.Lint.code)
               (Lift.Lint.errors
                  (Lift.Lint.verify_async ~halo:1 ~state_bufs:[ "g1"; "v1" ]
                     { Lift.Lint.sl_nx = nx; sl_ny = ny; sl_planes = planes }
                     (Gpu_sim.plan sim kernels ~steps:2))));
          for _ = 1 to steps do
            Gpu_sim.step sim kernels
          done;
          Gpu_sim.sync sim;
          check_state (label ^ " nz=3, 3 shards vs one device") one.Gpu_sim.state
            sim.Gpu_sim.state)
        [ `Seq; `Concurrent; `Overlap ])
    [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

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
    Alcotest.test_case "volume launches cover the live planes" `Quick
      test_launches_cover_live_planes;
    Alcotest.test_case "one device: shell planes stay zero" `Quick
      test_one_device_shell_stays_zero;
    Alcotest.test_case "nz = 3 on 3 shards: empty live ranges" `Quick test_empty_live_ranges;
    Alcotest.test_case "span sets: the room's nonzero runs" `Quick test_span_sets;
    Alcotest.test_case "dead points stay +0.0 on every device" `Quick test_dead_points_stay_zero;
    Alcotest.test_case "a span without the impulse point diverges" `Quick
      test_span_mutation_diverges;
  ]
