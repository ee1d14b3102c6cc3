(* Benchmark harness.

   Two layers, matching the paper's evaluation:

   1. The *model* reproduction: every table and figure of the paper
      (Table II/III, Figures 2/4/5/6 with appendix Tables IV/V/VI),
      regenerated through the analytic GPU performance model from the
      actual kernel ASTs, printed next to the paper's reported numbers
      with a shape-agreement summary.

   2. *Measured* micro-benchmarks (Bechamel): wall-clock execution of the
      same kernels — Lift-generated vs hand-written — on the virtual
      GPU's native engine, one group per paper table/figure, on a small
      room.  These verify that the Lift-generated kernels are on par
      with the hand-written ones when both run on identical hardware,
      which is the paper's headline claim. *)

open Bechamel
open Acoustics

let params = Params.default
let bench_dims = Geometry.dims ~nx:48 ~ny:40 ~nz:32
let precision = Kernel_ast.Cast.Double

let lift_kernel name prog =
  (Lift_acoustics.Programs.compile ~name ~precision prog).Lift.Codegen.kernel

let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

type bench_sim = {
  sim : Gpu_sim.t;
  kernels : Kernel_ast.Cast.kernel list;
}

let make_sim shape kernels =
  let room = Geometry.build ~n_materials:4 shape bench_dims in
  let sim = Gpu_sim.create ~fi_beta:0.1 ~n_branches:3 params room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  (* warm the kernel caches: optimize, cc + dlopen *)
  List.iter (Gpu_sim.launch sim) kernels;
  { sim; kernels }

let step_test ~name bs =
  Test.make ~name (Staged.stage (fun () -> Gpu_sim.step bs.sim bs.kernels))

let launch_test ~name bs kernel =
  Test.make ~name (Staged.stage (fun () -> Gpu_sim.launch bs.sim kernel))

(* Reference (pure OCaml) implementations for context. *)
let ref_step_test ~name room f =
  let st = State.create ~n_branches:3 room in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  Test.make ~name (Staged.stage (fun () -> f st))

let build_tests () =
  let hand_fused = Hand_kernels.fused_fi ~precision in
  let lift_fused = lift_kernel "lift_fused_fi" (Lift_acoustics.Programs.fused_fi ()) in
  let hand_volume = Hand_kernels.volume ~precision in
  let lift_volume = lift_kernel "lift_volume" (Lift_acoustics.Programs.volume ()) in
  let hand_fi_mm = Hand_kernels.boundary_fi_mm ~precision ~betas in
  let lift_fi_mm = lift_kernel "lift_boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ()) in
  let hand_fd_mm = Hand_kernels.boundary_fd_mm ~precision ~mb:3 in
  let lift_fd_mm =
    lift_kernel "lift_boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ())
  in
  let room = Geometry.build ~n_materials:4 Geometry.Box bench_dims in
  let tables = Material.tables ~n_branches:3 Material.defaults in
  let fig4 =
    Test.make_grouped ~name:"table4_fi_fused"
      [
        step_test ~name:"hand" (make_sim Geometry.Box [ hand_fused ]);
        step_test ~name:"lift" (make_sim Geometry.Box [ lift_fused ]);
        ref_step_test ~name:"ocaml_ref" room (fun st ->
            Ref_kernels.fused_fi_box params ~dims:bench_dims ~beta:0.1 ~prev:st.State.prev
              ~curr:st.State.curr ~next:st.State.next;
            State.rotate st);
      ]
  in
  let fi_mm_sim_h = make_sim Geometry.Box [ hand_volume; hand_fi_mm ] in
  let fi_mm_sim_l = make_sim Geometry.Box [ lift_volume; lift_fi_mm ] in
  let fig5 =
    Test.make_grouped ~name:"table5_fi_mm_boundary"
      [
        launch_test ~name:"hand" fi_mm_sim_h hand_fi_mm;
        launch_test ~name:"lift" fi_mm_sim_l lift_fi_mm;
        ref_step_test ~name:"ocaml_ref" room (fun st ->
            Ref_kernels.boundary_fi_mm params
              ~boundary_indices:room.Geometry.boundary_indices ~nbrs:room.Geometry.nbrs
              ~material:room.Geometry.material ~beta:tables.Material.t_beta
              ~prev:st.State.prev ~next:st.State.next);
      ]
  in
  let fd_mm_sim_h = make_sim Geometry.Box [ hand_volume; hand_fd_mm ] in
  let fd_mm_sim_l = make_sim Geometry.Box [ lift_volume; lift_fd_mm ] in
  let fig6 =
    Test.make_grouped ~name:"table6_fd_mm_boundary"
      [
        launch_test ~name:"hand" fd_mm_sim_h hand_fd_mm;
        launch_test ~name:"lift" fd_mm_sim_l lift_fd_mm;
        ref_step_test ~name:"ocaml_ref" room (fun st ->
            Ref_kernels.boundary_fd_mm params ~mb:3
              ~boundary_indices:room.Geometry.boundary_indices ~nbrs:room.Geometry.nbrs
              ~material:room.Geometry.material ~beta:tables.Material.t_beta_fd
              ~bi:tables.Material.t_bi ~d:tables.Material.t_d ~f:tables.Material.t_f
              ~di:tables.Material.t_di ~prev:st.State.prev ~next:st.State.next
              ~g1:st.State.g1 ~vel_prev:st.State.vel_prev ~vel_next:st.State.vel_next);
      ]
  in
  let fig2 =
    Test.make_grouped ~name:"fig2_step_shares"
      [
        launch_test ~name:"volume_kernel" fd_mm_sim_h hand_volume;
        step_test ~name:"full_step_fi_mm" fi_mm_sim_h;
        step_test ~name:"full_step_fd_mm" fd_mm_sim_h;
      ]
  in
  Test.make_grouped ~name:"bench" [ fig4; fig5; fig6; fig2 ]

let run_benchmarks () =
  let tests = build_tests () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  Printf.printf "\n== Measured wall-clock on the virtual GPU (this machine) ==\n";
  Printf.printf "%-44s %14s\n" "benchmark" "time/run (ms)";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter (fun (name, ns) -> Printf.printf "%-44s %14.3f\n" name (ns /. 1e6)) rows;
  (* headline ratios *)
  let find key = List.assoc_opt key rows in
  let ratio label a b =
    match (find a, find b) with
    | Some x, Some y -> Printf.printf "%-44s %14.2f\n" label (x /. y)
    | _ -> ()
  in
  Printf.printf "\n== Lift-generated vs hand-written (same virtual GPU) ==\n";
  ratio "FI fused: lift / hand" "bench/table4_fi_fused/lift" "bench/table4_fi_fused/hand";
  ratio "FI-MM boundary: lift / hand" "bench/table5_fi_mm_boundary/lift"
    "bench/table5_fi_mm_boundary/hand";
  ratio "FD-MM boundary: lift / hand" "bench/table6_fd_mm_boundary/lift"
    "bench/table6_fd_mm_boundary/hand";
  match
    ( find "bench/fig2_step_shares/volume_kernel",
      find "bench/fig2_step_shares/full_step_fi_mm",
      find "bench/fig2_step_shares/full_step_fd_mm" )
  with
  | Some v, Some fi, Some fd ->
      Printf.printf "\n== Figure 2 (measured): boundary share of a full step ==\n";
      Printf.printf "FI-MM boundary share: %5.1f%%\n" ((fi -. v) /. fi *. 100.);
      Printf.printf "FD-MM boundary share: %5.1f%%\n" ((fd -. v) /. fd *. 100.)
  | _ -> ()

(* Ablations of the design choices DESIGN.md calls out:
   - private-memory staging of FD branch state vs re-reading global memory;
   - branch-major vs point-major state layout;
   - boundary-index contiguity (sorted vs shuffled indices, model-side via
     the coalescing factor). *)
let run_ablations () =
  Printf.printf "\n== Ablations (FD-MM boundary kernel) ==\n";
  let device = Vgpu.Device.gtx780 in
  let dims = List.hd Geometry.paper_sizes in
  let w = Harness.Workloads.workload (Harness.Workloads.Boundary 3) Geometry.Box dims in
  let variant label ?(staging = `Private) ?(layout = `Branch_major) () =
    let k =
      lift_kernel "fd_variant"
        (Lift_acoustics.Programs.boundary_fd_mm ~staging ~layout ~mb:3 ())
    in
    let t = Vgpu.Perf_model.predict device k w in
    let c = Kernel_ast.Analysis.kernel_counts k in
    Printf.printf "%-38s model %7.3f ms   (%2.0f loads, %2.0f stores / update)\n" label
      (t *. 1e3)
      (Kernel_ast.Analysis.total_loads c)
      (Kernel_ast.Analysis.total_stores c)
  in
  variant "private staging, branch-major (paper)" ();
  variant "global re-reads, branch-major" ~staging:`Global ();
  variant "private staging, point-major" ~layout:`Point_major ();
  (* contiguity: the same kernel on sorted vs fully scattered boundaries *)
  let k = lift_kernel "fd" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ()) in
  List.iter
    (fun (label, contiguity) ->
      let w = { w with Vgpu.Perf_model.contiguity } in
      Printf.printf "%-38s model %7.3f ms\n" label (Vgpu.Perf_model.predict device k w *. 1e3))
    [
      ("boundary indices sorted (box: 0.78)", 0.78);
      ("boundary indices shuffled (0.0)", 0.0);
      ("perfectly contiguous (1.0)", 1.0);
    ];
  (* measured: staging ablation on the virtual GPU's native engine *)
  let measure staging =
    let bs =
      make_sim Geometry.Box
        [ lift_kernel "fd_m" (Lift_acoustics.Programs.boundary_fd_mm ~staging ~mb:3 ()) ]
    in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 40 do
      List.iter (Gpu_sim.launch bs.sim) bs.kernels
    done;
    (Unix.gettimeofday () -. t0) /. 40.
  in
  let tp = measure `Private and tg = measure `Global in
  Printf.printf "measured native: private %.3f ms, global re-reads %.3f ms (x%.2f)\n" (tp *. 1e3)
    (tg *. 1e3) (tg /. tp)

(* Z-sharded multi-device execution: the grid cut into slabs along Z,
   one virtual device per slab, ghost planes exchanged every step.
   Verifies the sharded grid is bit-identical to the single-device run
   after the same number of steps, then reports wall-clock per step,
   total halo traffic, and the analytic model's view of the split. *)
let run_shard_scaling () =
  Printf.printf "\n== Z-sharded multi-device execution (virtual) ==\n";
  let dims = Geometry.dims ~nx:96 ~ny:80 ~nz:64 in
  let kernels =
    [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]
  in
  let steps = 5 in
  let make ?shards () =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let sim = Gpu_sim.create ?shards ~fi_beta:0.1 ~n_branches:3 params room in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    Gpu_sim.step sim kernels;
    (* warm-up: compile + scatter *)
    sim
  in
  let measure sim =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to steps do
      Gpu_sim.step sim kernels
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int steps
  in
  let base = make () in
  let t_base = measure base in
  Printf.printf "room %dx%dx%d, fd-mm step, %d reps\n" dims.Geometry.nx dims.Geometry.ny
    dims.Geometry.nz steps;
  Printf.printf "%-24s %10.3f ms/step\n" "native, single device" (t_base *. 1e3);
  List.iter
    (fun shards ->
      let sim = make ~shards () in
      let t = measure sim in
      Gpu_sim.sync sim;
      let same =
        Array.for_all2
          (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          base.Gpu_sim.state.State.curr sim.Gpu_sim.state.State.curr
      in
      let s = Gpu_sim.stats sim in
      Printf.printf
        "%-24s %10.3f ms/step   speedup x%.2f   halo %6.2f MB   bit-identical %b\n"
        (Printf.sprintf "native, %d shards" shards)
        (t *. 1e3) (t_base /. t)
        (float_of_int s.Vgpu.Runtime.s_d2d_bytes /. 1e6)
        same)
    [ 1; 2; 4 ];
  (* the analytic model's view of the same split (volume kernel) *)
  let w = Harness.Workloads.workload Harness.Workloads.Volume Geometry.Box dims in
  let k = Hand_kernels.volume ~precision in
  List.iter
    (fun shards ->
      Printf.printf "model (volume, gtx780): %d shard(s) %8.3f ms/step\n" shards
        (Vgpu.Perf_model.predict_sharded Vgpu.Device.gtx780 k w
           ~plane_elems:(dims.Geometry.nx * dims.Geometry.ny)
           ~shards
        *. 1e3))
    [ 1; 2; 4 ]

(* Optimizer trajectory: the same two-kernel time step measured with the
   runtime's kernel-AST optimizer pipeline (Kernel_ast.Opt) off and on,
   for every scheme and for single-device and 2-shard execution.  The
   kernels are compiled with [~optimize:false] so the runtime performs
   (and reports) the optimization itself, exactly as `racs simulate`
   does.  With --json FILE the rows are written as JSON (schema in
   EXPERIMENTS.md) so successive PRs can track the trajectory. *)
let run_opt_trajectory ~json_file ~smoke () =
  (* A boundary-heavy room: the optimizer's headline wins are in the
     boundary kernels (unrolled FD branch loops, CSE'd index arithmetic),
     which a large volume-dominated room would average away. *)
  let dims = if smoke then Geometry.dims ~nx:12 ~ny:10 ~nz:8 else Geometry.dims ~nx:24 ~ny:24 ~nz:24 in
  let reps = if smoke then 1 else 20 in
  let rounds = if smoke then 1 else 5 in
  let lift_raw name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision prog).Lift.Codegen.kernel
  in
  let volume = lift_raw "lift_volume" (Lift_acoustics.Programs.volume ()) in
  let schemes =
    [
      ("fi", [ volume; lift_raw "lift_boundary_fi" (Lift_acoustics.Programs.boundary_fi ()) ]);
      ( "fi-mm",
        [ volume; lift_raw "lift_boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ()) ] );
      ( "fd-mm",
        [
          volume;
          lift_raw "lift_boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ());
        ] );
    ]
  in
  let make ~optimize ~shards kernels =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let shards = if shards > 0 then Some shards else None in
    let sim =
      Gpu_sim.create ~optimize ?shards ~fi_beta:0.1 ~n_branches:3 params room
    in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    Gpu_sim.step sim kernels;
    (* warm-up: optimize + compile *)
    sim
  in
  let time sim kernels =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Gpu_sim.step sim kernels
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  Printf.printf "\n== Optimizer pipeline: ns/step with Kernel_ast.Opt off vs on ==\n";
  Printf.printf "room %dx%dx%d box, native engine, %d rep(s)\n" dims.Geometry.nx dims.Geometry.ny
    dims.Geometry.nz reps;
  Printf.printf "%-10s %7s %15s %15s %8s\n" "workload" "shards" "raw ns/step" "opt ns/step" "gain";
  let rows =
    List.concat_map
      (fun (name, kernels) ->
        List.map
          (fun shards ->
            (* raw and opt rounds interleave, each round gets freshly
               allocated simulations, and each side keeps its minimum:
               neither slow drift (GC, thermal) nor the heap placement
               of any one allocation can masquerade as an optimizer
               gain or regression *)
            let t_raw = ref infinity and t_opt = ref infinity in
            for _ = 1 to rounds do
              let sim_raw = make ~optimize:false ~shards kernels in
              let sim_opt = make ~optimize:true ~shards kernels in
              t_raw := Float.min !t_raw (time sim_raw kernels);
              t_opt := Float.min !t_opt (time sim_opt kernels)
            done;
            let t_raw = !t_raw and t_opt = !t_opt in
            let gain = (t_raw -. t_opt) /. t_raw *. 100. in
            Printf.printf "%-10s %7d %15.0f %15.0f %+7.1f%%\n" name shards (t_raw *. 1e9)
              (t_opt *. 1e9) gain;
            (name, shards, t_raw *. 1e9, t_opt *. 1e9, gain))
          [ 0; 2 ])
      schemes
  in
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc "{\n  \"bench\": \"opt_trajectory\",\n";
      Printf.fprintf oc "  \"room\": { \"nx\": %d, \"ny\": %d, \"nz\": %d },\n" dims.Geometry.nx
        dims.Geometry.ny dims.Geometry.nz;
      Printf.fprintf oc "  \"precision\": \"double\",\n  \"reps\": %d,\n  \"results\": [\n" reps;
      List.iteri
        (fun i (name, shards, raw_ns, opt_ns, gain) ->
          Printf.fprintf oc
            "    { \"workload\": %S, \"engine\": \"native\", \"shards\": %d, \
             \"ns_per_step_raw\": %.0f, \"ns_per_step_opt\": %.0f, \"gain_pct\": %.2f }%s\n"
            name shards raw_ns opt_ns gain
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" file);
  rows

(* Asynchronous per-device command queues: the sequential schedule vs
   the overlapped one, compared in *virtual device time*.  On this
   single-host simulator [Vgpu.Multi.run_async] advances per-device
   virtual clocks — a launch costs its timed kernel window, a halo
   exchange costs bytes / 12 GB/s of link time — so the sequential cost
   of a step interval is the sum of every device's kernel time plus the
   modelled halo transfer (nothing hidden), while the overlapped cost is
   the critical path across the device clocks: frontier waits on last
   step's halo, interior compute hides the transfer, and steps
   pipeline.  Both schedules are bit-for-bit identical; identity
   is re-checked here against a single-device reference, in double for
   every row and in single precision at 2 shards. *)
let run_overlap_bench ~json_file ~opt_rows ~smoke () =
  Printf.printf "\n== Overlapped async queues: virtual ns/step, sequential vs overlapped ==\n";
  let dims =
    if smoke then Geometry.dims ~nx:24 ~ny:20 ~nz:16 else Geometry.dims ~nx:48 ~ny:40 ~nz:32
  in
  let steps = if smoke then 4 else 10 in
  let kernels_of scheme precision =
    match scheme with
    | `Fi -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]
    | `Fi_mm -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]
    | `Fd_mm -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]
  in
  let make ?shards ?schedule precision =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let sim =
      Gpu_sim.create ?shards ?schedule ~precision ~fi_beta:0.1 ~n_branches:3 params room
    in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    sim
  in
  let advance sim kernels n =
    for _ = 1 to n do
      Gpu_sim.step sim kernels
    done
  in
  let bits_equal a b =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a b
  in
  let plane = dims.Geometry.nx * dims.Geometry.ny in
  Printf.printf "room %dx%dx%d box, native engine, %d-step interval, virtual device time\n"
    dims.Geometry.nx dims.Geometry.ny dims.Geometry.nz steps;
  Printf.printf "%-10s %7s %15s %15s %9s %6s\n" "workload" "shards" "seq ns/step"
    "ovlp ns/step" "speedup" "ident";
  let rows =
    List.concat_map
      (fun (name, scheme) ->
        let kernels = kernels_of scheme precision in
        (* single-device reference grid after the same number of steps *)
        let ref_sim = make precision in
        advance ref_sim kernels (1 + steps);
        let ref_grid = Array.copy ref_sim.Gpu_sim.state.State.curr in
        List.map
          (fun shards ->
            (* sequential schedule: every device's kernel time plus the
               modelled halo transfer *)
            let seq_sim = make ~shards ~schedule:`Seq precision in
            advance seq_sim kernels 1;
            Gpu_sim.reset_stats seq_sim;
            advance seq_sim kernels steps;
            let s = Gpu_sim.stats seq_sim in
            let kernel_s =
              List.fold_left
                (fun acc (_, (k : Vgpu.Runtime.kernel_stats)) -> acc +. k.Vgpu.Runtime.total_s)
                0. s.Vgpu.Runtime.per_kernel
            in
            let halo_s =
              float_of_int
                (steps
                * Vgpu.Perf_model.halo_bytes_per_step ~radius:1 ~precision ~plane_elems:plane ~shards)
              /. 12e9
            in
            let seq_ns = (kernel_s +. halo_s) /. float_of_int steps *. 1e9 in
            (* overlapped: critical path of the per-device command queues *)
            let ov_sim = make ~shards ~schedule:`Overlap precision in
            advance ov_sim kernels 1;
            Gpu_sim.reset_stats ov_sim;
            let v0 = Gpu_sim.overlap_vclock_ns ov_sim in
            advance ov_sim kernels steps;
            let v1 = Gpu_sim.overlap_vclock_ns ov_sim in
            let ov_ns = (v1 -. v0) /. float_of_int steps in
            Gpu_sim.sync ov_sim;
            let ident = bits_equal ref_grid ov_sim.Gpu_sim.state.State.curr in
            let speedup = seq_ns /. ov_ns in
            Printf.printf "%-10s %7d %15.0f %15.0f %8.2fx %6b\n" name shards seq_ns ov_ns
              speedup ident;
            (name, shards, seq_ns, ov_ns, speedup, ident))
          [ 1; 2; 4 ])
      [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]
  in
  (* single-precision identity spot check at 2 shards *)
  let id32 =
    List.map
      (fun (name, scheme) ->
        let kernels = kernels_of scheme Kernel_ast.Cast.Single in
        let ref_sim = make Kernel_ast.Cast.Single in
        advance ref_sim kernels (1 + steps);
        let ov_sim = make ~shards:2 ~schedule:`Overlap Kernel_ast.Cast.Single in
        advance ov_sim kernels (1 + steps);
        Gpu_sim.sync ov_sim;
        let ident =
          bits_equal ref_sim.Gpu_sim.state.State.curr ov_sim.Gpu_sim.state.State.curr
        in
        Printf.printf "f32 identity, %-7s 2 shards overlapped vs single device: %b\n" name
          ident;
        (name, ident))
      [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]
  in
  match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc "{\n  \"bench\": \"overlap_queues\",\n";
      Printf.fprintf oc
        "  \"metric\": \"virtual device time: launches cost their measured wall duration \
         on the owning device's queue clock, halo exchanges cost bytes/12GB/s of link \
         time; sequential = sum of all per-device kernel time + halo transfer, \
         overlapped = critical path across the per-device command queues\",\n";
      Printf.fprintf oc "  \"room\": { \"nx\": %d, \"ny\": %d, \"nz\": %d },\n" dims.Geometry.nx
        dims.Geometry.ny dims.Geometry.nz;
      Printf.fprintf oc "  \"precision\": \"double\",\n  \"steps\": %d,\n" steps;
      (match
         List.find_opt (fun (n, sh, _, _, _) -> n = "fi" && sh = 0) opt_rows
       with
      | Some (_, _, raw_ns, opt_ns, gain) ->
          Printf.fprintf oc
            "  \"fi_single_device_opt\": { \"ns_per_step_raw\": %.0f, \"ns_per_step_opt\": \
             %.0f, \"gain_pct\": %.2f },\n"
            raw_ns opt_ns gain
      | None -> Printf.fprintf oc "  \"fi_single_device_opt\": null,\n");
      Printf.fprintf oc "  \"results\": [\n";
      List.iteri
        (fun i (name, shards, seq_ns, ov_ns, speedup, ident) ->
          Printf.fprintf oc
            "    { \"workload\": %S, \"shards\": %d, \"ns_per_step_seq\": %.0f, \
             \"ns_per_step_overlapped\": %.0f, \"speedup\": %.3f, \"bit_identical\": %b }%s\n"
            name shards seq_ns ov_ns speedup ident
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n  \"identity_f32_2shards\": [\n";
      List.iteri
        (fun i (name, ident) ->
          Printf.fprintf oc "    { \"workload\": %S, \"bit_identical\": %b }%s\n" name ident
            (if i = List.length id32 - 1 then "" else ","))
        id32;
      Printf.fprintf oc "  ]\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" file

(* Work-group size tuning, as the paper's protocol requires (§VI). *)
let run_tuning_table () =
  Printf.printf
    "\n== Work-group size tuning (model; the paper reports the best per cell) ==\n";
  let dims = List.hd Geometry.paper_sizes in
  Printf.printf "%-28s %-12s ms at ws=%s (best)\n" "kernel" "device"
    (String.concat "/"
       (List.map string_of_int
          (Harness.Tuner.candidate_sizes
             ~points:(float_of_int (Geometry.n_points dims)))));
  let cells =
    [
      ("volume (grid)", Hand_kernels.volume ~precision,
       Harness.Workloads.workload Harness.Workloads.Volume Geometry.Box dims);
      ("boundary FI-MM", Hand_kernels.boundary_fi_mm ~precision ~betas,
       Harness.Workloads.workload (Harness.Workloads.Boundary 0) Geometry.Box dims);
      ("boundary FD-MM", Hand_kernels.boundary_fd_mm ~precision ~mb:3,
       Harness.Workloads.workload (Harness.Workloads.Boundary 3) Geometry.Box dims);
    ]
  in
  List.iter
    (fun (label, kernel, w) ->
      List.iter
        (fun device ->
          let r = Harness.Tuner.tune ~device kernel w in
          let sweep =
            String.concat "/"
              (List.map (fun (_, t) -> Printf.sprintf "%.3f" (t *. 1e3)) r.Harness.Tuner.sweep)
          in
          Printf.printf "%-28s %-12s %s  (ws=%d)\n" label device.Vgpu.Device.name sweep
            r.Harness.Tuner.best_size)
        [ Vgpu.Device.gtx780; Vgpu.Device.amd7970 ])
    cells

(* Cost of checked execution: the shadow-memory sanitizer forces the
   reference interpreter and hooks every access, so this bounds what a
   `--sanitize` debugging run costs relative to the plain interpreter. *)
let run_sanitizer_overhead () =
  Printf.printf "\n== Sanitizer overhead: interpreter ns/step, plain vs checked ==\n";
  let dims = Geometry.dims ~nx:12 ~ny:10 ~nz:8 in
  let kernels =
    [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]
  in
  let measure ~sanitize =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let sim = Gpu_sim.create ~engine:`Interp ~sanitize ~fi_beta:0.1 ~n_branches:3 params room in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    Gpu_sim.step sim kernels;
    let reps = 5 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Gpu_sim.step sim kernels
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let plain = measure ~sanitize:false and checked = measure ~sanitize:true in
  Printf.printf "room %dx%dx%d box, fd-mm, interp engine\n" dims.Geometry.nx dims.Geometry.ny
    dims.Geometry.nz;
  Printf.printf "%-24s %15.0f\n" "plain interpreter" (plain *. 1e9);
  Printf.printf "%-24s %15.0f  (%.1fx)\n" "sanitized interpreter" (checked *. 1e9)
    (checked /. plain)

(* -- Temporal blocking: deep halos, one exchange per T steps --------- *)

(* FI scheme on the native engine, 2 Z-shards: sweep the temporal block
   depth T over {1, 2, 4}, measure ns per step, read the static cost
   profile (exchange rounds, deep-halo bytes, redundant frontier points)
   off the block exchange plan, and check every T lands bit-identical
   to T=1.  The exchange-round count falls as 1/T; the per-step byte
   count is (2T-1)/(2T) of baseline (the once-per-block exchange ships
   2T-1 planes where T per-step rounds ship 2T), so the bandwidth win
   is modest and the latency amortisation is the real prize — the
   numbers below report both honestly.  A cache-bypassed autotune run records
   which T the measured search actually selects. *)
let run_tblock_bench ~json_file ~smoke () =
  Printf.printf "\n== Temporal blocking: exchange amortisation vs redundant frontier (native) ==\n";
  let dims =
    if smoke then Geometry.dims ~nx:16 ~ny:12 ~nz:10 else Geometry.dims ~nx:48 ~ny:40 ~nz:32
  in
  let steps = if smoke then 8 else 24 in
  let shards = 2 in
  Printf.printf "room %dx%dx%d box, fi scheme, double precision, %d shards, %d steps\n"
    dims.Geometry.nx dims.Geometry.ny dims.Geometry.nz shards steps;
  let bits_equal a b =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      a b
  in
  let mk_sim ~tblock =
    let room = Geometry.build ~n_materials:4 Geometry.Box dims in
    let sim =
      Gpu_sim.create ~engine:`Native ~shards ~schedule:`Seq ~tblock ~precision ~fi_beta:0.1
        ~n_branches:3 params room
    in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    sim
  in
  let kernels = [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ] in
  (* one configuration: [steps] steps at block depth [tblock] *)
  let run ~tblock =
    (* identity pass: no warm-up launch, exactly [steps] steps *)
    let sim = mk_sim ~tblock in
    for _ = 1 to steps do
      Gpu_sim.step sim kernels
    done;
    Gpu_sim.sync sim;
    let final = Array.copy sim.Gpu_sim.state.State.curr in
    let bs = Gpu_sim.blocked_stats sim kernels in
    (* timing pass: first launch warms the optimizer and binary cache *)
    let sim = mk_sim ~tblock in
    Gpu_sim.step sim kernels;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to steps do
      Gpu_sim.step sim kernels
    done;
    let per_step = (Unix.gettimeofday () -. t0) /. float_of_int steps in
    (per_step, final, bs)
  in
  let sweep = List.map (fun t -> (t, run ~tblock:t)) [ 1; 2; 4 ] in
  let _, (_, ref_final, _) = List.hd sweep in
  Printf.printf "%-16s %3s %13s %9s %11s %10s %6s\n" "cadence" "T" "ns/step" "exch/step"
    "bytes/step" "redundant" "ident";
  let row label (t, (per_step, final, bs)) =
    let ident = bits_equal ref_final final in
    let { Gpu_sim.bs_exchanges_per_step = ex; bs_halo_bytes_per_step = by;
          bs_redundant_points = rd; _ } =
      bs
    in
    Printf.printf "%-16s %3d %13.0f %9.2f %11.1f %10d %6b\n" label t (per_step *. 1e9) ex by
      rd ident;
    (label, t, per_step, ex, by, rd, ident)
  in
  let rows = List.map (row "per-step") sweep in
  (* which T does the measured autotuner actually pick for this workload? *)
  let topk, warmup, repeats, tsteps = if smoke then (4, 1, 2, 4) else (8, 1, 3, 10) in
  let tune =
    Harness.Autotune.tune ~engine:`Native ~topk ~warmup ~repeats ~steps:tsteps
      ~max_shards:2 ~use_cache:false ~scheme:"fi" ~shape:Geometry.Box ~dims ()
  in
  let e = tune.Harness.Autotune.r_entry in
  let selected = e.Harness.Plan_cache.e_plan.Harness.Plan_cache.pl_tblock in
  let sweep_ns t =
    match List.assoc_opt t sweep with Some (s, _, _) -> s *. 1e9 | None -> nan
  in
  Printf.printf
    "autotuner selection: %s (T=%d); sweep ns/step at selected T %.0f vs T=1 %.0f\n"
    (Harness.Autotune.plan_label e.Harness.Plan_cache.e_plan)
    selected (sweep_ns selected) (sweep_ns 1);
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc "{\n  \"bench\": \"temporal_blocking\",\n";
      Printf.fprintf oc "  \"room\": { \"nx\": %d, \"ny\": %d, \"nz\": %d },\n" dims.Geometry.nx
        dims.Geometry.ny dims.Geometry.nz;
      Printf.fprintf oc
        "  \"scheme\": \"fi\",\n  \"precision\": \"double\",\n  \"engine\": \"native\",\n\
        \  \"shards\": %d,\n  \"schedule\": \"seq\",\n  \"steps\": %d,\n"
        shards steps;
      Printf.fprintf oc "  \"results\": [\n";
      List.iteri
        (fun i (label, t, per_step, ex, by, rd, ident) ->
          Printf.fprintf oc
            "    { \"cadence\": %S, \"tblock\": %d, \"ns_per_step\": %.0f, \
             \"exchange_ops_per_step\": %.2f, \"halo_bytes_per_step\": %.1f, \
             \"redundant_points_per_step\": %d, \"bit_identical_to_t1\": %b }%s\n"
            label t (per_step *. 1e9) ex by rd ident
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc
        "  \"autotune\": { \"selected_tblock\": %d, \"winner\": %S, \
         \"winner_measured_ns\": %.0f, \"default_measured_ns\": %.0f, \
         \"sweep_ns_at_selected\": %.0f, \"sweep_ns_at_t1\": %.0f }\n}\n"
        selected
        (Harness.Autotune.plan_label e.Harness.Plan_cache.e_plan)
        (e.Harness.Plan_cache.e_measured_s *. 1e9)
        (e.Harness.Plan_cache.e_default_s *. 1e9)
        (sweep_ns selected) (sweep_ns 1);
      close_out oc;
      Printf.printf "wrote %s\n" file);
  rows

(* The measured autotuner end to end, per scheme: enumerate, prune with
   the model, measure the frontier, and compare three plans — the
   default, the model's pick (min predicted) and the measured winner.
   The gap between the last two is the model misprediction the measured
   re-ranking exists to absorb (the model predicts sharded plans to win;
   on this host they lose).  Runs cache-bypassed: a bench must measure, not
   replay a previous bench's plan. *)
let run_autotune_bench ~json_file ~smoke () =
  Printf.printf "\n== Autotune: default vs predicted-best vs measured-best (native) ==\n";
  let dims =
    if smoke then Geometry.dims ~nx:16 ~ny:12 ~nz:10 else Geometry.dims ~nx:24 ~ny:20 ~nz:16
  in
  let topk, warmup, repeats, steps = if smoke then (4, 1, 2, 4) else (8, 2, 5, 20) in
  Printf.printf "room %dx%dx%d box, double precision, median of %d x %d-step intervals\n"
    dims.Geometry.nx dims.Geometry.ny dims.Geometry.nz repeats steps;
  let results =
    List.map
      (fun scheme ->
        let r =
          Harness.Autotune.tune ~engine:`Native ~topk ~warmup ~repeats ~steps
            ~max_shards:2 ~use_cache:false ~scheme ~shape:Geometry.Box ~dims ()
        in
        let e = r.Harness.Autotune.r_entry in
        let predicted_best =
          List.fold_left
            (fun acc (m : Harness.Autotune.measured) ->
              match acc with
              | Some (b : Harness.Autotune.measured)
                when b.Harness.Autotune.m_predicted_s <= m.Harness.Autotune.m_predicted_s
                ->
                  acc
              | _ -> Some m)
            None r.Harness.Autotune.r_evaluated
        in
        Printf.printf "%s: %d candidates, %d measured\n" scheme
          r.Harness.Autotune.r_candidates r.Harness.Autotune.r_measurements;
        Printf.printf "  %-16s %-44s %14s\n" "plan" "" "measured ns";
        Printf.printf "  %-16s %-44s %14.0f\n" "default"
          (Harness.Autotune.plan_label Harness.Plan_cache.default_plan)
          (e.Harness.Plan_cache.e_default_s *. 1e9);
        (match predicted_best with
        | Some m ->
            Printf.printf "  %-16s %-44s %14.0f\n" "predicted-best"
              (Harness.Autotune.plan_label m.Harness.Autotune.m_plan)
              (m.Harness.Autotune.m_measured_s *. 1e9)
        | None -> ());
        Printf.printf "  %-16s %-44s %14.0f  (%.2fx of default)\n" "measured-best"
          (Harness.Autotune.plan_label e.Harness.Plan_cache.e_plan)
          (e.Harness.Plan_cache.e_measured_s *. 1e9)
          (e.Harness.Plan_cache.e_measured_s /. e.Harness.Plan_cache.e_default_s);
        (scheme, r, predicted_best))
      [ "fi"; "fi-mm"; "fd-mm" ]
  in
  (match json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      let plan_json = Harness.Autotune.plan_json in
      Printf.fprintf oc "{\n  \"bench\": \"autotune\",\n";
      Printf.fprintf oc "  \"room\": { \"nx\": %d, \"ny\": %d, \"nz\": %d },\n"
        dims.Geometry.nx dims.Geometry.ny dims.Geometry.nz;
      Printf.fprintf oc
        "  \"precision\": \"double\",\n  \"engine\": \"native\",\n  \"repeats\": %d,\n  \
         \"steps\": %d,\n"
        repeats steps;
      Printf.fprintf oc "  \"schemes\": [\n";
      List.iteri
        (fun i (scheme, (r : Harness.Autotune.result), predicted_best) ->
          let e = r.Harness.Autotune.r_entry in
          Printf.fprintf oc "    { \"scheme\": %S,\n" scheme;
          Printf.fprintf oc "      \"candidates\": %d, \"measurements\": %d,\n"
            r.Harness.Autotune.r_candidates r.Harness.Autotune.r_measurements;
          Printf.fprintf oc "      \"default_measured_ns\": %.0f,\n"
            (e.Harness.Plan_cache.e_default_s *. 1e9);
          (match predicted_best with
          | Some m ->
              Printf.fprintf oc
                "      \"predicted_best\": { \"plan\": %s, \"predicted_ns\": %.0f, \
                 \"measured_ns\": %.0f },\n"
                (plan_json m.Harness.Autotune.m_plan)
                (m.Harness.Autotune.m_predicted_s *. 1e9)
                (m.Harness.Autotune.m_measured_s *. 1e9)
          | None -> ());
          Printf.fprintf oc
            "      \"measured_best\": { \"plan\": %s, \"predicted_ns\": %.0f, \
             \"measured_ns\": %.0f },\n"
            (plan_json e.Harness.Plan_cache.e_plan)
            (e.Harness.Plan_cache.e_predicted_s *. 1e9)
            (e.Harness.Plan_cache.e_measured_s *. 1e9);
          Printf.fprintf oc "      \"evaluated\": [\n";
          let n = List.length r.Harness.Autotune.r_evaluated in
          List.iteri
            (fun j (m : Harness.Autotune.measured) ->
              Printf.fprintf oc
                "        { \"plan\": %s, \"predicted_ns\": %.0f, \"measured_ns\": \
                 %.0f, \"bit_identical\": %b }%s\n"
                (plan_json m.Harness.Autotune.m_plan)
                (m.Harness.Autotune.m_predicted_s *. 1e9)
                (m.Harness.Autotune.m_measured_s *. 1e9)
                m.Harness.Autotune.m_identical
                (if j = n - 1 then "" else ","))
            r.Harness.Autotune.r_evaluated;
          Printf.fprintf oc "      ]\n    }%s\n" (if i = 2 then "" else ","))
        results;
      Printf.fprintf oc "  ]\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" file);
  results

let () =
  let json_file = ref None and overlap_json = ref None and autotune_json = ref None
  and tblock_json = ref None and smoke = ref false and autotune_only = ref false
  and tblock_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--overlap-json" :: file :: rest ->
        overlap_json := Some file;
        parse rest
    | "--autotune-json" :: file :: rest ->
        autotune_json := Some file;
        parse rest
    | "--tblock-json" :: file :: rest ->
        tblock_json := Some file;
        parse rest
    | "--autotune-only" :: rest ->
        autotune_only := true;
        parse rest
    | "--tblock-only" :: rest ->
        tblock_only := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s (expected --json FILE, --overlap-json FILE, --autotune-json \
           FILE, --tblock-json FILE, --autotune-only, --tblock-only and/or --smoke)\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !autotune_only then
    ignore (run_autotune_bench ~json_file:!autotune_json ~smoke:!smoke ())
  else if !tblock_only then
    ignore (run_tblock_bench ~json_file:!tblock_json ~smoke:!smoke ())
  else if !smoke then begin
    (* CI smoke: tiny rooms, opt-trajectory + overlapped-queue sections. *)
    let opt_rows = run_opt_trajectory ~json_file:!json_file ~smoke:true () in
    run_overlap_bench ~json_file:!overlap_json ~opt_rows ~smoke:true ();
    ignore (run_autotune_bench ~json_file:!autotune_json ~smoke:true ());
    ignore (run_tblock_bench ~json_file:!tblock_json ~smoke:true ())
  end
  else begin
    print_endline "Room acoustics with complex boundary conditions: paper reproduction";
    print_endline "Part 1: analytic GPU model vs the paper's reported numbers";
    ignore (Harness.Experiments.all ());
    print_endline "\nPart 2: measured kernels (Bechamel) on the virtual GPU's native engine";
    Printf.printf "room %dx%dx%d box, double precision\n" bench_dims.Geometry.nx
      bench_dims.Geometry.ny bench_dims.Geometry.nz;
    run_benchmarks ();
    run_shard_scaling ();
    run_ablations ();
    run_tuning_table ();
    run_sanitizer_overhead ();
    let opt_rows = run_opt_trajectory ~json_file:!json_file ~smoke:false () in
    run_overlap_bench ~json_file:!overlap_json ~opt_rows ~smoke:false ();
    ignore (run_autotune_bench ~json_file:!autotune_json ~smoke:false ())
  end
