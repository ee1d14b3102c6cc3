(* The roofline performance model: monotonicity properties and the
   mechanisms behind the paper's observations (single vs double, box vs
   dome coalescing, the NVIDIA beta-in-global-memory gap, FD-MM being
   much slower than FI-MM). *)

open Acoustics

let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

let boundary_workload ?(contiguity = 0.78) ?(n_boundary = 1_000_000) ?(mb = 3) () =
  let n = 10_000_000 in
  Vgpu.Perf_model.workload ~active_points:(float_of_int n_boundary) ~contiguity
    ~buffer_elems:
      [
        ("prev", n); ("curr", n); ("next", n); ("nbrs", n);
        ("bidx", n_boundary); ("material", n_boundary);
        ("beta", 4); ("beta_fd", 4);
        ("bi", 4 * mb); ("d", 4 * mb); ("f", 4 * mb); ("di", 4 * mb);
        ("g1", mb * n_boundary); ("v2", mb * n_boundary); ("v1", mb * n_boundary);
      ]
    ()

let predict ?(device = Vgpu.Device.gtx780) kernel w = Vgpu.Perf_model.predict device kernel w

let test_double_slower_than_single () =
  List.iter
    (fun device ->
      let kd = Hand_kernels.boundary_fd_mm ~precision:Kernel_ast.Cast.Double ~mb:3 in
      let ks = Hand_kernels.boundary_fd_mm ~precision:Kernel_ast.Cast.Single ~mb:3 in
      let w = boundary_workload () in
      Alcotest.(check bool)
        (device.Vgpu.Device.name ^ ": double slower")
        true
        (predict ~device kd w > predict ~device ks w))
    Vgpu.Device.all

let test_fd_slower_than_fi () =
  let kfi = Hand_kernels.boundary_fi_mm ~precision:Kernel_ast.Cast.Double ~betas in
  let kfd = Hand_kernels.boundary_fd_mm ~precision:Kernel_ast.Cast.Double ~mb:3 in
  let w = boundary_workload () in
  let tfi = predict kfi w and tfd = predict kfd w in
  Alcotest.(check bool) "FD-MM at least 2x slower than FI-MM" true (tfd > 2. *. tfi)

let test_contiguity_helps () =
  let k = Hand_kernels.boundary_fi_mm ~precision:Kernel_ast.Cast.Double ~betas in
  let t_box = predict k (boundary_workload ~contiguity:0.78 ()) in
  let t_dome = predict k (boundary_workload ~contiguity:0.5 ()) in
  let t_scattered = predict k (boundary_workload ~contiguity:0.0 ()) in
  Alcotest.(check bool) "lower contiguity is slower" true (t_dome > t_box);
  Alcotest.(check bool) "fully scattered slowest" true (t_scattered > t_dome)

let test_more_branches_cost_more () =
  let w mb = boundary_workload ~mb () in
  let t mb = predict (Hand_kernels.boundary_fd_mm ~precision:Kernel_ast.Cast.Double ~mb) (w mb) in
  Alcotest.(check bool) "mb=1 < mb=2 < mb=4" true (t 1 < t 2 && t 2 < t 4)

(* The §VII-B1 mechanism: the Lift FI-MM kernel reads beta from global
   memory; the hand-written one keeps it private.  On NVIDIA this costs
   the Lift version time; on AMD the scalar cache hides it. *)
let test_nvidia_beta_gap () =
  let hand = Hand_kernels.boundary_fi_mm ~precision:Kernel_ast.Cast.Double ~betas in
  let lift =
    (Lift_acoustics.Programs.compile ~name:"fimm" ~precision:Kernel_ast.Cast.Double
       (Lift_acoustics.Programs.boundary_fi_mm ()))
      .Lift.Codegen.kernel
  in
  let w = boundary_workload () in
  let gap device = predict ~device lift w -. predict ~device hand w in
  let g_nv = gap Vgpu.Device.gtx780 and g_amd = gap Vgpu.Device.amd7970 in
  Alcotest.(check bool) "lift slower than hand on NVIDIA" true (g_nv > 0.);
  Alcotest.(check bool) "NVIDIA gap exceeds AMD gap" true (g_nv > g_amd +. 1e-9)

let test_bandwidth_scaling () =
  (* same kernel, same workload: faster memory means faster kernel *)
  let k = Hand_kernels.volume ~precision:Kernel_ast.Cast.Double in
  let w =
    Vgpu.Perf_model.workload ~active_points:1e7
      ~buffer_elems:[ ("prev", 10_000_000); ("curr", 10_000_000); ("next", 10_000_000); ("nbrs", 10_000_000) ]
      ()
  in
  let t780 = predict ~device:Vgpu.Device.gtx780 k w in
  let t_titan = predict ~device:Vgpu.Device.titan_black k w in
  Alcotest.(check bool) "more bandwidth is faster" true (t_titan < t780)

let test_breakdown_consistency () =
  let k = Hand_kernels.volume ~precision:Kernel_ast.Cast.Double in
  let w =
    Vgpu.Perf_model.workload ~active_points:1e6
      ~buffer_elems:[ ("prev", 1_000_000); ("curr", 1_000_000); ("next", 1_000_000); ("nbrs", 1_000_000) ]
      ()
  in
  let b = Vgpu.Perf_model.predict_breakdown Vgpu.Device.gtx780 k w in
  Alcotest.(check bool) "total = launch + max(mem, flop)" true
    (Float.abs (b.Vgpu.Perf_model.total_s -. (b.launch_s +. Float.max b.mem_time_s b.flop_time_s))
     < 1e-15);
  Alcotest.(check bool) "stencil is memory bound" true (b.mem_time_s > b.flop_time_s);
  Alcotest.(check bool) "positive traffic" true (b.bytes_per_point > 0.)

(* Double precision can be compute-bound on the GTX 780 (1/24 DP rate)
   for flop-heavy kernels; check the roofline switches over. *)
let test_compute_bound_switch () =
  let open Kernel_ast.Cast in
  let flops_kernel n_flops =
    let rec chain n acc = if n = 0 then acc else chain (n - 1) (Binop (Mul, acc, Var "x")) in
    {
      name = "flops";
      precision = Double;
      params = [ param "a" Real ];
      global_size = [ Int_lit 1 ];
      local_size = [];
      body =
        [
          Decl (Real, "x", Some (Load ("a", Global_id 0)));
          Store ("a", Global_id 0, chain n_flops (Var "x"));
        ];
    }
  in
  let w =
    Vgpu.Perf_model.workload ~active_points:1e7 ~buffer_elems:[ ("a", 10_000_000) ] ()
  in
  let b = Vgpu.Perf_model.predict_breakdown Vgpu.Device.gtx780 (flops_kernel 200) w in
  Alcotest.(check bool) "200 flops/point is compute bound on GTX780 double" true
    (b.Vgpu.Perf_model.flop_time_s > b.mem_time_s)

let suite =
  [
    Alcotest.test_case "double slower than single" `Quick test_double_slower_than_single;
    Alcotest.test_case "FD-MM slower than FI-MM" `Quick test_fd_slower_than_fi;
    Alcotest.test_case "contiguity improves throughput" `Quick test_contiguity_helps;
    Alcotest.test_case "branch count scales cost" `Quick test_more_branches_cost_more;
    Alcotest.test_case "NVIDIA beta-in-global gap (paper VII-B1)" `Quick test_nvidia_beta_gap;
    Alcotest.test_case "bandwidth scaling" `Quick test_bandwidth_scaling;
    Alcotest.test_case "breakdown consistency" `Quick test_breakdown_consistency;
    Alcotest.test_case "compute-bound switch" `Quick test_compute_bound_switch;
  ]

(* Regression: exact-multiple launches have no tail group.  The old
   [round (x +. 0.5)] charged a phantom empty group for
   active_points = k * local_size (128/128 -> round 1.5 -> 2 groups),
   halving the efficiency. *)
let test_group_efficiency_exact_multiple () =
  List.iter
    (fun (active, ls) ->
      let w = Vgpu.Perf_model.workload ~local_size:ls ~active_points:active () in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "active=%g ls=%d has no tail" active ls)
        1.0
        (Vgpu.Perf_model.group_efficiency w ~flops:10.))
    [ (128., 128); (256., 128); (64., 64); (1024., 256); (12800., 128) ];
  (* one extra point spills into a real tail group *)
  let w = Vgpu.Perf_model.workload ~local_size:128 ~active_points:129. () in
  Alcotest.(check (float 1e-12))
    "129/128 pays a second group" (129. /. 256.)
    (Vgpu.Perf_model.group_efficiency w ~flops:10.)

(* Work-group size effects and the tuning protocol (paper §VI). *)
let test_group_size_effects () =
  let w ls active = Vgpu.Perf_model.workload ~local_size:ls ~active_points:active () in
  let geff ls active = Vgpu.Perf_model.group_efficiency (w ls active) ~flops:10. in
  (* sub-wavefront groups waste lanes *)
  Alcotest.(check bool) "32 < 64 lanes" true (geff 32 1e6 < geff 64 1e6);
  (* large launches are insensitive to tails *)
  Alcotest.(check bool) "big launch ~ full" true (geff 128 1e6 > 0.99);
  (* a tiny launch suffers a tail with large groups *)
  Alcotest.(check bool) "tail hurts small launches" true (geff 256 300. < geff 64 300.);
  (* register-pressure penalty only for flop-heavy kernels *)
  let heavy = Vgpu.Perf_model.group_efficiency (w 256 1e6) ~flops:100. in
  let light = Vgpu.Perf_model.group_efficiency (w 256 1e6) ~flops:10. in
  Alcotest.(check bool) "pressure penalty" true (heavy < light)

let test_tuner () =
  let k = Hand_kernels.boundary_fd_mm ~precision:Kernel_ast.Cast.Double ~mb:3 in
  let w = boundary_workload () in
  let r = Harness.Tuner.tune ~device:Vgpu.Device.gtx780 k w in
  let candidates =
    Harness.Tuner.candidate_sizes ~points:w.Vgpu.Perf_model.active_points
  in
  Alcotest.(check bool) "best size is a candidate" true
    (List.mem r.Harness.Tuner.best_size candidates);
  Alcotest.(check int) "sweep covers all candidates" (List.length candidates)
    (List.length r.Harness.Tuner.sweep);
  List.iter
    (fun (_, t) -> Alcotest.(check bool) "best is minimal" true (t >= r.Harness.Tuner.best_time_s))
    r.Harness.Tuner.sweep;
  (* the flop-heavy FD kernel should avoid 256-wide groups *)
  Alcotest.(check bool) "fd-mm avoids the largest group" true (r.Harness.Tuner.best_size < 256)

(* Z-sharding in the model: halo bytes per step and the sharded
   prediction — one shard is exactly the unsharded prediction, compute
   shrinks with the shard count on a fast link, and a slow link lets the
   halo term erase the win. *)
let test_sharded_prediction () =
  let open Vgpu.Perf_model in
  (* a ~216^3 grid: plane_elems consistent with 1e7 active points *)
  let plane = 216 * 216 in
  Alcotest.(check int) "no halo on one shard" 0
    (halo_bytes_per_step ~radius:1 ~precision:Kernel_ast.Cast.Double ~plane_elems:plane ~shards:1);
  Alcotest.(check int) "double halo, 4 shards"
    (2 * 3 * plane * 8)
    (halo_bytes_per_step ~radius:1 ~precision:Kernel_ast.Cast.Double ~plane_elems:plane ~shards:4);
  Alcotest.(check int) "single halo, 4 shards"
    (2 * 3 * plane * 4)
    (halo_bytes_per_step ~radius:1 ~precision:Kernel_ast.Cast.Single ~plane_elems:plane ~shards:4);
  let k = Hand_kernels.volume ~precision:Kernel_ast.Cast.Double in
  let n = 10_000_000 in
  let w =
    workload ~active_points:(float_of_int n)
      ~buffer_elems:[ ("prev", n); ("curr", n); ("next", n); ("nbrs", n) ]
      ()
  in
  let t shards = predict_sharded Vgpu.Device.gtx780 k w ~plane_elems:plane ~shards in
  Alcotest.(check (float 1e-15))
    "one shard = unsharded"
    (Vgpu.Perf_model.predict Vgpu.Device.gtx780 k w)
    (t 1);
  Alcotest.(check bool) "two shards beat one on a fast link" true (t 2 < t 1);
  Alcotest.(check bool) "four shards beat two" true (t 4 < t 2);
  let slow =
    predict_sharded ~link_gb_s:0.001 Vgpu.Device.gtx780 k w ~plane_elems:plane ~shards:4
  in
  Alcotest.(check bool) "a slow link erases the win" true (slow > t 1)

let suite =
  suite
  @ [
      Alcotest.test_case "no phantom tail group on exact multiples" `Quick
        test_group_efficiency_exact_multiple;
      Alcotest.test_case "work-group size effects" `Quick test_group_size_effects;
      Alcotest.test_case "tuning protocol" `Quick test_tuner;
      Alcotest.test_case "sharded prediction and halo bytes" `Quick
        test_sharded_prediction;
    ]
