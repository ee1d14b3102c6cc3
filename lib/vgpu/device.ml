(* GPU device descriptions.

   The four devices are the evaluation platforms of the paper (Table III).
   Bandwidth and single-precision peak come straight from that table;
   the remaining fields are microarchitectural constants used by the
   performance model:

   - [dp_ratio]: double- to single-precision throughput ratio of the chip
     (1/24 for consumer Kepler, 1/3 for TITAN Black in DP mode, 1/4 for
     Tahiti, 1/8 for Hawaii);
   - [mem_efficiency]: achievable fraction of peak bandwidth for streaming
     kernels (STREAM-like efficiency);
   - [small_buf_reload]: cost model for repeated loads from small
     coefficient tables.  GCN parts keep them in the scalar K$ (free);
     Kepler sends global loads through L2, so they retain a bandwidth cost
     at [l2_speedup] times the DRAM bandwidth.  This is what makes the
     hand-written kernel (coefficients in private memory) faster than the
     LIFT kernel (coefficients passed as a buffer) on the NVIDIA parts in
     double precision, as reported in §VII-B1;
   - [launch_overhead_s]: fixed per-kernel cost as seen by the OpenCL
     profiling API (the paper's timing method), i.e. scheduling and
     drain, not host-side queueing. *)

type vendor =
  | Nvidia
  | Amd
  | Host

type t = {
  name : string;
  vendor : vendor;
  mem_bw_gb_s : float;
  sp_gflops : float;
  dp_ratio : float;
  mem_efficiency : float;
  l2_speedup : float;
  launch_overhead_s : float;
}

let gtx780 =
  {
    name = "GTX780";
    vendor = Nvidia;
    mem_bw_gb_s = 288.;
    sp_gflops = 3977.;
    dp_ratio = 1. /. 24.;
    mem_efficiency = 0.75;
    l2_speedup = 3.0;
    launch_overhead_s = 1.5e-6;
  }

let amd7970 =
  {
    name = "AMD7970";
    vendor = Amd;
    mem_bw_gb_s = 288.;
    sp_gflops = 4096.;
    dp_ratio = 1. /. 4.;
    mem_efficiency = 0.72;
    l2_speedup = 3.0;
    launch_overhead_s = 2e-6;
  }

let titan_black =
  {
    name = "Titan Black";
    vendor = Nvidia;
    mem_bw_gb_s = 337.;
    sp_gflops = 5120.;
    dp_ratio = 1. /. 3.;
    mem_efficiency = 0.75;
    l2_speedup = 3.0;
    launch_overhead_s = 1.5e-6;
  }

let radeon_r9 =
  {
    name = "RadeonR9";
    vendor = Amd;
    mem_bw_gb_s = 320.;
    sp_gflops = 5733.;
    dp_ratio = 1. /. 8.;
    mem_efficiency = 0.72;
    l2_speedup = 3.0;
    launch_overhead_s = 2e-6;
  }

(* The machine the native (compiled-C) engine actually runs on: a CPU.
   Not one of the paper's platforms — it exists so measured native times
   are compared against a prediction with CPU cost structure. *)
let host =
  {
    name = "Host";
    vendor = Host;
    mem_bw_gb_s = 20.;
    sp_gflops = 50.;
    dp_ratio = 0.5;
    mem_efficiency = 0.6;
    l2_speedup = 3.0;
    launch_overhead_s = 5e-7;
  }

(* In the order used throughout the paper's evaluation section.  [host]
   is deliberately not in this list: experiments sweeping the paper's
   platforms should not pick up the CPU. *)
let all = [ amd7970; gtx780; radeon_r9; titan_black ]

let peak_flops t (precision : Kernel_ast.Cast.precision) =
  match precision with
  | Single -> t.sp_gflops *. 1e9
  | Double -> t.sp_gflops *. t.dp_ratio *. 1e9

let find name = List.find_opt (fun d -> d.name = name) (all @ [ host ])
