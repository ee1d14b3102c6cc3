(** GPU device descriptions.

    The four devices are the paper's evaluation platforms (Table III):
    bandwidth and single-precision peak come from that table; the other
    fields are microarchitectural constants used by the performance
    model. *)

type vendor =
  | Nvidia
  | Amd
  | Host  (** the CPU the native engine compiles for *)

type t = {
  name : string;
  vendor : vendor;
  mem_bw_gb_s : float;     (** peak memory bandwidth, GB/s (Table III) *)
  sp_gflops : float;       (** single-precision peak, GFLOPS (Table III) *)
  dp_ratio : float;        (** double- to single-precision throughput ratio *)
  mem_efficiency : float;  (** achievable fraction of peak bandwidth *)
  l2_speedup : float;
      (** bandwidth multiplier for cache-resident buffers on parts whose
          global loads bypass L1 (Kepler); on GCN such reloads are free *)
  launch_overhead_s : float;
      (** fixed per-kernel cost as seen by the OpenCL profiling API *)
}

val gtx780 : t
val amd7970 : t
val titan_black : t
val radeon_r9 : t

val host : t
(** The CPU the native (compiled-C) engine runs on.  Not included in
    {!all}. *)

val all : t list
(** The four platforms, in the paper's order ([host] excluded). *)

val peak_flops : t -> Kernel_ast.Cast.precision -> float
(** Peak arithmetic throughput in flop/s at a precision. *)

val find : string -> t option
