(* Roofline-style analytic timing model for kernels on the paper's GPUs.

   Predicted kernel time =
     launch overhead
     + max(effective global traffic / effective bandwidth,
           flops / peak flops at the kernel's precision)

   Effective traffic is computed per buffer from the static analysis
   ([Kernel_ast.Analysis]) of the *actual* kernel AST:

   - Small buffers (coefficient tables such as [beta], [BI], [D], [F],
     [DI]) stay cache-resident.  On GCN they are effectively free (scalar
     K$); on Kepler, global loads bypass L1, so repeated loads still pay
     an L2-bandwidth cost.  This asymmetry reproduces the paper's
     observation (§VII-B1) that the LIFT FI-MM kernel — which passes
     [beta] as a buffer where the hand-written kernel holds it in private
     memory — trails the hand-written version on the NVIDIA parts.

   - Indirect (gathered/scattered) accesses, recognised by tainted index
     expressions, are derated by a coalescing efficiency derived from the
     measured contiguity of the boundary-index array:
       eff = elem_bytes/transaction + (1 - elem_bytes/transaction) * contiguity
     Fully contiguous boundaries approach unit efficiency; fully scattered
     ones pay a whole 32-byte transaction per element.  Because the
     [elem_bytes/transaction] floor is lower in single precision, scatter
     hurts single precision relatively more — visible in the paper's
     FI-MM tables, where the single/double runtime gap is smaller than the
     4-vs-8-byte traffic ratio suggests.

   - Affine repeated loads of the same buffer (the 7-point stencil reads
     of [curr]) mostly hit cache; only the leading load plus a small
     per-extra-load miss fraction is charged. *)

open Kernel_ast

type workload = {
  active_points : float;  (* work-items that execute the guarded fast path *)
  buffer_elems : (string * int) list;  (* element count per buffer argument *)
  contiguity : float;  (* fraction of consecutive work-items hitting consecutive addresses *)
  param_values : (string * int) list;  (* scalar params that bound loops *)
  local_size : int;  (* work-group size; the paper hand-tunes this per kernel *)
}

let workload ?(buffer_elems = []) ?(contiguity = 1.0) ?(param_values = []) ?(local_size = 128)
    ~active_points () =
  { active_points; buffer_elems; contiguity; param_values; local_size }

(* Work-group size effects.  Three mechanisms, per the usual GPU folklore
   the paper's hand-tuning exploits:
   - groups below the wavefront width (64 on GCN, 32 on Kepler; we use
     the worst case 64) leave SIMT lanes idle;
   - the last, partially filled group of the launch wastes lanes (the
     "tail", significant only for small launches);
   - very large groups on register-heavy kernels (many flops per point)
     reduce occupancy. *)
let group_efficiency (w : workload) ~flops =
  let ls = float_of_int (max 1 w.local_size) in
  let wave = 64. in
  let lane_eff = if ls >= wave then 1.0 else ls /. wave in
  let groups = Float.max 1. (Float.ceil (w.active_points /. ls)) in
  let tail_eff = w.active_points /. (groups *. ls) in
  let pressure_eff =
    if ls > 128. && flops > 50. then 1. -. (0.1 *. (ls /. 256.)) else 1.0
  in
  Float.min 1. (lane_eff *. tail_eff *. pressure_eff)

type breakdown = {
  bytes_per_point : float;
  flops_per_point : float;
  raw_bytes_per_point : float;  (* same measures on the unoptimized AST *)
  raw_flops_per_point : float;
  mem_time_s : float;
  flop_time_s : float;
  launch_s : float;
  total_s : float;
}

let cache_resident_elems = 16384
let transaction_bytes = 32.
let stencil_extra_load_miss = 0.15

let buffer_bytes (device : Device.t) ~(precision : Cast.precision) ~(w : workload)
    name (a : Analysis.access) =
  let elem_bytes = Analysis.elem_bytes ~precision a.buf_ty in
  let elems =
    match List.assoc_opt name w.buffer_elems with Some n -> n | None -> max_int
  in
  if elems <= cache_resident_elems then
    (* Cache-resident coefficient table: free in GCN's scalar K$ and in
       a CPU's L1; an L2-bandwidth cost on Kepler. *)
    match device.vendor with
    | Amd | Host -> 0.
    | Nvidia -> (a.loads +. a.stores) *. elem_bytes /. device.l2_speedup
  else if a.indirect then
    (* Gather/scatter through boundary indices: consecutive work-items
       hit runs of consecutive addresses (rows of boundary voxels along
       x).  With average run length r = 1/(1-contiguity), each run of
       r*elem_bytes useful data costs roughly one extra transaction of
       overhead, so efficiency = run_bytes / (run_bytes + transaction). *)
    let run =
      if w.contiguity >= 1. then 64. else Float.min 64. (1. /. (1. -. w.contiguity))
    in
    let run_bytes = run *. elem_bytes in
    let eff = run_bytes /. (run_bytes +. transaction_bytes) in
    (a.loads +. a.stores) *. elem_bytes /. eff
  else
    (* Coalesced streaming access; repeated affine loads mostly hit cache. *)
    let eff_loads =
      if a.loads <= 1. then a.loads
      else 1. +. ((a.loads -. 1.) *. stencil_extra_load_miss)
    in
    (eff_loads +. a.stores) *. elem_bytes

(* Static per-point work of [kernel] under [w]: (effective global bytes,
   flops). *)
let point_costs (device : Device.t) (kernel : Cast.kernel) (w : workload) =
  let param_value name = List.assoc_opt name w.param_values in
  let counts = Analysis.kernel_counts ~param_value kernel in
  let bytes =
    Analysis.fold_buffers counts
      (fun acc name a -> acc +. buffer_bytes device ~precision:kernel.precision ~w name a)
      0.
  in
  (bytes, counts.Analysis.flops)

(* Predict the runtime of one launch of [kernel] under [w] on [device].
   The prediction analyses the *optimized* AST — the runtime optimizes
   kernels before dispatch, so that is the code whose operations actually
   execute — while the raw counts are kept alongside so the model's view
   of what optimization saved is inspectable. *)
let predict_breakdown ?unroll_budget (device : Device.t) (kernel : Cast.kernel)
    (w : workload) : breakdown =
  let raw_bytes_per_point, raw_flops_per_point = point_costs device kernel w in
  let opt_kernel, _ = Opt.optimize ?unroll_budget kernel in
  let bytes_per_point, flops_per_point = point_costs device opt_kernel w in
  (* an empty launch costs just its overhead — [group_efficiency] is 0
     at 0 points and the time terms would otherwise divide 0 by 0 *)
  let geff =
    if w.active_points <= 0. then 1. else group_efficiency w ~flops:flops_per_point
  in
  let bw = device.mem_bw_gb_s *. 1e9 *. device.mem_efficiency *. geff in
  let mem_time_s = bytes_per_point *. w.active_points /. bw in
  let flop_time_s =
    flops_per_point *. w.active_points
    /. (Device.peak_flops device kernel.precision *. geff)
  in
  let launch_s = device.launch_overhead_s in
  let total_s = launch_s +. Float.max mem_time_s flop_time_s in
  {
    bytes_per_point;
    flops_per_point;
    raw_bytes_per_point;
    raw_flops_per_point;
    mem_time_s;
    flop_time_s;
    launch_s;
    total_s;
  }

let predict ?unroll_budget device kernel w =
  (predict_breakdown ?unroll_budget device kernel w).total_s

(* -- Measured-time calibration -------------------------------------- *)

(* Per-(device, kernel) multiplicative correction factors learned from
   measurements: the autotuner records measured/predicted ratios and the
   model applies their geometric mean to later predictions, so pruning
   sharpens as measurements accumulate.  The geometric mean is the right
   average for a multiplicative error and is insensitive to the order
   observations arrive in. *)
module Calibration = struct
  type entry = { mutable log_sum : float; mutable samples : int }
  type t = (string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let key ~device ~kernel_name = device ^ "/" ^ kernel_name

  let observe (t : t) ~device ~kernel_name ~predicted_s ~measured_s =
    if predicted_s > 0. && measured_s > 0. then begin
      let k = key ~device ~kernel_name in
      let e =
        match Hashtbl.find_opt t k with
        | Some e -> e
        | None ->
            let e = { log_sum = 0.; samples = 0 } in
            Hashtbl.replace t k e;
            e
      in
      e.log_sum <- e.log_sum +. Float.log (measured_s /. predicted_s);
      e.samples <- e.samples + 1
    end

  let factor (t : t) ~device ~kernel_name =
    match Hashtbl.find_opt t (key ~device ~kernel_name) with
    | Some e when e.samples > 0 -> Float.exp (e.log_sum /. float_of_int e.samples)
    | _ -> 1.0

  (* Direct entry load, for restoring a persisted correction table. *)
  let set (t : t) ~device ~kernel_name ~log_sum ~samples =
    Hashtbl.replace t (key ~device ~kernel_name) { log_sum; samples }

  let entries (t : t) =
    Hashtbl.fold (fun k e acc -> (k, e.log_sum, e.samples) :: acc) t []
    |> List.sort compare
end

(* Throughput in the paper's metric: millions of grid-point updates per
   second (shown as gigaelements/s in the figures when divided by 1000). *)
let updates_per_second ~points ~time_s = points /. time_s

(* -- Z-sharded execution -------------------------------------------- *)

(* Halo radius in planes, inferred from the kernel's static stencil
   footprint under the workload's parameter environment: the widest
   per-buffer read radius along the highest-stride axis.  A pointwise
   kernel (radius 0) predicts zero halo traffic; kernels whose reads are
   data-dependent (no inferable radius on any buffer) fall back to the
   one-plane protocol radius. *)
let stencil_radius (kernel : Cast.kernel) (w : workload) =
  let param_value n = List.assoc_opt n w.param_values in
  let buffer_elems n = List.assoc_opt n w.buffer_elems in
  match (param_value "Nx", param_value "Ny") with
  | Some nx, Some ny when nx > 0 && ny > 0 -> (
      let env = Kernel_ast.Check.env ~param_value ~buffer_elems () in
      match Kernel_ast.Footprint.infer ~strides:[| 1; nx; nx * ny |] env kernel with
      | fp ->
          let radius = ref None in
          List.iter
            (fun (fb : Kernel_ast.Footprint.buf) ->
              match Kernel_ast.Footprint.read_radius fp fb.Kernel_ast.Footprint.fb_name with
              | Some r -> radius := Some (max r (Option.value ~default:0 !radius))
              | None -> ())
            fp.Kernel_ast.Footprint.fp_bufs;
          Option.value ~default:1 !radius
      | exception _ -> 1)
  | _ -> 1

(* Bytes crossing device boundaries per time step when the grid is cut
   into [shards] slabs along Z: each of the shards-1 interior cuts swaps
   [radius] XY planes in each direction. *)
let halo_bytes_per_step ~radius ~(precision : Cast.precision) ~plane_elems ~shards =
  let elem = match precision with Cast.Single -> 4 | Cast.Double -> 8 in
  2 * (max 0 (shards - 1)) * radius * plane_elems * elem

(* Predicted per-step kernel time under Z-sharding: the slabs run
   concurrently (each ~1/shards of the points, but still paying the full
   launch overhead), then the halo planes cross the inter-device link.
   [link_gb_s] defaults to a PCIe-3-class 12 GB/s. *)
let predict_sharded ?(link_gb_s = 12.) ?radius (device : Device.t) (kernel : Cast.kernel)
    (w : workload) ~plane_elems ~shards =
  let shards = max 1 shards in
  let radius = match radius with Some r -> r | None -> stencil_radius kernel w in
  let per_shard =
    { w with active_points = w.active_points /. float_of_int shards }
  in
  let compute_s = predict device kernel per_shard in
  let halo_bytes =
    halo_bytes_per_step ~radius ~precision:kernel.Cast.precision ~plane_elems ~shards
  in
  let halo_s = float_of_int halo_bytes /. (link_gb_s *. 1e9) in
  compute_s +. halo_s

(* Predicted per-step time under the overlapped schedule: the volume
   kernel splits into an interior launch plus thin frontier launches, so
   the halo transfer runs concurrently with the interior compute.  The
   per-step critical path is the frontier work (which must wait for the
   previous halo) plus the longer of interior compute and halo
   transfer.  At shards = 1 there is no halo and no split, so the
   prediction coincides with [predict]. *)
let predict_overlapped ?(link_gb_s = 12.) ?radius (device : Device.t) (kernel : Cast.kernel)
    (w : workload) ~plane_elems ~shards =
  let shards = max 1 shards in
  let radius = match radius with Some r -> r | None -> stencil_radius kernel w in
  if shards = 1 then predict device kernel w
  else begin
    let per_shard =
      { w with active_points = w.active_points /. float_of_int shards }
    in
    (* [radius] frontier planes per ghost-adjacent face (two faces per
       interior shard) *)
    let frontier_points =
      Float.min per_shard.active_points (2. *. float_of_int (radius * plane_elems))
    in
    let interior_s =
      predict device kernel
        {
          per_shard with
          active_points = Float.max 0. (per_shard.active_points -. frontier_points);
        }
    in
    let frontier_s =
      predict device kernel { per_shard with active_points = frontier_points }
    in
    let halo_bytes =
      halo_bytes_per_step ~radius ~precision:kernel.Cast.precision ~plane_elems ~shards
    in
    let halo_s = float_of_int halo_bytes /. (link_gb_s *. 1e9) in
    frontier_s +. Float.max interior_s halo_s
  end

(* Predicted per-step time under temporal blocking at depth [tblock]:
   the tradeoff the autotuner's time-block axis searches.  Per block of
   T steps the cut exchanges once — so the per-round transfer latency
   amortises to 1/T — at depth T*r for the new generation plus depth
   (T-1)*r for the previous one (skipped up to T = 2, where the in-block
   recompute leaves it valid), while every in-block launch redundantly
   recomputes the decaying ghost planes: 2*(shards-1)*(T*r - 1) planes
   of extra active points per step.  At T = 1 this is [predict_sharded]
   plus the round-latency term. *)
let predict_blocked ?(link_gb_s = 12.) ?(link_latency_s = 10e-6) ?radius
    (device : Device.t) (kernel : Cast.kernel) (w : workload) ~plane_elems ~shards
    ~tblock =
  let shards = max 1 shards and tblock = max 1 tblock in
  let r = match radius with Some r -> r | None -> stencil_radius kernel w in
  let h = tblock * r in
  let cuts = max 0 (shards - 1) in
  let redundant = 2 * cuts * max 0 (h - 1) * plane_elems in
  let per_shard =
    {
      w with
      active_points = (w.active_points /. float_of_int shards) +. float_of_int redundant;
    }
  in
  let compute_s = predict device kernel per_shard in
  let elem = match kernel.Cast.precision with Cast.Single -> 4 | Cast.Double -> 8 in
  let prev_depth = if tblock > 2 then h - r else 0 in
  let planes_per_block = h + prev_depth in
  let bytes_per_step =
    2. *. float_of_int (cuts * planes_per_block * plane_elems * elem)
    /. float_of_int tblock
  in
  let ops_per_round =
    2. *. float_of_int cuts *. if prev_depth > 0 then 2. else 1.
  in
  let halo_s = bytes_per_step /. (link_gb_s *. 1e9) in
  let latency_s = ops_per_round *. link_latency_s /. float_of_int tblock in
  compute_s +. halo_s +. latency_s

let pp_breakdown ppf b =
  Fmt.pf ppf "bytes/pt=%.1f flops/pt=%.0f mem=%.3fms flop=%.3fms total=%.3fms"
    b.bytes_per_point b.flops_per_point (b.mem_time_s *. 1e3) (b.flop_time_s *. 1e3)
    (b.total_s *. 1e3);
  if b.raw_flops_per_point <> b.flops_per_point || b.raw_bytes_per_point <> b.bytes_per_point
  then
    Fmt.pf ppf " (raw: bytes/pt=%.1f flops/pt=%.0f)" b.raw_bytes_per_point
      b.raw_flops_per_point
