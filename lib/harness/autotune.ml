(* Measured rewrite-space autotuner.

   [Tuner] sweeps one knob through the performance model; this module
   searches the full configuration space the runtime actually exposes —

     volume-kernel form (flat | 2.5D tile)
     x Opt unroll budget x work-group size x shard count x schedule

   — and decides by *measurement*, because BENCH_PR7 showed the model
   picking the wrong side of a 1.6-2x measured regression (the tiled
   kernel on the native engine).  The pipeline:

     1. enumerate plans from the volume-kernel forms + runtime knobs;
     2. prune to a top-k frontier with [Perf_model] predictions,
        corrected by any persisted calibration factors;
     3. measure the survivors on the requested engine, one at a time,
        with warmup/repeat/median timing;
     4. persist the measured-best plan in [Plan_cache] so a warm rerun
        (or [racs simulate --tuned]) needs zero measurements;
     5. feed measured-vs-predicted ratios back into the calibration
        table, sharpening later pruning.

   Every measured candidate runs the same step count from the same
   impulse, and its final field must be bit-identical to the default
   plan's — a candidate that diverges is reported but can never win, so
   a cached plan never changes simulation results. *)

open Acoustics

type measured = {
  m_plan : Plan_cache.plan;
  m_predicted_s : float;  (* calibrated model time per step *)
  m_measured_s : float;  (* median measured time per step *)
  m_identical : bool;  (* output bit-identical to the default plan *)
}

type result = {
  r_key : Plan_cache.key;
  r_entry : Plan_cache.entry;  (* the winning plan and its numbers *)
  r_evaluated : measured list;  (* every candidate measured, eval order *)
  r_candidates : int;  (* plans enumerated before model pruning *)
  r_measurements : int;  (* candidates actually measured (0 = warm cache) *)
  r_from_cache : bool;
}

(* -- Labels ----------------------------------------------------------- *)

let engine_label : Gpu_sim.engine -> string = function
  | `Interp -> "interp"
  | `Native -> "native"

let precision_label = function
  | Kernel_ast.Cast.Single -> "single"
  | Kernel_ast.Cast.Double -> "double"

let plan_label (p : Plan_cache.plan) =
  let vol =
    match p.pl_tile with Some (w, h) -> Printf.sprintf "tile%dx%d" w h | None -> "flat"
  in
  Printf.sprintf "%s ls=%d unroll=%s shards=%d/%s%s" vol p.pl_local
    (match p.pl_unroll with None -> "default" | Some n -> string_of_int n)
    p.pl_shards
    (match p.pl_schedule with
    | `Seq -> "seq"
    | `Concurrent -> "concurrent"
    | `Overlap -> "overlap")
    (if p.pl_tblock > 1 then Printf.sprintf " T=%d" p.pl_tblock else "")

(* -- Kernel construction ---------------------------------------------- *)

let betas n_branches =
  (Material.tables ~n_branches Material.defaults).Material.t_beta

let volume_kernel ~precision (p : Plan_cache.plan) =
  match p.pl_tile with
  | Some tile -> Lift_acoustics.Programs.tiled_volume ~precision ~tile ()
  | None -> Hand_kernels.volume ~precision

let boundary_kernel ~precision ~n_branches scheme =
  match scheme with
  | "fi" -> (Hand_kernels.boundary_fi ~precision, Workloads.Boundary 0)
  | "fi-mm" ->
      ( Hand_kernels.boundary_fi_mm ~precision ~betas:(betas n_branches),
        Workloads.Boundary 0 )
  | "fd-mm" ->
      (Hand_kernels.boundary_fd_mm ~precision ~mb:n_branches, Workloads.Boundary n_branches)
  | s -> invalid_arg (Printf.sprintf "Autotune: unknown scheme %S (fi | fi-mm | fd-mm)" s)

let plan_kernels ~precision ~n_branches ~scheme (p : Plan_cache.plan) =
  [ volume_kernel ~precision p; fst (boundary_kernel ~precision ~n_branches scheme) ]

(* -- Cache key --------------------------------------------------------- *)

(* The digest covers the code of every kernel form the search can pick,
   so any codegen change invalidates persisted plans. *)
let code_digest ~precision ~n_branches ~scheme =
  let prints =
    List.map Kernel_ast.Print.kernel_to_string
      [
        Hand_kernels.volume ~precision;
        fst (boundary_kernel ~precision ~n_branches scheme);
        Lift_acoustics.Programs.tiled_volume ~precision ~tile:(8, 8) ();
      ]
  in
  Digest.to_hex (Digest.string (String.concat "\x00" ("racs-autotune-v1" :: prints)))

let key ~(engine : Gpu_sim.engine) ~precision ~n_branches ~scheme ~shape
    ~(dims : Geometry.dims) : Plan_cache.key =
  {
    Plan_cache.k_scheme = scheme;
    k_shape = Geometry.shape_label shape;
    k_dims = (dims.Geometry.nx, dims.Geometry.ny, dims.Geometry.nz);
    k_precision = precision_label precision;
    k_device = Vgpu.Device.host.Vgpu.Device.name;
    k_engine = engine_label engine;
    k_digest = code_digest ~precision ~n_branches ~scheme;
  }

(* -- Enumeration ------------------------------------------------------- *)

(* Budgets bracketing Opt's default (512): 0 disables unrolling, 16384
   unrolls everything in these kernels.  Both change the generated code,
   which is what a measured win on a CPU host comes from. *)
let default_unrolls = [ None; Some 0; Some 16384 ]
let default_tiles = [ (4, 4); (8, 8); (16, 8) ]

(* Temporal block depths searched on sharded plans (a single device has
   no halo traffic to amortise); [Gpu_sim] clamps a depth the thinnest
   slab cannot carry. *)
let default_tblocks = [ 1; 2; 4 ]

(* Every plan in the search space.  Work-group size is not a separate
   axis: the virtual engines' wall clock is insensitive to it for
   ungrouped kernels (and a tile fixes it), so each volume form gets the
   model-best size from [Tuner]'s sweep — the work-group dimension is
   searched, just inside the model. *)
let enumerate ~device ~precision ~shape ~(dims : Geometry.dims) ~max_shards ~tiles
    ?(tblocks = default_tblocks) () =
  let wv = Workloads.workload Workloads.Volume shape dims in
  let tiles =
    List.filter
      (fun (w, h) -> w * h <= 256 && w <= dims.Geometry.nx && h <= dims.Geometry.ny)
      tiles
  in
  let local_of = function
    | Some (w, h) -> w * h
    | None -> (Tuner.tune ~device (Hand_kernels.volume ~precision) wv).Tuner.best_size
  in
  let tblocks = List.sort_uniq compare (List.filter (fun t -> t >= 1) tblocks) in
  let tblocks = if tblocks = [] then [ 1 ] else tblocks in
  (* the time-block axis applies to sharded plans only: a single device
     has no halo exchanges to amortise *)
  let schedules =
    (1, `Seq, 1)
    :: (if max_shards >= 2 then
          List.concat_map
            (fun tb ->
              List.init (max_shards - 1) (fun i -> (i + 2, `Concurrent, tb))
              @ [ (2, `Overlap, tb) ])
            tblocks
        else [])
  in
  List.concat_map
    (fun tile ->
      let local = local_of tile in
      List.concat_map
        (fun unroll ->
          List.filter_map
            (fun (shards, schedule, tblock) ->
              (* the overlapped schedule range-splits the volume kernel
                 into interior/frontier launches — a transformation of
                 the flat 1D NDRange; a 2D tiled kernel under it is not
                 bit-identical (the identity guard would reject it
                 anyway, so don't spend measurements on it) *)
              if tile <> None && schedule = `Overlap then None
              else
                Some
                  {
                    Plan_cache.pl_tile = tile;
                    pl_local = local;
                    pl_unroll = unroll;
                    pl_shards = shards;
                    pl_schedule = schedule;
                    pl_tblock = tblock;
                  })
            schedules)
        default_unrolls)
    (None :: List.map Option.some tiles)

(* -- Prediction -------------------------------------------------------- *)

(* Calibrated per-step prediction of a plan: volume + boundary kernel,
   each scaled by its (device, kernel) correction factor.  Sharded plans
   price through [predict_sharded]/[predict_overlapped] (whole-plan
   shapes the model already knows); the boundary kernel shards without a
   halo of its own. *)
let predict_plan ~device ~calibration ~precision ~n_branches ~scheme ~shape
    ~(dims : Geometry.dims) (p : Plan_cache.plan) =
  let vol = volume_kernel ~precision p in
  let bnd, bkind = boundary_kernel ~precision ~n_branches scheme in
  let wv =
    { (Workloads.workload Workloads.Volume shape dims) with
      Vgpu.Perf_model.local_size = p.pl_local }
  in
  let wb =
    { (Workloads.workload bkind shape dims) with Vgpu.Perf_model.local_size = p.pl_local }
  in
  let factor (k : Kernel_ast.Cast.kernel) =
    Vgpu.Perf_model.Calibration.factor calibration
      ~device:device.Vgpu.Device.name ~kernel_name:k.Kernel_ast.Cast.name
  in
  let plane_elems = dims.Geometry.nx * dims.Geometry.ny in
  let base k w ~plane_elems =
    if p.pl_shards = 1 then
      Vgpu.Perf_model.predict ?unroll_budget:p.pl_unroll device k w
    else
      (* halo width from the kernel's inferred stencil footprint, not the
         protocol constant — the workload omits the grid dims (they would
         skew the per-point loop counts), so supply them here *)
      let radius =
        Vgpu.Perf_model.stencil_radius k
          { w with
            Vgpu.Perf_model.param_values =
              ("Nx", dims.Geometry.nx) :: ("Ny", dims.Geometry.ny)
              :: w.Vgpu.Perf_model.param_values }
      in
      if p.pl_tblock > 1 then
        (* blocked cadence: exchange rounds amortise over T against the
           redundant ghost recompute, whatever the schedule *)
        Vgpu.Perf_model.predict_blocked device k w ~radius ~plane_elems
          ~shards:p.pl_shards ~tblock:p.pl_tblock
      else
        match p.pl_schedule with
        | `Overlap ->
            Vgpu.Perf_model.predict_overlapped device k w ~radius ~plane_elems
              ~shards:p.pl_shards
        | `Seq | `Concurrent ->
            Vgpu.Perf_model.predict_sharded device k w ~radius ~plane_elems
              ~shards:p.pl_shards
  in
  (base vol wv ~plane_elems *. factor vol) +. (base bnd wb ~plane_elems:0 *. factor bnd)

(* -- Measurement ------------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Autotune.median: empty"
  | sorted -> List.nth sorted (List.length sorted / 2)

let sim_of_plan ~engine ~precision ~n_branches ~params ~room (p : Plan_cache.plan) =
  let shards = if p.pl_shards > 1 then Some p.pl_shards else None in
  let schedule = if p.pl_shards > 1 then Some (p.pl_schedule :> Gpu_sim.schedule) else None in
  let tblock = if p.pl_shards > 1 && p.pl_tblock > 1 then Some p.pl_tblock else None in
  Gpu_sim.create ~engine ?unroll_budget:p.pl_unroll ?shards ?schedule ?tblock
    ~fi_beta:0.1 ~n_branches ~precision params room

(* Measure one plan: same impulse, [warmup] untimed steps (compiles and
   caches), then [repeats] timed intervals of [steps] steps each —
   median per-step time.  Returns the final field's bit pattern (every
   candidate runs the same total step count, so bit-identical plans end
   bit-identical) and each kernel's measured mean launch time for
   calibration. *)
let measure_plan ~clock ~engine ~precision ~n_branches ~scheme ~params ~room
    ~warmup ~repeats ~steps (p : Plan_cache.plan) =
  let kernels = plan_kernels ~precision ~n_branches ~scheme p in
  let sim = sim_of_plan ~engine ~precision ~n_branches ~params ~room p in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  for _ = 1 to warmup do
    Gpu_sim.step sim kernels
  done;
  Gpu_sim.reset_stats sim;
  let times =
    List.init repeats (fun _ ->
        let t0 = clock () in
        for _ = 1 to steps do
          Gpu_sim.step sim kernels
        done;
        (clock () -. t0) /. float_of_int steps)
  in
  Gpu_sim.sync sim;
  let bits = Array.map Int64.bits_of_float sim.Gpu_sim.state.State.curr in
  let per_kernel =
    List.filter_map
      (fun (name, (ks : Vgpu.Runtime.kernel_stats)) ->
        if ks.Vgpu.Runtime.k_launches > 0 then
          Some (name, ks.Vgpu.Runtime.total_s /. float_of_int ks.Vgpu.Runtime.k_launches)
        else None)
      (Gpu_sim.stats sim).Vgpu.Runtime.per_kernel
  in
  (median times, bits, per_kernel)

(* -- The tuner --------------------------------------------------------- *)

let tune ?(engine : Gpu_sim.engine = `Native) ?(precision = Kernel_ast.Cast.Double)
    ?(device = Vgpu.Device.host) ?(n_branches = 3) ?(topk = 8) ?(warmup = 2)
    ?(repeats = 5) ?(steps = 20) ?(max_shards = 2) ?clock
    ?(use_cache = true) ?tiles ?tblocks ~scheme ~shape ~dims () :
    result =
  if steps < 1 || repeats < 1 then
    invalid_arg
      (Printf.sprintf "Autotune.tune: steps (%d) and repeats (%d) must be at least 1" steps
         repeats);
  let key = key ~engine ~precision ~n_branches ~scheme ~shape ~dims in
  let cached = if use_cache then Plan_cache.find key else None in
  match cached with
  | Some entry ->
      {
        r_key = key;
        r_entry = entry;
        r_evaluated = [];
        r_candidates = 0;
        r_measurements = 0;
        r_from_cache = true;
      }
  | None ->
      let clk = Option.value clock ~default:Vgpu.Clock.now in
      (* inject the clock into the runtimes' launch timing too, so the
         per-kernel calibration observations share the timer *)
      (match clock with Some c -> Vgpu.Runtime.set_clock c | None -> ());
      Fun.protect
        ~finally:(fun () ->
          match clock with Some _ -> Vgpu.Runtime.reset_clock () | None -> ())
        (fun () ->
          let calibration =
            if use_cache then Plan_cache.load_calibration ()
            else Vgpu.Perf_model.Calibration.create ()
          in
          let tiles = Option.value tiles ~default:default_tiles in
          let plans =
            enumerate ~device ~precision ~shape ~dims ~max_shards ~tiles ?tblocks ()
          in
          let predicted =
            List.map
              (fun p ->
                ( p,
                  predict_plan ~device ~calibration ~precision ~n_branches ~scheme
                    ~shape ~dims p ))
              plans
          in
          (* model pruning: keep the k most promising plans, plus the
             whole flat unsharded unroll axis — that axis changes the
             generated code while the model cannot rank budgets under
             sharding, and it contains the default plan, the baseline
             every winner must beat *)
          let is_axis (p : Plan_cache.plan) =
            p.pl_tile = None && p.pl_shards = 1
          in
          let is_default (p : Plan_cache.plan) = is_axis p && p.pl_unroll = None in
          let frontier =
            List.filteri
              (fun i _ -> i < topk)
              (List.stable_sort (fun (_, a) (_, b) -> compare a b) predicted)
          in
          let frontier =
            frontier
            @ List.filter
                (fun (p, _) ->
                  is_axis p && not (List.exists (fun (q, _) -> q = p) frontier))
                predicted
          in
          let params = Params.default in
          let n_materials = Array.length Material.defaults in
          let room = Geometry.build ~n_materials shape dims in
          let measure (p, pred) =
            let m, bits, per_kernel =
              measure_plan ~clock:clk ~engine ~precision ~n_branches ~scheme
                ~params ~room ~warmup ~repeats ~steps p
            in
            (p, pred, m, bits, per_kernel)
          in
          (* a candidate whose measurement raises is dropped *)
          let measured_raw =
            List.filter_map (fun c -> try Some (measure c) with _ -> None) frontier
          in
          let default_row =
            match List.find_opt (fun (p, _, _, _, _) -> is_default p) measured_raw with
            | Some r -> r
            | None -> failwith "Autotune: default plan failed to measure"
          in
          let _, _, default_s, default_bits, _ = default_row in
          let evaluated =
            List.map
              (fun (p, pred, m, bits, _) ->
                {
                  m_plan = p;
                  m_predicted_s = pred;
                  m_measured_s = m;
                  m_identical = bits = default_bits;
                })
              measured_raw
          in
          (* measured re-ranking: fastest bit-identical candidate wins;
             ties break on predicted time, then evaluation order *)
          let winner =
            List.fold_left
              (fun acc m ->
                if not m.m_identical then acc
                else
                  match acc with
                  | None -> Some m
                  | Some b ->
                      if
                        m.m_measured_s < b.m_measured_s
                        || (m.m_measured_s = b.m_measured_s
                           && m.m_predicted_s < b.m_predicted_s)
                      then Some m
                      else acc)
              None evaluated
          in
          let winner = Option.get winner (* the default row is identical *) in
          let entry =
            {
              Plan_cache.e_plan = winner.m_plan;
              e_predicted_s = winner.m_predicted_s;
              e_measured_s = winner.m_measured_s;
              e_default_s = default_s;
              e_samples = repeats;
            }
          in
          (* feed measured kernel times back into the correction table *)
          List.iter
            (fun (p, _, _, _, per_kernel) ->
              let wv =
                { (Workloads.workload Workloads.Volume shape dims) with
                  Vgpu.Perf_model.local_size = p.Plan_cache.pl_local }
              in
              let _, bkind = boundary_kernel ~precision ~n_branches scheme in
              let wb =
                { (Workloads.workload bkind shape dims) with
                  Vgpu.Perf_model.local_size = p.Plan_cache.pl_local }
              in
              List.iter
                (fun (name, mean_s) ->
                  let k = volume_kernel ~precision p in
                  let predicted_s =
                    if k.Kernel_ast.Cast.name = name then
                      Vgpu.Perf_model.predict ?unroll_budget:p.Plan_cache.pl_unroll
                        device k
                        { wv with
                          Vgpu.Perf_model.active_points =
                            wv.Vgpu.Perf_model.active_points
                            /. float_of_int p.Plan_cache.pl_shards }
                    else
                      let b, _ = boundary_kernel ~precision ~n_branches scheme in
                      if b.Kernel_ast.Cast.name = name then
                        Vgpu.Perf_model.predict
                          ?unroll_budget:p.Plan_cache.pl_unroll device b
                          { wb with
                            Vgpu.Perf_model.active_points =
                              wb.Vgpu.Perf_model.active_points
                              /. float_of_int p.Plan_cache.pl_shards }
                      else 0.
                  in
                  Vgpu.Perf_model.Calibration.observe calibration
                    ~device:device.Vgpu.Device.name ~kernel_name:name
                    ~predicted_s ~measured_s:mean_s)
                per_kernel)
            measured_raw;
          if use_cache then begin
            Plan_cache.store key entry;
            Plan_cache.save_calibration calibration
          end;
          {
            r_key = key;
            r_entry = entry;
            r_evaluated = evaluated;
            r_candidates = List.length plans;
            r_measurements = List.length measured_raw;
            r_from_cache = false;
          })
