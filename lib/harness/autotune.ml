(* Measured rewrite-space autotuner.

   [Tuner] sweeps one knob through the performance model; this module
   searches the configuration space the runtime actually exposes —

     Opt unroll budget x shard count x schedule x temporal block depth

   — and decides by *measurement*, because the model keeps picking
   sharded plans that lose on this host (BENCH_PR8).  The pipeline:

     1. enumerate the plans that run as labelled;
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
  Printf.sprintf "unroll=%s shards=%d/%s%s"
    (match p.pl_unroll with None -> "default" | Some n -> string_of_int n)
    p.pl_shards
    (Plan_cache.string_of_schedule p.pl_schedule)
    (if p.pl_tblock > 1 then Printf.sprintf " T=%d" p.pl_tblock else "")

(* Labels and schedule names are plain ASCII, so OCaml's %S quoting is
   JSON quoting here. *)
let plan_json (p : Plan_cache.plan) =
  Printf.sprintf
    "{ \"label\": %S, \"unroll\": %s, \"shards\": %d, \"schedule\": %S, \"tblock\": %d }"
    (plan_label p)
    (match p.pl_unroll with None -> "null" | Some n -> string_of_int n)
    p.pl_shards
    (Plan_cache.string_of_schedule p.pl_schedule)
    p.pl_tblock

(* -- Kernel construction ---------------------------------------------- *)

let betas n_branches =
  (Material.tables ~n_branches Material.defaults).Material.t_beta

let boundary_kernel ~precision ~n_branches scheme =
  match scheme with
  | "fi" -> (Hand_kernels.boundary_fi ~precision, Workloads.Boundary 0)
  | "fi-mm" ->
      ( Hand_kernels.boundary_fi_mm ~precision ~betas:(betas n_branches),
        Workloads.Boundary 0 )
  | "fd-mm" ->
      (Hand_kernels.boundary_fd_mm ~precision ~mb:n_branches, Workloads.Boundary n_branches)
  | s -> invalid_arg (Printf.sprintf "Autotune: unknown scheme %S (fi | fi-mm | fd-mm)" s)

let kernels ~precision ~n_branches ~scheme =
  [ Hand_kernels.volume ~precision; fst (boundary_kernel ~precision ~n_branches scheme) ]

(* -- Cache key --------------------------------------------------------- *)

(* The digest covers the code of the kernels every plan runs, so any
   codegen change invalidates persisted plans. *)
let code_digest ~precision ~n_branches ~scheme =
  let prints =
    List.map Kernel_ast.Print.kernel_to_string (kernels ~precision ~n_branches ~scheme)
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

(* Temporal block depths searched on sharded plans (a single device has
   no halo traffic to amortise). *)
let default_tblocks = [ 1; 2; 4 ]

(* Every plan in the search space that runs as labelled.  [Shard.plan]
   cuts the room with [Shard.partition], which never makes more slabs
   than planes, and clamps the block depth to the thinnest slab; a plan
   past either limit would be measured, cached and replayed under a name
   it does not run as, so it is left out. *)
let enumerate ~(dims : Geometry.dims) ~max_shards () =
  let runs_as_labelled (shards, _, tblock) =
    let slabs = Shard.partition ~nz:dims.Geometry.nz ~shards in
    Array.length slabs = shards
    && Array.for_all (fun (sl : Shard.slab) -> sl.Shard.z1 - sl.Shard.z0 >= tblock) slabs
  in
  let schedules =
    (1, `Seq, 1)
    :: (if max_shards >= 2 then
          List.concat_map
            (fun tb ->
              List.init (max_shards - 1) (fun i -> (i + 2, `Concurrent, tb))
              @ [ (2, `Overlap, tb) ])
            default_tblocks
        else [])
  in
  List.concat_map
    (fun pl_unroll ->
      List.map
        (fun (pl_shards, pl_schedule, pl_tblock) ->
          { Plan_cache.pl_unroll; pl_shards; pl_schedule; pl_tblock })
        (List.filter runs_as_labelled schedules))
    default_unrolls

(* -- Prediction -------------------------------------------------------- *)

(* Calibrated per-step prediction of a plan: volume + boundary kernel,
   each scaled by its (device, kernel) correction factor.  Sharded plans
   price through [predict_sharded]/[predict_overlapped] (whole-plan
   shapes the model already knows); the boundary kernel shards without a
   halo of its own.  Each kernel comes with its priced workload. *)
let predict_plan ~device ~calibration ~volume:(vol, wv) ~boundary:(bnd, wb)
    ~(dims : Geometry.dims) (p : Plan_cache.plan) =
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
  let kernels = kernels ~precision ~n_branches ~scheme in
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
    ?(n_branches = 3) ?(topk = 8) ?(warmup = 2) ?(repeats = 5) ?(steps = 20)
    ?(max_shards = 2) ?clock ?(use_cache = true) ~scheme ~shape ~dims () : result =
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
          (* the key names the host device, so the model prices for it *)
          let device = Vgpu.Device.host in
          let vol = Hand_kernels.volume ~precision in
          let bnd, bkind = boundary_kernel ~precision ~n_branches scheme in
          (* every plan's launches are priced at one work-group size,
             the volume kernel's model-best from [Tuner]'s sweep: the
             host engines' wall clock does not depend on it, so it is no
             plan field and is searched inside the model only *)
          let wv = Workloads.workload Workloads.Volume shape dims in
          let local_size = (Tuner.tune ~device vol wv).Tuner.best_size in
          let wv = { wv with Vgpu.Perf_model.local_size }
          and wb = { (Workloads.workload bkind shape dims) with Vgpu.Perf_model.local_size } in
          let plans = enumerate ~dims ~max_shards () in
          let predicted =
            List.map
              (fun p ->
                ( p,
                  predict_plan ~device ~calibration ~volume:(vol, wv) ~boundary:(bnd, wb)
                    ~dims p ))
              plans
          in
          (* model pruning: keep the k most promising plans, plus the
             whole unsharded unroll axis — that axis changes the
             generated code while the model cannot rank budgets under
             sharding, and it contains the default plan, the baseline
             every winner must beat *)
          let is_axis (p : Plan_cache.plan) = p.pl_shards = 1 in
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
              let per_shard k (w : Vgpu.Perf_model.workload) =
                Vgpu.Perf_model.predict ?unroll_budget:p.Plan_cache.pl_unroll device k
                  { w with
                    Vgpu.Perf_model.active_points =
                      w.Vgpu.Perf_model.active_points /. float_of_int p.Plan_cache.pl_shards }
              in
              List.iter
                (fun (name, mean_s) ->
                  let predicted_s =
                    if vol.Kernel_ast.Cast.name = name then per_shard vol wv
                    else if bnd.Kernel_ast.Cast.name = name then per_shard bnd wb
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
