(* The four workloads, their closed-loop measurement and their metrics.

   Every workload runs in this one process, one operation after the
   other: a job (an impulse-response run as `racs simulate` performs it,
   or one cold+warm compile repetition) starts only after the previous
   one returned.  Jobs repeat until the time budget is spent, pinned to
   the CPUs in turn; set-up is the median over jobs, and the step time,
   a low quantile over step samples (see [time_quantile]), is reported
   against a reference sweep timed between the jobs. *)

open Acoustics
module Cast = Kernel_ast.Cast

type stepping = {
  cfg : Sim.config;
  samples : int;  (** timed samples per job *)
  sample_steps : int;  (** steps per sample *)
  check_steps : int;  (** steps of the reference check *)
}

type kind =
  | Stepping of stepping
  | Cold_warm of { dims : Geometry.dims; samples : int; sample_steps : int }
      (** all three schemes, cold then warm, each run [1 + samples *
          sample_steps] steps *)

(* Why each workload is here: see README.md. *)
type workload = { name : string; kind : kind }

let box nx ny nz = Geometry.dims ~nx ~ny ~nz

let stepping ~shape ~dims ~scheme ?shards ~samples ~sample_steps ~check_steps () =
  Stepping
    { cfg = { Sim.shape; dims; scheme; shards; verify = false }; samples; sample_steps; check_steps }

(* Samples last about a millisecond where a step is shorter: long
   enough to carry the program's own periodic costs (minor collections)
   in every sample, short against the host's slow phases. *)
let workloads =
  [
    {
      name = "fi_box_small";
      kind =
        stepping ~shape:Box ~dims:(box 32 24 20) ~scheme:Fi ~samples:200 ~sample_steps:20 ~check_steps:50 ();
    };
    {
      name = "fdmm_dome_2shard";
      kind =
        stepping ~shape:Dome ~dims:(box 48 40 32) ~scheme:Fd_mm ~shards:2 ~samples:400 ~sample_steps:4
          ~check_steps:50 ();
    };
    {
      name = "fimm_paper_box";
      kind =
        stepping ~shape:Box ~dims:(box 302 202 152) ~scheme:Fi_mm ~samples:7 ~sample_steps:1
          ~check_steps:5 ();
    };
    { name = "compile_cold_warm"; kind = Cold_warm { dims = box 24 20 16; samples = 12; sample_steps = 25 } };
  ]

(* The same workloads on tiny rooms, for the smoke run. *)
let smoke_workloads =
  List.map
    (fun w ->
      let kind =
        match w.kind with
        | Stepping s ->
            let d = s.cfg.dims in
            Stepping
              {
                cfg = { s.cfg with dims = box (min 24 d.nx) (min 20 d.ny) (min 16 d.nz) };
                samples = 3;
                sample_steps = min 5 s.sample_steps;
                check_steps = 3;
              }
        | Cold_warm _ -> Cold_warm { dims = box 12 10 8; samples = 2; sample_steps = 1 }
      in
      { w with kind })
    workloads

let find name = List.find_opt (fun w -> w.name = name) workloads

(* {2 Results} *)

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  r_name : string;
  r_attempted : int;
  r_failed : int;
  r_md5 : string;  (** receiver response of the timed runs *)
  r_jobs : int;
  r_samples : int;
  r_end_to_end : metric list;
  r_per_layer : metric list;  (** only {!raw_step} unless traced *)
}

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type checks = { mutable attempted : int; mutable failed : int }

let check c ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

let median_of f l = Stat.median (List.map f l)

(* The step time, and the reference-sweep time, is this percentile of
   the samples.  The host is shared: for seconds at a time another
   tenant's work can slow a CPU by up to 2x, and a run whose slow share
   nears half its samples has a median anywhere between the two speeds.
   The 10th percentile stays on the unhindered speed until nine tenths
   of the samples are slowed.  Where a step is short a sample is many
   steps long, so it still carries the program's own periodic costs. *)
let time_quantile = 10.

let time_of samples = Stat.percentile time_quantile samples
let samples_of runs = List.concat_map (fun (r : Sim.run) -> r.samples) runs
let kernel_names kernels = List.sort_uniq compare (List.map (fun (k : Cast.kernel) -> k.name) kernels)

(* {2 Per-layer metrics} *)

(* One steady phase with the model of its kernels. *)
type obs = { o_run : Sim.run; o_model : (Layers.kclass * (float * float)) list }

let kernels_time ?cls (st : Vgpu.Runtime.stats) =
  List.fold_left
    (fun acc (name, (k : Vgpu.Runtime.kernel_stats)) ->
      if cls = None || Layers.kclass name = cls then acc +. k.total_s else acc)
    0. st.Vgpu.Runtime.per_kernel

(* Runtime, kernel, shard and model metrics from the steady-phase
   statistics.  Kernel times are device time summed over devices; the
   host share of a step is the step's wall time minus the slowest
   device's kernel time. *)
let stats_layers (obs : obs list) ~(roof : Layers.roofline) =
  let fsum f = List.fold_left (fun acc o -> acc +. f o) 0. obs in
  let per_step x = x /. fsum (fun o -> float_of_int o.o_run.Sim.steady_steps) in
  let wall = per_step (fsum (fun o -> o.o_run.Sim.steady_s)) in
  let slowest =
    per_step
      (fsum (fun o ->
           List.fold_left (fun acc (_, st) -> Float.max acc (kernels_time st)) 0. o.o_run.Sim.devices))
  in
  let ktime cls = per_step (fsum (fun o -> kernels_time ~cls o.o_run.Sim.stats)) in
  let model cls f =
    per_step
      (fsum (fun o ->
           match List.assoc_opt cls o.o_model with
           | Some bp -> f bp *. float_of_int o.o_run.Sim.steady_steps
           | None -> 0.))
  in
  let gbps cls = model cls fst /. ktime cls /. 1e9 in
  let hits, lookups =
    List.fold_left
      (fun acc o ->
        List.fold_left
          (fun (h, l) (_, (c : Vgpu.Kcache.counters)) -> (h + c.c_hits, l + c.c_hits + c.c_misses))
          acc o.o_run.Sim.stats.Vgpu.Runtime.s_caches)
      (0, 0) obs
  in
  let sharded = List.exists (fun o -> List.length o.o_run.Sim.devices > 1) obs in
  let imbalance =
    Stat.mean
      (List.map
         (fun o ->
           let ts = List.map (fun (_, st) -> kernels_time st) o.o_run.Sim.devices in
           List.fold_left Float.max 0. ts /. Stat.mean ts)
         obs)
  in
  let host_us = (wall -. slowest) *. 1e6 in
  [
    m "runtime.host_us_per_step" "us" host_us;
    m "kcache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 lookups));
    m "kernel.volume.us" "us" (ktime Volume *. 1e6);
    m "kernel.boundary.us" "us" (ktime Boundary *. 1e6);
    m "kernel.volume.gbps" "GB/s" (gbps Volume);
    m "kernel.boundary.gbps" "GB/s" (gbps Boundary);
    m "kernel.volume.roofline_frac" "ratio" (gbps Volume /. roof.triad_gbps);
    m "shard.overhead_us_per_step" "us" (if sharded then host_us else 0.);
    m "shard.halo_bytes_per_step" "B"
      (per_step (fsum (fun o -> float_of_int o.o_run.Sim.stats.Vgpu.Runtime.s_d2d_bytes)));
    m "shard.imbalance" "ratio" (if sharded then imbalance else 1.);
    m "model.volume.pred_over_meas" "ratio" (model Volume snd /. ktime Volume);
    m "model.boundary.pred_over_meas" "ratio" (model Boundary snd /. ktime Boundary);
  ]

(* The step time itself, the throughput at it, and the reference sweep
   the end-to-end step metric divides it by: reported by every run,
   traced or not, though only as per-layer metrics, since they drift
   with the host. *)
let raw_step ~step ~sweep ~n =
  [
    m "step_us_p10" "us" (step *. 1e6);
    m "mpts_per_s" "Mpts/s" (float_of_int n /. step /. 1e6);
    m "ref_sweep_us" "us" (sweep *. 1e6);
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let per_layer ?tr c ~runs ~obs ~warm_setup ~total ~(layers : Layers.compile_layers) ~cc_runs
    ~disk_hits ~programs ~step ~sweep ~samples ~traced_samples ~n =
  (* the last job's arrays go before the roofline allocates its own *)
  Gc.full_major ();
  let roof = Layers.roofline ?tr ~n ~min_launches:10 ~min_s:0.1 () in
  check c roof.triad_ok;
  [
    m "warm_setup_s" "s" warm_setup;
    m "total_s" "s" total;
    m "geometry.build_s" "s" (median_of (fun (r : Sim.run) -> r.geometry_s) runs);
    m "gpu_sim.create_s" "s" (median_of (fun (r : Sim.run) -> r.create_s) runs);
    m "lift.codegen_ms" "ms" layers.codegen_ms;
    m "opt.optimize_ms" "ms" layers.optimize_ms;
    m "opt.nodes_before" "count" (float_of_int layers.nodes_before);
    m "opt.nodes_after" "count" (float_of_int layers.nodes_after);
    m "check.check_ms" "ms" layers.check_ms;
    m "footprint.infer_ms" "ms" layers.footprint_ms;
    m "native_c.render_ms" "ms" layers.render_ms;
    m "native_c.source_bytes" "B" (float_of_int layers.source_bytes);
    m "native.cc_ms" "ms" layers.cc_ms;
    m "native.load_ms" "ms" layers.load_ms;
    m "native.cc_runs" "count" cc_runs;
    m "native.disk_hits" "count" disk_hits;
    m "native.cc_runs_per_program" "ratio" (cc_runs /. float_of_int programs);
  ]
  @ stats_layers obs ~roof
  @ [
      m "roofline.triad_gbps" "GB/s" roof.triad_gbps;
      m "roofline.array_bytes" "B" (float_of_int roof.array_bytes);
      m "roofline.llc_bytes" "B" (float_of_int (Layers.llc_bytes ()));
    ]
  @ raw_step ~step ~sweep ~n
  @ [
      m "steady.step_us_p50" "us" (Stat.median samples *. 1e6);
      m "steady.step_us_p90" "us" (Stat.percentile 90. samples *. 1e6);
      m "trace.overhead_frac" "ratio" ((time_of traced_samples /. time_of samples) -. 1.);
    ]

(* {2 Running a workload} *)

(* The end-to-end metrics: the set-up, and the step time over the time
   of a reference sweep of the same grid measured in the same run (see
   {!Host.ref_sweep}), both at [time_quantile]. *)
let end_to_end ~setup ~step ~sweep = [ m "setup_s" "s" setup; m "step_per_ref_sweep" "ratio" (step /. sweep) ]

(* Jobs run until [seconds] have passed and at least [min_jobs] ran,
   pinned to the CPUs in turn, each followed on its CPU by reference
   sweeps over [grid] for a fifth of the job's time.  Before each job
   and each set of sweeps the previous arrays are collected outside any
   timed region, so each job starts from the heap a fresh process would
   have.  A traced run alternates untraced and traced jobs, a pair per
   CPU: end-to-end metrics always come from the untraced ones, and
   comparing the two gives the tracing overhead.  Returns the jobs and
   the sweep samples. *)
let loop_jobs ~seconds ~min_jobs ~tr ~(grid : Geometry.dims) f =
  Host.rotate (fun pin ->
      let t0 = Host.now () in
      let rec go i acc sweeps =
        if i >= min_jobs && Host.now () -. t0 >= seconds then (List.rev acc, sweeps)
        else begin
          Gc.full_major ();
          pin (if tr = None then i else i / 2);
          let traced = if i mod 2 = 1 then tr else None in
          let r, job_s =
            Sim.timed (fun () -> Trace.span traced (Printf.sprintf "job %d" i) (fun () -> f ~tr:traced))
          in
          Gc.full_major ();
          let s =
            Trace.span tr "ref_sweep" (fun () ->
                Host.ref_sweep ~nx:grid.nx ~ny:grid.ny ~nz:grid.nz ~min_samples:3 ~min_s:(0.2 *. job_s))
          in
          go (i + 1) ((traced <> None, r) :: acc) (s @ sweeps)
        end
      in
      go 0 [] [])

let untraced jobs = List.filter_map (fun (t, r) -> if t then None else Some r) jobs
let traced jobs = List.filter_map (fun (t, r) -> if t then Some r else None) jobs

let run_stepping ~seed ~seconds ~min_jobs ~tr (w : workload) (s : stepping) =
  let cfg = s.cfg in
  let c = { attempted = 0; failed = 0 } in
  let kernels = Trace.span tr "lift.codegen" (fun () -> Sim.lift_kernels cfg.scheme) in
  (* The reference check also fills the warm binary cache before
     anything is timed. *)
  let source, receiver, ref_trace =
    Trace.span tr "reference_check" (fun () ->
        let room = Sim.build_room cfg in
        let source, receiver = Sim.pick_points ~seed ~near:(max 1 (s.check_steps / 6)) room in
        let expect = Sim.reference cfg room ~source ~receiver ~steps:s.check_steps in
        let r, sim = Sim.run cfg kernels ~source ~receiver ~samples:(s.check_steps - 1) ~sample_steps:1 in
        check c (Sim.field_matches sim r expect);
        (source, receiver, snd expect))
  in
  let md5 = ref None and layers = ref None in
  let jobs, sweeps =
    loop_jobs ~seconds ~min_jobs ~tr ~grid:cfg.dims (fun ~tr ->
        Vgpu.Native.reset_memo ();
        let r, sim =
          Sim.run ?tr cfg kernels ~source ~receiver ~samples:s.samples ~sample_steps:s.sample_steps
        in
        let digest = Sim.md5_of_response r.response in
        if !md5 = None then md5 := Some digest;
        check c (Sim.prefix_close ref_trace r.response && Some digest = !md5);
        (* time the compile layers once, on this job's own kernels and
           launch environment *)
        if tr <> None && !layers = None then
          layers :=
            Some
              (Layers.compile_layers ?tr ~schemes:[ cfg.scheme ] ~env:(Gpu_sim.check_env sim)
                 ~nx:cfg.dims.nx ~ny:cfg.dims.ny ());
        r)
  in
  let timed_runs = untraced jobs in
  let samples = samples_of timed_runs in
  let setup = median_of (fun (r : Sim.run) -> r.setup_s) timed_runs in
  let step = time_of samples and sweep = time_of sweeps in
  let end_to_end = end_to_end ~setup ~step ~sweep in
  let per_layer =
    match !layers with
    | None -> raw_step ~step ~sweep ~n:(Sim.points cfg)
    | Some layers ->
        let runs = List.map snd jobs in
        let model = Layers.model cfg kernels in
        per_layer ?tr c ~runs
          ~obs:(List.map (fun r -> { o_run = r; o_model = model }) runs)
          ~warm_setup:setup
          ~total:(median_of (fun (r : Sim.run) -> r.total_s) timed_runs)
          ~layers ~cc_runs:(float_of_int layers.cc_runs)
          ~disk_hits:(median_of (fun (r : Sim.run) -> float_of_int r.setup_native.c_disk_hits) runs)
          ~programs:(List.length (kernel_names kernels))
          ~step ~sweep ~samples ~traced_samples:(samples_of (traced jobs)) ~n:(Sim.points cfg)
  in
  {
    r_name = w.name;
    r_attempted = c.attempted;
    r_failed = c.failed;
    r_md5 = Option.value ~default:"" !md5;
    r_jobs = List.length jobs;
    r_samples = List.length samples;
    r_end_to_end = end_to_end;
    r_per_layer = per_layer;
  }

(* One repetition of compile_cold_warm: every scheme set up against a
   fresh empty binary cache with the memo dropped (cold), then every
   scheme again with the memo dropped and the cache warm.  Per scheme:
   its cold run and its warm run. *)
type rep = { runs : (Sim.scheme * Sim.run * Sim.run) list; rep_total : float }

let run_cold_warm ~seed ~seconds ~min_jobs ~tr (w : workload) ~dims ~samples ~sample_steps =
  let steps = 1 + (samples * sample_steps) in
  let c = { attempted = 0; failed = 0 } in
  let cfg scheme = { Sim.shape = Box; dims; scheme; shards = None; verify = true } in
  let room = Sim.build_room (cfg Fi) in
  let source, receiver = Sim.pick_points ~seed ~near:1 room in
  (* the seed also fixes the order in which the schemes compile *)
  let order =
    let rng = Random.State.make [| seed; 1 |] in
    List.map (fun s -> (Random.State.bits rng, s)) [ Sim.Fi; Fi_mm; Fd_mm ]
    |> List.sort compare |> List.map snd
  in
  let kernels =
    Trace.span tr "lift.codegen" (fun () -> List.map (fun s -> (s, Sim.lift_kernels s)) order)
  in
  let expect = List.map (fun s -> (s, Sim.reference (cfg s) room ~source ~receiver ~steps)) order in
  let md5 = ref None in
  let pass ?tr label =
    Trace.span tr label (fun () ->
        List.map
          (fun scheme ->
            let r, sim =
              Sim.run ?tr (cfg scheme) (List.assoc scheme kernels) ~source ~receiver
                ~samples ~sample_steps
            in
            (r, Sim.field_matches sim r (List.assoc scheme expect)))
          order)
  in
  let reps, sweeps =
    loop_jobs ~seconds ~min_jobs ~tr ~grid:dims (fun ~tr ->
        let t0 = Host.now () in
        let cold, warm =
          Layers.with_cold_cache (fun () ->
              let cold = pass ?tr "cold" in
              Vgpu.Native.reset_memo ();
              (cold, pass ?tr "warm"))
        in
        let rep_total = Host.now () -. t0 in
        let responses = List.map (fun ((r : Sim.run), _) -> r.response) (cold @ warm) in
        let digest = Sim.md5_of_response (Array.concat responses) in
        if !md5 = None then md5 := Some digest;
        List.iter2
          (fun (_, cold_ok) (_, warm_ok) -> check c (cold_ok && warm_ok && Some digest = !md5))
          cold warm;
        let runs = List.map2 (fun s ((rc, _), (rw, _)) -> (s, rc, rw)) order (List.combine cold warm) in
        { runs; rep_total })
  in
  let runs_of rep = List.concat_map (fun (_, rc, rw) -> [ rc; rw ]) rep.runs in
  let setup pick rep = List.fold_left (fun acc r -> acc +. (pick r).Sim.setup_s) 0. rep.runs in
  let cold (_, rc, _) = rc and warm (_, _, rw) = rw in
  let timed_reps = untraced reps in
  let samples = List.concat_map (fun rep -> samples_of (runs_of rep)) timed_reps in
  (* the schemes step at different speeds: the step time is the mean over
     schemes of each scheme's step time, over all timed repetitions *)
  let scheme_step s =
    time_of
      (List.concat_map
         (fun rep ->
           List.concat_map (fun (s', rc, rw) -> if s' = s then samples_of [ rc; rw ] else []) rep.runs)
         timed_reps)
  in
  let step = Stat.mean (List.map scheme_step order) and sweep = time_of sweeps in
  let end_to_end = end_to_end ~setup:(median_of (setup cold) timed_reps) ~step ~sweep in
  let per_layer =
    match tr with
    | None -> raw_step ~step ~sweep ~n:(Geometry.n_points dims)
    | Some _ ->
        let all = List.map snd reps in
        (* the launch environment is the same for the three schemes *)
        let env =
          Gpu_sim.check_env
            (Gpu_sim.create ~engine:`Native ~fi_beta:Sim.fi_beta ~n_branches:Sim.n_branches Sim.params room)
        in
        let layers = Layers.compile_layers ?tr ~schemes:order ~env ~nx:dims.nx ~ny:dims.ny () in
        let count f pick rep =
          float_of_int (List.fold_left (fun acc r -> acc + f (pick r).Sim.setup_native) 0 rep.runs)
        in
        per_layer ?tr c ~runs:(List.concat_map runs_of all)
          ~obs:
            (List.concat_map
               (fun rep ->
                 List.concat_map
                   (fun (s, rc, rw) ->
                     let model = Layers.model (cfg s) (List.assoc s kernels) in
                     [ { o_run = rc; o_model = model }; { o_run = rw; o_model = model } ])
                   rep.runs)
               all)
          ~warm_setup:(median_of (setup warm) timed_reps)
          ~total:(median_of (fun rep -> rep.rep_total) timed_reps)
          ~layers
          ~cc_runs:(median_of (count (fun n -> n.c_compiles) cold) all)
          ~disk_hits:(median_of (count (fun n -> n.c_disk_hits) warm) all)
          ~programs:(List.length (kernel_names (List.concat_map snd kernels)))
          ~step ~sweep ~samples
          ~traced_samples:(List.concat_map (fun rep -> samples_of (runs_of rep)) (traced reps))
          ~n:(Geometry.n_points dims)
  in
  {
    r_name = w.name;
    r_attempted = c.attempted;
    r_failed = c.failed;
    r_md5 = Option.value ~default:"" !md5;
    r_jobs = List.length reps;
    r_samples = List.length samples;
    r_end_to_end = end_to_end;
    r_per_layer = per_layer;
  }

let run ~seed ~seconds ~min_jobs ~tr (w : workload) =
  Option.iter (fun t -> Trace.set_workload t w.name) tr;
  Trace.span tr w.name (fun () ->
      match w.kind with
      | Stepping s -> run_stepping ~seed ~seconds ~min_jobs ~tr w s
      | Cold_warm { dims; samples; sample_steps } ->
          run_cold_warm ~seed ~seconds ~min_jobs ~tr w ~dims ~samples ~sample_steps)
