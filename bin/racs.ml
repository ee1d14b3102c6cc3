(* racs — room acoustics code-generation studio.

   Command-line front end over the library:
     racs kernels      dump the generated OpenCL (and hand-written
                       baselines) for every kernel
     racs simulate     run an impulse-response simulation on a box/dome
     racs check        static race/bounds verdicts for every kernel
                       (raw + optimized) plus host-plan lint
     racs experiments  regenerate any of the paper's tables/figures
     racs host-demo    show the compiled host program of paper Listing 5 *)

open Cmdliner
open Acoustics

let precision_conv =
  let parse = function
    | "single" -> Ok Kernel_ast.Cast.Single
    | "double" -> Ok Kernel_ast.Cast.Double
    | s -> Error (`Msg (Printf.sprintf "unknown precision %s" s))
  in
  let print ppf p =
    Fmt.string ppf (match p with Kernel_ast.Cast.Single -> "single" | Double -> "double")
  in
  Arg.conv (parse, print)

(* --engine, on every subcommand that takes one *)
let engine_conv : Gpu_sim.engine Arg.conv =
  Arg.enum [ ("interp", `Interp); ("native", `Native) ]

(* --scheme: the paper's three boundary schemes (§II-C, §II-D); racs
   tune --model also sweeps the volume kernel alone *)
type scheme = [ `Fi | `Fi_mm | `Fd_mm ]

let schemes : (string * scheme) list = [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

let tune_schemes = (schemes :> (string * [ scheme | `Volume ]) list) @ [ ("volume", `Volume) ]

(* the name a scheme goes by on the command line, in the harness and in
   the plan cache *)
let scheme_name (s : [< scheme | `Volume ]) =
  fst (List.find (fun (_, v) -> v = (s :> [ scheme | `Volume ])) tune_schemes)

(* --nx/--ny/--nz below what a room needs is a semantic error (exit 2),
   reported in the library's words *)
let room_dims ~nx ~ny ~nz =
  match Geometry.dims ~nx ~ny ~nz with
  | d -> d
  | exception Invalid_argument msg ->
      Fmt.epr "racs: room %dx%dx%d rejected: %s@." nx ny nz msg;
      exit 2

let shape_conv =
  let parse = function
    | "box" -> Ok Geometry.Box
    | "dome" -> Ok Geometry.Dome
    | "l-shape" -> Ok Geometry.L_shape
    | s -> Error (`Msg (Printf.sprintf "unknown shape %s" s))
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Geometry.shape_label s))

(* ------------------------------------------------------------------ *)
(* racs kernels *)

let all_kernels ~optimize precision =
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  let lift name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize ~precision prog).Lift.Codegen.kernel
  in
  [
    ("hand-written", Hand_kernels.fused_fi ~precision);
    ("hand-written", Hand_kernels.volume ~precision);
    ("hand-written", Hand_kernels.boundary_fi ~precision);
    ("hand-written", Hand_kernels.boundary_fi_mm ~precision ~betas);
    ("hand-written", Hand_kernels.boundary_fd_mm ~precision ~mb:3);
    ("lift-generated", lift "lift_fused_fi" (Lift_acoustics.Programs.fused_fi ()));
    ("lift-generated", lift "lift_volume" (Lift_acoustics.Programs.volume ()));
    ("lift-generated", lift "lift_boundary_fi" (Lift_acoustics.Programs.boundary_fi ()));
    ("lift-generated", lift "lift_boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ()));
    ("lift-generated", lift "lift_boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ()));
    ("lift-generated (slide3/pad3 composition)",
      lift "lift_fused_fi_3d" (Lift_acoustics.Programs.fused_fi_3d ()));
  ]

let cmd_kernels precision no_opt =
  List.iter
    (fun (origin, k) ->
      Printf.printf "/* %s, %s precision */\n%s\n" origin
        (match k.Kernel_ast.Cast.precision with Single -> "single" | Double -> "double")
        (Kernel_ast.Print.kernel_to_string k))
    (all_kernels ~optimize:(not no_opt) precision)

(* ------------------------------------------------------------------ *)
(* racs simulate *)

let cmd_simulate shape nx ny nz scheme steps backend engine shards tblock overlap
    no_overlap no_opt show_stats sanitize verify tuned =
  let params = Params.default in
  let dims = room_dims ~nx ~ny ~nz in
  if steps < 0 then begin
    Fmt.epr "racs: --steps expects a non-negative count, got %d@." steps;
    exit 2
  end;
  if shards < 0 then begin
    Fmt.epr "racs: --shards expects a non-negative count (0 = one device), got %d@." shards;
    exit 2
  end;
  let n_materials = Array.length Material.defaults in
  let room = Geometry.build ~n_materials shape dims in
  let precision = Kernel_ast.Cast.Double in
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  (* Compile without optimizing: the runtime optimizes at dispatch, so the
     per-kernel reports show up under --stats (and --no-opt disables it). *)
  let lift name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision prog).Lift.Codegen.kernel
  in
  let kernels =
    match (scheme, backend) with
    | `Fi, `Hand ->
        [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]
    | `Fi, `Lift ->
        [ lift "volume" (Lift_acoustics.Programs.volume ());
          lift "boundary_fi" (Lift_acoustics.Programs.boundary_fi ()) ]
    | `Fi_mm, `Hand ->
        [ Hand_kernels.volume ~precision;
          Hand_kernels.boundary_fi_mm ~precision ~betas ]
    | `Fi_mm, `Lift ->
        [ lift "volume" (Lift_acoustics.Programs.volume ());
          lift "boundary_fi_mm" (Lift_acoustics.Programs.boundary_fi_mm ()) ]
    | `Fd_mm, `Hand ->
        [ Hand_kernels.volume ~precision;
          Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]
    | `Fd_mm, `Lift ->
        [ lift "volume" (Lift_acoustics.Programs.volume ());
          lift "boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ()) ]
  in
  let scheme = scheme_name scheme in
  if tblock < 1 then begin
    Fmt.epr "racs: --tblock expects a positive depth, got %d@." tblock;
    exit 2
  end;
  if tblock > 1 && shards < 2 && not tuned then begin
    Fmt.epr "racs: --tblock amortises the halo exchange, which needs --shards N (N > 1)@.";
    exit 2
  end;
  let shards = if shards > 0 then Some shards else None in
  let schedule : Gpu_sim.schedule option =
    match (overlap, no_overlap) with
    | true, true ->
        Fmt.epr "racs: --overlap and --no-overlap are mutually exclusive@.";
        exit 2
    | true, false -> Some `Overlap
    | false, true -> Some `Seq
    | false, false -> None
  in
  (* --tuned: run the plan the autotuner picked for this workload.  A
     warm plan cache answers with zero measurements; a cold one runs the
     search first.  The plan overrides --backend/--shards. *)
  let tuned_plan =
    if not tuned then None
    else begin
      let key =
        Harness.Autotune.key ~engine ~precision ~n_branches:3 ~scheme ~shape ~dims
      in
      let plan =
        match Harness.Plan_cache.find key with
        | Some e -> e.Harness.Plan_cache.e_plan
        | None ->
            Fmt.epr "racs: no cached plan, tuning first (racs tune caches it)...@.";
            (Harness.Autotune.tune ~engine ~precision ~scheme ~shape ~dims ())
              .Harness.Autotune.r_entry
              .Harness.Plan_cache.e_plan
      in
      Printf.printf "tuned plan: %s\n" (Harness.Autotune.plan_label plan);
      Some plan
    end
  in
  let kernels, shards, schedule, unroll_budget, tblock =
    match tuned_plan with
    | None -> (kernels, shards, schedule, None, tblock)
    | Some p ->
        ( Harness.Autotune.kernels ~precision ~n_branches:3 ~scheme,
          Some p.Harness.Plan_cache.pl_shards,
          Some (p.Harness.Plan_cache.pl_schedule :> Gpu_sim.schedule),
          p.Harness.Plan_cache.pl_unroll,
          p.Harness.Plan_cache.pl_tblock )
  in
  let sim =
    Gpu_sim.create ~engine ~optimize:(not no_opt) ?unroll_budget ?shards ?schedule ~tblock
      ~fi_beta:0.1 ~n_branches:3
      ?verify:(if verify then Some true else None)
      ~sanitize params room
  in
  (* the library clamps the shard count to the planes and T to the
     thinnest slab; a hand-given value that does not survive is an error
     (a tuned plan's values come from the library and always do) *)
  if not tuned then begin
    (match shards with
    | Some n when Gpu_sim.n_shards sim <> n ->
        Fmt.epr "racs: --shards %d exceeds the room's %d Z planes; it would run %d shard(s)@." n
          nz (Gpu_sim.n_shards sim);
        exit 2
    | _ -> ());
    if Gpu_sim.tblock sim <> tblock then begin
      Fmt.epr "racs: --tblock %d is deeper than the thinnest slab; the effective depth is T=%d@."
        tblock (Gpu_sim.tblock sim);
      exit 2
    end
  end;
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  (match State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz with
  | () -> ()
  | exception Invalid_argument _ ->
      Fmt.epr "racs: the room's centre (%d,%d,%d), where the impulse goes, is not an interior \
               voxel@." cx cy cz;
      exit 2);
  let rx = cx + ((nx - 2) / 4) in
  let response = Gpu_sim.run sim kernels ~steps ~receiver:(rx, cy, cz) in
  Gpu_sim.sync sim;
  Printf.printf "room %s %dx%dx%d, %d boundary points, %d steps (%s kernels, %s engine%s)\n"
    (Geometry.shape_label shape) nx ny nz (Geometry.n_boundary room) steps
    (match backend with `Hand -> "hand-written" | `Lift -> "lift-generated")
    (Harness.Autotune.engine_label engine)
    ((match shards with
     | None -> ""
     | Some _ ->
         Printf.sprintf ", %d Z-shards%s%s" (Gpu_sim.n_shards sim)
           (match Gpu_sim.schedule sim with
           | `Overlap -> ", overlapped async queues"
           | `Seq -> ", sequential schedule"
           | `Concurrent -> "")
           (if Gpu_sim.tblock sim > 1 then
              Printf.sprintf ", temporal blocks T=%d" (Gpu_sim.tblock sim)
            else "")));
  Printf.printf "receiver at (%d,%d,%d); first samples:\n " rx cy cz;
  Array.iteri (fun i v -> if i < 12 then Printf.printf " %+.5f" v) response;
  let e = Energy.kinetic_energy sim.Gpu_sim.state in
  Printf.printf "\nfinal kinetic energy %.6g, dc offset %.6g, peak |u| %.4f\n" e
    (Energy.dc_offset sim.Gpu_sim.state)
    (Energy.max_abs sim.Gpu_sim.state.State.curr);
  if show_stats then begin
    Fmt.pr "\n%a" Gpu_sim.pp_stats sim;
    (* the volume launches visit the room's points only, not their
       hulls' dead ones *)
    let visited, hull = Gpu_sim.volume_sweep sim kernels in
    let count x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.1f" x in
    Fmt.pr "volume sweep: %s of %s work items per step@." (count visited) (count hull);
    (* the process-wide compile cache: a cold run builds a step's
       kernels in one cc run, a warm rerun of the same configuration runs
       cc zero times; then the wall time cc and dlopen took *)
    if engine = `Native then begin
      let c = Vgpu.Native.counters () in
      let ms ns = float_of_int ns *. 1e-6 in
      Fmt.pr
        "native compile cache: %d cc run(s) for %d kernel(s), %d disk hit(s), %d memo hit(s), \
         cc %.1f ms, dlopen %.2f ms@."
        c.Vgpu.Native.c_compiles c.Vgpu.Native.c_kernels_built c.Vgpu.Native.c_disk_hits
        c.Vgpu.Native.c_memo_hits (ms c.Vgpu.Native.c_cc_ns) (ms c.Vgpu.Native.c_dlopen_ns)
    end;
    (* the temporal-blocking tradeoff, observable at runtime: what one
       step costs in exchange rounds, deep-halo bytes and redundantly
       recomputed frontier points under the configured block depth *)
    if shards <> None then begin
      let bs = Gpu_sim.blocked_stats sim kernels in
      Fmt.pr "temporal blocking: T=%d, %.2f exchange op(s)/step, %.1f halo bytes/step, \
              %d redundant frontier point(s)/step@."
        bs.Gpu_sim.bs_tblock bs.Gpu_sim.bs_exchanges_per_step
        bs.Gpu_sim.bs_halo_bytes_per_step bs.Gpu_sim.bs_redundant_points
    end
  end;
  if sanitize then begin
    List.iter (fun s -> Fmt.pr "%a@." Vgpu.Sanitizer.pp s) (Gpu_sim.sanitizers sim);
    match Gpu_sim.violations sim with
    | Some c when Vgpu.Sanitizer.total c > 0 -> exit 1
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* racs experiments *)

(* table4-6 are aliases of the figures that print them; [all] prints
   the model's tables and figures, not the ablations nor the measured
   kernels *)
let experiments =
  [ ("table2", `Table2); ("table3", `Table3); ("fig2", `Fig2); ("fig4", `Fig4);
    ("table4", `Fig4); ("fig5", `Fig5); ("table5", `Fig5); ("fig6", `Fig6);
    ("table6", `Fig6); ("all", `All); ("ablations", `Ablations); ("measured", `Measured) ]

let cmd_experiments = function
  | `Table2 -> Harness.Experiments.table2 ()
  | `Table3 -> Harness.Experiments.table3 ()
  | `Fig2 -> Harness.Experiments.fig2 ()
  | `Fig4 -> Harness.Experiments.fig4 ()
  | `Fig5 -> Harness.Experiments.fig5 ()
  | `Fig6 -> Harness.Experiments.fig6 ()
  | `All -> Harness.Experiments.all ()
  | `Ablations -> Harness.Experiments.ablations ()
  | `Measured -> Harness.Experiments.measured ()

(* ------------------------------------------------------------------ *)
(* racs host-demo / emit-c *)

let listing5_program () =
  let dims = Geometry.dims ~nx:64 ~ny:48 ~nz:40 in
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let tables = Material.tables ~n_branches:3 Material.defaults in
  let params = Params.default in
  let p name ty = Lift.Ast.named_param name ty in
  let open Lift.Host in
  let open Lift_acoustics.Programs in
  let next_g_p = p "next_g" grid_ty in
  let program =
    H_let
      ( next_g_p,
        ocl_kernel ~name:"volume" (volume ())
          [
            to_gpu (input (p "nbrs" nbrs_ty));
            to_gpu (input (p "prev" grid_ty));
            to_gpu (input (p "curr" grid_ty));
            to_gpu (input (p "next" grid_ty));
            H_int dims.Geometry.nx;
            H_int (dims.Geometry.nx * dims.Geometry.ny);
            H_real (Params.l2 params);
          ],
        to_host
          (write_to (input next_g_p)
             (ocl_kernel ~name:"boundary_fi_mm" (boundary_fi_mm ())
                [
                  to_gpu (input (p "bidx" bidx_ty));
                  input (p "nbrs" nbrs_ty);
                  to_gpu (input (p "material" material_ty));
                  to_gpu (input (p "beta" beta_ty));
                  input (p "prev" grid_ty);
                  input next_g_p;
                  H_real (Params.l params);
                ])) )
  in
  let sizes = function
    | "N" -> Some (Geometry.n_points dims)
    | "nB" -> Some (Geometry.n_boundary room)
    | "NM" -> Some (Array.length tables.Material.t_beta)
    | _ -> None
  in
  (program, sizes)

let listing5_compiled () =
  let program, sizes = listing5_program () in
  Lift.Host.compile ~precision:Kernel_ast.Cast.Double ~sizes program

(* Listing 5 extended to two virtual devices: per-shard kernel launches
   plus the halo exchange of the freshly written next ghost planes. *)
let sharded_host_program ?overlap () =
  let dims = Geometry.dims ~nx:64 ~ny:48 ~nz:40 in
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let plan = Shard.plan ~shards:2 room in
  let sh0 = plan.Shard.shards.(0) in
  let params = Params.default in
  let prog =
    Lift_acoustics.Programs.sharded_fi_step_host ?overlap ~nx:dims.Geometry.nx
      ~ny:dims.Geometry.ny
      ~slab_planes:(sh0.Shard.z1 - sh0.Shard.z0)
      ~l:(Params.l params) ~l2:(Params.l2 params) ~beta:0.1 ()
  in
  let sizes = function
    | "N" -> Some sh0.Shard.local_n
    | "nB" -> Some sh0.Shard.n_b
    | _ -> None
  in
  (prog, sizes)

let sharded_host_compiled () =
  let prog, sizes = sharded_host_program () in
  Lift.Host.compile ~precision:Kernel_ast.Cast.Double ~sizes prog

let cmd_host_demo sharded =
  let compiled = if sharded then sharded_host_compiled () else listing5_compiled () in
  Printf.printf "/* host program (%s) */\n%s\n"
    (if sharded then "Z-sharded two-device FI step" else "paper Listing 5")
    compiled.Lift.Host.source;
  List.iter
    (fun (c : Lift.Codegen.compiled) ->
      Printf.printf "%s\n" (Kernel_ast.Print.kernel_to_string c.Lift.Codegen.kernel))
    compiled.Lift.Host.kernels

(* Emit a complete, compilable OpenCL .c program for the Listing 5
   pipeline (cc prog.c -lOpenCL). *)
let cmd_emit_c () = print_string (Lift.Emit_c.host_program (listing5_compiled ()))

(* ------------------------------------------------------------------ *)
(* racs check: static race/bounds verdicts + host-plan lint *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let cmd_check shape nx ny nz precision engine json =
  let dims = room_dims ~nx ~ny ~nz in
  let n_materials = Array.length Material.defaults in
  let room = Geometry.build ~n_materials shape dims in
  let sim = Gpu_sim.create ~fi_beta:0.1 ~n_branches:3 Params.default room in
  let env = Gpu_sim.check_env sim in
  (* under --json, the human-readable stream is suppressed and every
     diagnostic is collected as a machine-readable issue instead *)
  let out : 'a. ('a, Format.formatter, unit) format -> 'a =
   fun fmt ->
    if json then Format.ifprintf Format.std_formatter fmt
    else Format.fprintf Format.std_formatter fmt
  in
  let jissues = ref [] in
  let jadd ~scope ~target ~severity ~code message =
    jissues := (scope, target, severity, code, message) :: !jissues
  in
  let jfps = ref [] in
  let strides = [| 1; nx; nx * ny |] in
  let unsafe = ref 0 and unproven = ref 0 in
  let check_one origin variant (k : Kernel_ast.Cast.kernel) =
    let r = Kernel_ast.Check.check env k in
    let fp = Kernel_ast.Footprint.infer ~strides env k in
    out "== %s (%s, %s) ==@.%a@.%a@." k.Kernel_ast.Cast.name origin variant
      Kernel_ast.Check.pp_report r Kernel_ast.Footprint.pp fp;
    jfps := (k.Kernel_ast.Cast.name, origin, variant, fp) :: !jfps;
    let target = Printf.sprintf "%s (%s, %s)" k.Kernel_ast.Cast.name origin variant in
    if not (Kernel_ast.Check.ok r) then begin
      incr unsafe;
      let bufs =
        String.concat ", "
          (List.map
             (fun (b : Kernel_ast.Check.buf_report) -> b.Kernel_ast.Check.b_name)
             (Kernel_ast.Check.unsafe_bufs r))
      in
      jadd ~scope:"kernel" ~target ~severity:"error" ~code:"static-unsafe"
        (Printf.sprintf "static verifier found an Unsafe verdict (buffers: %s)" bufs)
    end
    else if not (Kernel_ast.Check.fully_proven r) then begin
      incr unproven;
      jadd ~scope:"kernel" ~target ~severity:"warning" ~code:"static-unproven"
        "some verdicts are Unproven (covered by the runtime sanitizer)"
    end
  in
  List.iter
    (fun (origin, k) ->
      check_one origin "raw" k;
      let opt, _ = Kernel_ast.Opt.optimize k in
      check_one origin "optimized" opt)
    (all_kernels ~optimize:false precision);
  (* --engine native: also push every kernel (raw + optimized) through
     the C renderer, the system C compiler and dlopen, so the gate
     covers the compiled path, not just the static verdicts — both as
     lifted and in the device form Gpu_sim launches (byte nbrs).  They
     build as one batch, and a failing kernel is still named alone *)
  let native_failures = ref 0 in
  (if engine = `Native then
     let variants =
       List.concat_map
         (fun (origin, k) ->
           let dev = Gpu_sim.device_form k in
           [ (origin, "raw", k); (origin, "optimized", fst (Kernel_ast.Opt.optimize k)) ]
           @
           if dev != k then
             [
               (origin, "raw, device form", dev);
               (origin, "optimized, device form", fst (Kernel_ast.Opt.optimize dev));
             ]
           else [])
         (all_kernels ~optimize:false precision)
     in
     let results = Vgpu.Native.build (List.map (fun (_, _, k) -> k) variants) in
     List.iter2
       (fun (origin, variant, (k : Kernel_ast.Cast.kernel)) result ->
         let fail msg =
           incr native_failures;
           jadd ~scope:"kernel"
             ~target:(Printf.sprintf "%s (%s, %s)" k.Kernel_ast.Cast.name origin variant)
             ~severity:"error" ~code:"native-compile-failed" msg;
           out "== native: %s (%s, %s) ==@.  FAILED: %s@." k.Kernel_ast.Cast.name origin
             variant msg
         in
         match result with
         | Ok (_ : Vgpu.Native.compiled) ->
             out "== native: %s (%s, %s) ==@.  compiled and loaded (key %s)@."
               k.Kernel_ast.Cast.name origin variant
               (String.sub (Vgpu.Native.cache_key k) 0 12)
         | Error (Failure msg) -> fail msg
         | Error (Vgpu.Native.No_compiler cc) ->
             fail (Printf.sprintf "C compiler %S cannot be run" cc)
         | Error e -> raise e)
       variants results);
  (* host-plan lint and whole-plan dataflow verification
     (footprint-driven): the paper's host programs, plus the real
     sequential and overlapped multi-device plans of every scheme at 1-4
     shards, checked against the slab geometry they launch over *)
  let lint_errors = ref 0 in
  let lint ?(scope = "plan") label issues =
    out "== lint: %s ==@." label;
    if issues = [] then out "  clean@."
    else List.iter (fun i -> out "  %a@." Lift.Lint.pp_issue i) issues;
    List.iter
      (fun (i : Lift.Lint.issue) ->
        jadd ~scope ~target:label
          ~severity:
            (match i.Lift.Lint.severity with
            | Lift.Lint.Error -> "error"
            | Lift.Lint.Warning -> "warning")
          ~code:i.Lift.Lint.code i.Lift.Lint.message)
      issues;
    lint_errors := !lint_errors + List.length (Lift.Lint.errors issues)
  in
  lint ~scope:"host" "paper Listing 5 host program"
    (Lift.Lint.check_host (fst (listing5_program ())));
  lint ~scope:"host" "Z-sharded two-device FI step"
    (Lift.Lint.check_host (fst (sharded_host_program ())));
  lint ~scope:"host" "Z-sharded two-device FI step, event-annotated (overlap)"
    (Lift.Lint.check_host (fst (sharded_host_program ~overlap:true ())));
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  let plan_schemes =
    [
      ("fi", [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]);
      ("fi-mm",
       [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]);
      ("fd-mm",
       [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]);
    ]
  in
  (* every plan is built by Gpu_sim.plan — the ops Gpu_sim.step runs —
     for the sync and overlapped schedules, at 1-4 shards and under
     temporal blocking (depth-T ghost zones exchanged once per block);
     plans are verified, never executed, so no engine compiles here *)
  let state_bufs = [ "g1"; "v1" ] in
  List.iter
    (fun (label, kernels) ->
      List.iter
        (fun (shards, tblock) ->
          List.iter
            (fun (sname, schedule) ->
              let sim =
                Gpu_sim.create ~engine:`Interp ~shards ~schedule ~tblock ~fi_beta:0.1
                  ~n_branches:3 ~precision Params.default room
              in
              let t = Gpu_sim.tblock sim in
              let snx, sny, planes = Gpu_sim.slab_geometry sim in
              let slab = { Lift.Lint.sl_nx = snx; sl_ny = sny; sl_planes = planes } in
              let plan = Gpu_sim.plan sim kernels ~steps:(2 * t) in
              let what =
                Printf.sprintf "%s%s %s plan, %d shard(s)%s"
                  (if tblock > 1 then "blocked " else "")
                  sname label shards
                  (if tblock > 1 then Printf.sprintf ", T=%d" t else "")
              in
              lint (what ^ ", events") (Lift.Lint.check_async plan);
              lint (what ^ ", halo dataflow")
                (Lift.Lint.verify_async ~halo:t ~state_bufs slab plan))
            [ ("sync", `Seq); ("async", `Overlap) ])
        [ (1, 1); (2, 1); (3, 1); (4, 1); (2, 2); (3, 3) ])
    plan_schemes;
  out "@.%d kernel report(s) unsafe, %d unproven (sanitizer-covered), %d lint error(s)%s@."
    !unsafe !unproven !lint_errors
    (if engine = `Native then Printf.sprintf ", %d native compile failure(s)" !native_failures
     else "");
  if json then begin
    let b = Buffer.create 8192 in
    let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    p "{\n  \"issues\": [";
    List.iteri
      (fun idx (scope, target, severity, code, msg) ->
        p "%s\n    { \"scope\": \"%s\", \"target\": \"%s\", \"severity\": \"%s\", \
           \"code\": \"%s\", \"message\": \"%s\" }"
          (if idx = 0 then "" else ",")
          (json_escape scope) (json_escape target) severity (json_escape code)
          (json_escape msg))
      (List.rev !jissues);
    p "\n  ],\n  \"footprints\": [";
    let axes_json = function
      | None -> "null"
      | Some axes ->
          "["
          ^ String.concat ", "
              (Array.to_list
                 (Array.map
                    (fun (a : Kernel_ast.Footprint.axis) ->
                      Printf.sprintf "[%d, %d]" a.Kernel_ast.Footprint.ax_lo
                        a.Kernel_ast.Footprint.ax_hi)
                    axes))
          ^ "]"
    in
    List.iteri
      (fun idx (kname, origin, variant, (fp : Kernel_ast.Footprint.t)) ->
        let bufs =
          String.concat ", "
            (List.map
               (fun (fb : Kernel_ast.Footprint.buf) ->
                 Printf.sprintf
                   "{ \"name\": \"%s\", \"read\": %s, \"write\": %s, \"exact\": %b }"
                   (json_escape fb.Kernel_ast.Footprint.fb_name)
                   (axes_json (Kernel_ast.Footprint.read_rel fp fb.Kernel_ast.Footprint.fb_name))
                   (axes_json (Kernel_ast.Footprint.write_rel fp fb.Kernel_ast.Footprint.fb_name))
                   fb.Kernel_ast.Footprint.fb_exact)
               fp.Kernel_ast.Footprint.fp_bufs)
        in
        p "%s\n    { \"kernel\": \"%s\", \"origin\": \"%s\", \"variant\": \"%s\", \
           \"anchor\": %s, \"bufs\": [%s] }"
          (if idx = 0 then "" else ",")
          (json_escape kname) (json_escape origin) (json_escape variant)
          (match fp.Kernel_ast.Footprint.fp_anchor with
          | None -> "null"
          | Some a -> Printf.sprintf "\"%s\"" (json_escape a))
          bufs)
      (List.rev !jfps);
    p
      "\n  ],\n  \"summary\": { \"unsafe\": %d, \"unproven\": %d, \"lint_errors\": %d, \
       \"native_failures\": %d }\n}\n"
      !unsafe !unproven !lint_errors !native_failures;
    print_string (Buffer.contents b)
  end;
  if !unsafe > 0 || !lint_errors > 0 || !native_failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* racs tune: the measured autotuner (and, with --model, the paper's
   §VI model-only work-group sweep it grew out of) *)

let cmd_tune_model shape scheme =
  let precision = Kernel_ast.Cast.Double in
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  let kernel, kind =
    match scheme with
    | `Fi -> (Hand_kernels.fused_fi ~precision, Harness.Workloads.Fused)
    | `Fi_mm -> (Hand_kernels.boundary_fi_mm ~precision ~betas, Harness.Workloads.Boundary 0)
    | `Fd_mm -> (Hand_kernels.boundary_fd_mm ~precision ~mb:3, Harness.Workloads.Boundary 3)
    | `Volume -> (Hand_kernels.volume ~precision, Harness.Workloads.Volume)
  in
  Printf.printf "work-group tuning, %s kernel, %s rooms (model)\n\n" (scheme_name scheme)
    (Geometry.shape_label shape);
  List.iter
    (fun device ->
      List.iter
        (fun dims ->
          let w = Harness.Workloads.workload kind shape dims in
          let r = Harness.Tuner.tune ~device kernel w in
          Printf.printf "%-12s %-6s" device.Vgpu.Device.name (Geometry.size_label dims);
          List.iter
            (fun (ls, t) -> Printf.printf "  ws=%d:%.3fms" ls (t *. 1e3))
            r.Harness.Tuner.sweep;
          Printf.printf "  best=%d\n" r.Harness.Tuner.best_size)
        Geometry.paper_sizes)
    Vgpu.Device.all

let tune_result_json (r : Harness.Autotune.result) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let plan_json = Harness.Autotune.plan_json in
  let k = r.Harness.Autotune.r_key in
  let x, y, z = k.Harness.Plan_cache.k_dims in
  let e = r.Harness.Autotune.r_entry in
  p "{\n";
  p "  \"bench\": \"autotune\",\n";
  p "  \"key\": { \"scheme\": %S, \"shape\": %S, \"dims\": [%d, %d, %d], \
     \"precision\": %S, \"device\": %S, \"engine\": %S, \"digest\": %S },\n"
    k.Harness.Plan_cache.k_scheme k.Harness.Plan_cache.k_shape x y z
    k.Harness.Plan_cache.k_precision k.Harness.Plan_cache.k_device
    k.Harness.Plan_cache.k_engine k.Harness.Plan_cache.k_digest;
  p "  \"from_cache\": %b,\n" r.Harness.Autotune.r_from_cache;
  p "  \"candidates\": %d,\n" r.Harness.Autotune.r_candidates;
  p "  \"measurements\": %d,\n" r.Harness.Autotune.r_measurements;
  p "  \"winner\": %s,\n" (plan_json e.Harness.Plan_cache.e_plan);
  p "  \"winner_predicted_ns\": %.0f,\n" (e.Harness.Plan_cache.e_predicted_s *. 1e9);
  p "  \"winner_measured_ns\": %.0f,\n" (e.Harness.Plan_cache.e_measured_s *. 1e9);
  p "  \"default_measured_ns\": %.0f,\n" (e.Harness.Plan_cache.e_default_s *. 1e9);
  p "  \"samples\": %d,\n" e.Harness.Plan_cache.e_samples;
  p "  \"evaluated\": [\n";
  let n = List.length r.Harness.Autotune.r_evaluated in
  List.iteri
    (fun i (m : Harness.Autotune.measured) ->
      p
        "    { \"plan\": %s, \"predicted_ns\": %.0f, \"measured_ns\": %.0f, \
         \"bit_identical\": %b }%s\n"
        (plan_json m.Harness.Autotune.m_plan)
        (m.Harness.Autotune.m_predicted_s *. 1e9)
        (m.Harness.Autotune.m_measured_s *. 1e9)
        m.Harness.Autotune.m_identical
        (if i = n - 1 then "" else ","))
    r.Harness.Autotune.r_evaluated;
  p "  ]\n}\n";
  Buffer.contents b

let cmd_tune shape scheme nx ny nz engine json smoke no_cache model max_shards topk
    repeats steps warmup =
  List.iter
    (fun (flag, floor, v) ->
      if v < floor then begin
        Fmt.epr "racs: %s expects at least %d, got %d@." flag floor v;
        exit 2
      end)
    [ ("--steps", 1, steps); ("--repeats", 1, repeats); ("--warmup", 0, warmup);
      ("--topk", 0, topk); ("--max-shards", 1, max_shards) ];
  if model then cmd_tune_model shape scheme
  else begin
    if scheme = `Volume then begin
      Fmt.epr "racs: --scheme volume is a model-only sweep; add --model@.";
      exit 2
    end;
    let scheme = scheme_name scheme in
    (* --smoke: a small room and short measurement intervals — enough to
       exercise the full pipeline (and warm the cache) in CI seconds *)
    let dims, topk, repeats, steps, warmup =
      if smoke then (Geometry.dims ~nx:16 ~ny:12 ~nz:10, 4, 2, 4, 1)
      else (room_dims ~nx ~ny ~nz, topk, repeats, steps, warmup)
    in
    let r =
      Harness.Autotune.tune ~engine ~topk ~warmup ~repeats ~steps ~max_shards
        ~use_cache:(not no_cache) ~scheme ~shape ~dims ()
    in
    if json then print_string (tune_result_json r)
    else begin
      let e = r.Harness.Autotune.r_entry in
      Printf.printf
        "autotune: %s %s %dx%dx%d (%s engine): %d candidates, %d pruned in, %d measured%s\n"
        scheme (Geometry.shape_label shape) dims.Geometry.nx dims.Geometry.ny
        dims.Geometry.nz
        (Harness.Autotune.engine_label engine)
        r.Harness.Autotune.r_candidates
        (List.length r.Harness.Autotune.r_evaluated)
        r.Harness.Autotune.r_measurements
        (if r.Harness.Autotune.r_from_cache then " (warm plan cache)" else "");
      if r.Harness.Autotune.r_evaluated <> [] then begin
        Printf.printf "%-44s %14s %14s %6s\n" "plan" "predicted ns" "measured ns" "ident";
        List.iter
          (fun (m : Harness.Autotune.measured) ->
            Printf.printf "%-44s %14.0f %14.0f %6b\n"
              (Harness.Autotune.plan_label m.Harness.Autotune.m_plan)
              (m.Harness.Autotune.m_predicted_s *. 1e9)
              (m.Harness.Autotune.m_measured_s *. 1e9)
              m.Harness.Autotune.m_identical)
          r.Harness.Autotune.r_evaluated
      end;
      Printf.printf "winner: %s\n"
        (Harness.Autotune.plan_label e.Harness.Plan_cache.e_plan);
      Printf.printf
        "  measured %.0f ns/step vs default %.0f ns/step (%.2fx), predicted %.0f ns/step\n"
        (e.Harness.Plan_cache.e_measured_s *. 1e9)
        (e.Harness.Plan_cache.e_default_s *. 1e9)
        (e.Harness.Plan_cache.e_measured_s /. e.Harness.Plan_cache.e_default_s)
        (e.Harness.Plan_cache.e_predicted_s *. 1e9);
      if not no_cache then
        Printf.printf "plan cache: %s\n" (Harness.Plan_cache.cache_dir ())
    end
  end

(* ------------------------------------------------------------------ *)

let precision_arg =
  Arg.(value & opt precision_conv Kernel_ast.Cast.Double & info [ "precision" ] ~doc:"single or double")

let no_opt_arg =
  Arg.(
    value & flag
    & info [ "no-opt" ] ~doc:"disable the kernel-AST optimizer pipeline (CSE, LICM, unrolling)")

let kernels_cmd =
  Cmd.v (Cmd.info "kernels" ~doc:"Dump generated and hand-written OpenCL kernels")
    Term.(const cmd_kernels $ precision_arg $ no_opt_arg)

let simulate_cmd =
  let shape = Arg.(value & opt shape_conv Geometry.Box & info [ "shape" ] ~doc:"box, dome or l-shape") in
  let nx = Arg.(value & opt int 40 & info [ "nx" ]) in
  let ny = Arg.(value & opt int 32 & info [ "ny" ]) in
  let nz = Arg.(value & opt int 24 & info [ "nz" ]) in
  let scheme =
    Arg.(
      value
      & opt (enum schemes) `Fd_mm
      & info [ "scheme" ] ~doc:("boundary scheme: " ^ doc_alts_enum schemes))
  in
  let steps = Arg.(value & opt int 200 & info [ "steps" ]) in
  let backend_conv =
    Arg.conv
      ( (function
        | "hand" -> Ok `Hand
        | "lift" -> Ok `Lift
        | s -> Error (`Msg (Printf.sprintf "unknown backend %s" s))),
        fun ppf b -> Fmt.string ppf (match b with `Hand -> "hand" | `Lift -> "lift") )
  in
  let backend =
    Arg.(value & opt backend_conv `Lift & info [ "backend" ] ~doc:"hand or lift")
  in
  let engine =
    Arg.(
      value & opt engine_conv `Native
      & info [ "engine" ]
          ~doc:
            "virtual-GPU engine: native (compiled C; the interpreter when no C compiler \
             can be run) or interp (the reference interpreter)")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ]
          ~doc:"Z-shard the grid over this many virtual devices (0 = single device)")
  in
  let tblock =
    Arg.(
      value & opt int 1
      & info [ "tblock" ] ~docv:"T"
          ~doc:
            "sharded runs: temporal block depth — allocate depth-T ghost zones, \
             recompute frontier planes redundantly, and exchange halos once per T steps \
             instead of every step (bit-identical results; at most the thinnest slab)")
  in
  let overlap =
    Arg.(
      value & flag
      & info [ "overlap" ]
          ~doc:
            "sharded runs: per-device in-order queues with an interior/frontier split, \
             executed on the host thread — on the virtual timeline halo exchanges overlap \
             interior compute and steps pipeline (bit-identical results; --stats reports \
             the critical path; combines with --sanitize)")
  in
  let no_overlap =
    Arg.(
      value & flag
      & info [ "no-overlap" ]
          ~doc:"sharded runs: force the strictly sequential per-device schedule")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"print per-kernel launch statistics")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "run on the shadow-memory checked interpreter (races, OOB, uninitialised \
             reads); nonzero exit on any violation")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"statically verify every launched kernel first (fail fast on Unsafe)")
  in
  let tuned =
    Arg.(
      value & flag
      & info [ "tuned" ]
          ~doc:
            "run the autotuner's cached best plan for this workload (unroll budget, \
             shards, schedule, block depth — overrides --backend/--shards); tunes first \
             if the plan cache is cold")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run an impulse-response simulation")
    Term.(
      const cmd_simulate $ shape $ nx $ ny $ nz $ scheme $ steps $ backend $ engine
      $ shards $ tblock $ overlap $ no_overlap $ no_opt_arg $ stats $ sanitize $ verify
      $ tuned)

let experiments_cmd =
  let which =
    Arg.(
      value
      & pos 0 (enum experiments) `All
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("the table or figure to regenerate, " ^ doc_alts_enum experiments
           ^ "; $(b,all) is every model table and figure, $(b,ablations) the FD-MM model \
              ablations, $(b,measured) the hand-written and Lift kernels timed on this host"))
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate paper tables/figures")
    Term.(const cmd_experiments $ which)

let host_demo_cmd =
  let sharded =
    Arg.(
      value & flag
      & info [ "sharded" ] ~doc:"show the Z-sharded two-device step instead")
  in
  Cmd.v (Cmd.info "host-demo" ~doc:"Show the compiled host program of paper Listing 5")
    Term.(const cmd_host_demo $ sharded)

let check_cmd =
  let shape = Arg.(value & opt shape_conv Geometry.Box & info [ "shape" ] ~doc:"box, dome or l-shape") in
  let nx = Arg.(value & opt int 40 & info [ "nx" ]) in
  let ny = Arg.(value & opt int 32 & info [ "ny" ]) in
  let nz = Arg.(value & opt int 24 & info [ "nz" ]) in
  let engine =
    Arg.(
      value & opt engine_conv `Interp
      & info [ "engine" ]
          ~doc:"with native, also compile every kernel through the C backend (cc + dlopen)")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "machine-readable JSON on stdout: every diagnostic as an issue object \
             (scope, target, severity, code, message) plus per-kernel footprints; \
             nonzero exit on error-severity issues")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static race/bounds verdicts and stencil footprints for every kernel (raw + \
          optimized), host-plan lint, and footprint-driven halo/dataflow \
          verification of the 1-4-shard sync and async plans; nonzero exit on Unsafe or \
          lint errors")
    Term.(const cmd_check $ shape $ nx $ ny $ nz $ precision_arg $ engine $ json)

let tune_cmd =
  let shape = Arg.(value & opt shape_conv Geometry.Box & info [ "shape" ] ~doc:"box, dome or l-shape") in
  let scheme =
    Arg.(
      value
      & opt (enum tune_schemes) `Fd_mm
      & info [ "scheme" ]
          ~doc:("boundary scheme: " ^ doc_alts_enum schemes ^ " (with --model also $(b,volume))"))
  in
  let nx = Arg.(value & opt int 24 & info [ "nx" ]) in
  let ny = Arg.(value & opt int 20 & info [ "ny" ]) in
  let nz = Arg.(value & opt int 16 & info [ "nz" ]) in
  let engine =
    Arg.(
      value & opt engine_conv `Native
      & info [ "engine" ] ~doc:"engine to measure on: native or interp")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON on stdout") in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"small room, short measurement intervals — the CI configuration")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"bypass the plan cache: always search, never persist")
  in
  let model =
    Arg.(
      value & flag
      & info [ "model" ]
          ~doc:
            "model-only work-group sweep per paper device and room (the paper §VI \
             protocol; no measurement, no cache)")
  in
  let max_shards =
    Arg.(
      value & opt int 2
      & info [ "max-shards" ]
          ~doc:
            "largest shard count to consider; a shard count above the room's Z planes, or \
             a block depth deeper than the thinnest slab, is not a candidate")
  in
  let topk =
    Arg.(value & opt int 8 & info [ "topk" ] ~doc:"candidates surviving the model pruning")
  in
  let repeats =
    Arg.(value & opt int 5 & info [ "repeats" ] ~doc:"timed intervals per candidate (median)")
  in
  let steps = Arg.(value & opt int 20 & info [ "steps" ] ~doc:"simulation steps per interval") in
  let warmup = Arg.(value & opt int 2 & info [ "warmup" ] ~doc:"untimed warmup steps") in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Measured autotuning over unroll budget x shards x schedule x temporal block \
          depth, with a persistent best-plan cache (racs simulate --tuned replays the \
          winner); the work-group size is searched by the model only (see --model)")
    Term.(
      const cmd_tune $ shape $ scheme $ nx $ ny $ nz $ engine $ json $ smoke $ no_cache
      $ model $ max_shards $ topk $ repeats $ steps $ warmup)

let emit_c_cmd =
  Cmd.v
    (Cmd.info "emit-c"
       ~doc:"Emit a complete OpenCL .c program for the Listing 5 pipeline")
    Term.(const cmd_emit_c $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "racs" ~version:"1.0.0"
             ~doc:"Room acoustics simulations with complex boundary conditions via Lift-style code generation")
          [ kernels_cmd; simulate_cmd; check_cmd; experiments_cmd; host_demo_cmd;
            emit_c_cmd; tune_cmd ]))
