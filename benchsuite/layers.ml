(* Direct timings of each compile layer on a workload's own kernels, the
   STREAM-triad host roofline, and the computed-bytes kernel model.
   Used by the traced run only. *)

module Cast = Kernel_ast.Cast
module Native = Vgpu.Native

let now = Host.now
let ms f = snd (Sim.timed f) *. 1e3

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* {2 Native binary cache directories}

   The warm cache lives under the working directory (the benchmark only
   writes inside its checkout); a cold set-up gets a fresh empty
   directory that is removed afterwards. *)

let cache_root () = Filename.concat (Sys.getcwd ()) ".bench_cache"
let warm_dir () = Filename.concat (cache_root ()) "native"
let fresh = ref 0

let with_cold_cache f =
  incr fresh;
  let dir = Filename.concat (cache_root ()) (Printf.sprintf "cold-%d-%d" (Unix.getpid ()) !fresh) in
  remove_tree dir;
  Native.set_cache_dir dir;
  Native.reset_memo ();
  Fun.protect
    ~finally:(fun () ->
      Native.set_cache_dir (warm_dir ());
      remove_tree dir)
    f

(* {2 Compile pipeline, layer by layer} *)

type compile_layers = {
  codegen_ms : float;
  optimize_ms : float;
  nodes_before : int;
  nodes_after : int;
  check_ms : float;
  footprint_ms : float;
  render_ms : float;
  source_bytes : int;
  cc_ms : float;
  load_ms : float;
  cc_runs : int;  (** cc runs building the kernels into an empty cache *)
}

(* The kernels of [schemes].  [env] resolves the launch parameters of
   the workload's simulation (see {!Acoustics.Gpu_sim.check_env});
   [nx]/[ny] give the grid strides for footprint inference. *)
let compile_layers ?tr ~schemes ~env ~nx ~ny () =
  let span name f = Trace.span tr name f in
  let kernels, codegen_s =
    span "lift.codegen" (fun () -> Sim.timed (fun () -> List.concat_map Sim.lift_kernels schemes))
  in
  let opt =
    List.map
      (fun k -> span "opt.optimize" (fun () -> Sim.timed (fun () -> Kernel_ast.Opt.optimize k)))
      kernels
  in
  let optimized = List.map (fun (((k : Cast.kernel), _), _) -> k) opt in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let check_ms =
    sum (fun k -> ms (fun () -> span "check.check" (fun () -> Kernel_ast.Check.check env k))) optimized
  in
  let strides = [| 1; nx; nx * ny |] in
  let footprint_ms =
    sum
      (fun k -> ms (fun () -> span "footprint.infer" (fun () -> Kernel_ast.Footprint.infer ~strides env k)))
      optimized
  in
  let sources =
    List.map
      (fun k -> span "native_c.kernel_source" (fun () -> Sim.timed (fun () -> Native.source k)))
      optimized
  in
  let cc_ms, load_ms, counters =
    with_cold_cache (fun () ->
        Native.reset_counters ();
        let cc = sum (fun k -> ms (fun () -> span "native.compile" (fun () -> Native.compile k))) optimized in
        Native.reset_memo ();
        let load = sum (fun k -> ms (fun () -> span "native.load" (fun () -> Native.compile k))) optimized in
        (cc, load, Native.counters ()))
  in
  {
    codegen_ms = codegen_s *. 1e3;
    optimize_ms = sum (fun (_, t) -> t *. 1e3) opt;
    nodes_before = isum (fun ((_, (r : Kernel_ast.Opt.report)), _) -> r.nodes_before) opt;
    nodes_after = isum (fun ((_, (r : Kernel_ast.Opt.report)), _) -> r.nodes_after) opt;
    check_ms;
    footprint_ms;
    render_ms = sum (fun (_, t) -> t *. 1e3) sources;
    source_bytes = isum (fun (s, _) -> String.length s) sources;
    cc_ms;
    load_ms;
    cc_runs = counters.Native.c_compiles;
  }

(* {2 Host roofline: a generated STREAM triad on the native engine} *)

let triad_kernel : Cast.kernel =
  let open Cast in
  let i = var "i" in
  {
    name = "stream_triad";
    params =
      [
        param "a" Real;
        param "b" Real;
        param "c" Real;
        param ~kind:Scalar_param "s" Real;
        param ~kind:Scalar_param "n" Int;
      ];
    body =
      [
        Decl (Int, "i", Some (Global_id 0));
        If (i <: var "n", [ Store ("a", i, load "b" i +: (var "s" *: load "c" i)) ], []);
      ];
    precision = Double;
    global_size = [ var "n" ];
    local_size = [];
  }

type roofline = {
  triad_gbps : float;  (** 3 arrays x 8 bytes x n / median launch time *)
  array_bytes : int;
  triad_ok : bool;  (** every element equals b + s*c computed in OCaml *)
}

(* Arrays of [n] doubles each: the workload's grid size.  At least
   [min_launches] timed launches and at least [min_s] seconds. *)
let roofline ?tr ~n ~min_launches ~min_s () =
  Trace.span tr "roofline.triad" (fun () ->
      let a = Array.make n 0. in
      let b = Array.init n (fun i -> float_of_int (i land 1023) *. 0.5) in
      let c = Array.init n (fun i -> float_of_int (i land 511) *. 0.25) in
      let s = 3. in
      let compiled = Native.compile triad_kernel in
      let buf x = Vgpu.Args.Buf (Vgpu.Buffer.F x) in
      let args = [ buf a; buf b; buf c; Vgpu.Args.Real_arg s; Vgpu.Args.Int_arg n ] in
      let launch () = Native.launch compiled ~args ~global:[ n ] in
      launch ();
      let t0 = now () in
      let rec go acc k =
        if k >= min_launches && now () -. t0 >= min_s then acc
        else go (snd (Sim.timed launch) :: acc) (k + 1)
      in
      let times = go [] 0 in
      let ok = ref true in
      Array.iteri (fun i x -> if x <> b.(i) +. (s *. c.(i)) then ok := false) a;
      {
        triad_gbps = 24. *. float_of_int n /. Stat.median times /. 1e9;
        array_bytes = 8 * n;
        triad_ok = !ok;
      })

(* Last-level cache size from sysfs, in bytes (0 when unreadable).  On
   a shared host this cache serves every tenant: it is a cache figure,
   not a DRAM bandwidth or capacity. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let read entry file =
    match open_in (Filename.concat dir (Filename.concat entry file)) with
    | exception Sys_error _ -> ""
    | ic ->
        let l = try String.trim (input_line ic) with End_of_file -> "" in
        close_in ic;
        l
  in
  let bytes s =
    let n = String.length s in
    let scaled k = Option.map (( * ) k) (int_of_string_opt (String.sub s 0 (n - 1))) in
    if n = 0 then None
    else match s.[n - 1] with 'K' -> scaled 1024 | 'M' -> scaled (1024 * 1024) | _ -> int_of_string_opt s
  in
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun e ->
         match (int_of_string_opt (read e "level"), bytes (read e "size")) with
         | Some level, Some b -> Some (level, b)
         | _ -> None)
  |> List.fold_left max (0, 0)
  |> snd

(* {2 Computed kernel bytes (Perf_model on Device.host)} *)

type kclass = Volume | Boundary

let kclass name =
  if name = "volume" then Some Volume
  else if String.starts_with ~prefix:"boundary" name then Some Boundary
  else None

(* Coefficient tables: the only buffers the byte count lets the model
   treat as cache-resident. *)
let tables = [ "beta"; "beta_fd"; "bi"; "d"; "f"; "di" ]

(* Per kernel class of the configuration: computed bytes per step and
   the predicted seconds per step on [Device.host].  Bytes come from the
   optimized AST and the room's point counts, not from a measurement.
   They count every per-point array as streamed (a buffer of unknown
   size is streamed by the model): the model would call a small room's
   grids cache-resident and free, while the roofline they are compared
   with runs on arrays of the same size.  The prediction is the model's
   own, unchanged. *)
let model (cfg : Sim.config) kernels =
  List.filter_map
    (fun (k : Cast.kernel) ->
      match kclass k.name with
      | None -> None
      | Some cls ->
          let kind : Harness.Workloads.kind =
            match (cls, cfg.scheme) with
            | Volume, _ -> Volume
            | Boundary, Sim.Fd_mm -> Boundary Sim.n_branches
            | Boundary, _ -> Boundary 0
          in
          let w = Harness.Workloads.workload kind cfg.shape cfg.dims in
          let streamed =
            { w with buffer_elems = List.filter (fun (b, _) -> List.mem b tables) w.buffer_elems }
          in
          let predict = Vgpu.Perf_model.predict_breakdown Vgpu.Device.host k in
          let bytes = (predict streamed).bytes_per_point *. w.active_points in
          Some (cls, (bytes, (predict w).total_s)))
    kernels
