(* One generator per table/figure of the paper's evaluation (§VI-VII).

   Every experiment compares the Lift-generated kernel against the
   hand-written kernel on the four GPUs of Table III, across the three
   room sizes of Table II, in single and double precision, through the
   analytic performance model fed by static analysis of the actual
   kernel ASTs.  Where the paper reports numbers (appendix tables) they
   are printed side by side and a shape-agreement summary is computed. *)

open Acoustics

type version =
  | Hand
  | Lift_gen

let version_label = function Hand -> "OpenCL" | Lift_gen -> "LIFT"

type result_row = {
  platform : string;
  version : version;
  size : int;
  shape : Geometry.shape;
  precision : Kernel_ast.Cast.precision;
  model_s : float;       (* predicted kernel time, seconds *)
  paper_ms : float option;
  throughput : float;    (* updates per second *)
}

let precision_label : Kernel_ast.Cast.precision -> string = function
  | Single -> "single"
  | Double -> "double"

let dims_label (d : Geometry.dims) = Printf.sprintf "%dx%dx%d" d.nx d.ny d.nz
let devices = Vgpu.Device.all
let sizes = Geometry.paper_sizes
let precisions = [ Kernel_ast.Cast.Single; Kernel_ast.Cast.Double ]

let betas_default = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

(* Kernel selection per experiment and version. *)
let fused_kernel version precision =
  match version with
  | Hand -> Hand_kernels.fused_fi ~precision
  | Lift_gen ->
      (Lift_acoustics.Programs.compile ~name:"fused_fi" ~precision
         (Lift_acoustics.Programs.fused_fi ()))
        .Lift.Codegen.kernel

let fi_mm_kernel version precision =
  match version with
  | Hand -> Hand_kernels.boundary_fi_mm ~precision ~betas:betas_default
  | Lift_gen ->
      (Lift_acoustics.Programs.compile ~name:"boundary_fi_mm" ~precision
         (Lift_acoustics.Programs.boundary_fi_mm ()))
        .Lift.Codegen.kernel

(* [staging] and [layout] pick a Lift variant (the ablations) *)
let fd_mm_kernel ?staging ?layout ~mb version precision =
  match version with
  | Hand -> Hand_kernels.boundary_fd_mm ~precision ~mb
  | Lift_gen ->
      (Lift_acoustics.Programs.compile ~name:"boundary_fd_mm" ~precision
         (Lift_acoustics.Programs.boundary_fd_mm ?staging ?layout ~mb ()))
        .Lift.Codegen.kernel

let volume_kernel version precision =
  match version with
  | Hand -> Hand_kernels.volume ~precision
  | Lift_gen ->
      (Lift_acoustics.Programs.compile ~name:"volume" ~precision
         (Lift_acoustics.Programs.volume ()))
        .Lift.Codegen.kernel

let paper_version = function Hand -> Paper_data.OpenCL | Lift_gen -> Paper_data.Lift

let lookup_paper table ~platform ~version ~size ~shape ~precision =
  match Paper_data.find table ~platform ~version:(paper_version version) ~size
          ~shape:(Geometry.shape_label shape)
  with
  | Some r -> Some (match precision with Kernel_ast.Cast.Single -> r.Paper_data.single_ms | Double -> r.double_ms)
  | None -> None

(* Evaluate one (kernel-kind, kernel-builder) over the full matrix. *)
let matrix ?(shapes = [ Geometry.Box; Geometry.Dome ]) ~kind ~kernel_of ~paper_table () :
    result_row list =
  List.concat_map
    (fun (device : Vgpu.Device.t) ->
      List.concat_map
        (fun shape ->
          List.concat_map
            (fun dims ->
              List.concat_map
                (fun precision ->
                  List.map
                    (fun version ->
                      let kernel = kernel_of version precision in
                      let w = Workloads.workload kind shape dims in
                      (* the paper hand-tunes each cell by workgroup size *)
                      let model_s = Tuner.tuned_time ~device kernel w in
                      let updates = Workloads.updates kind shape dims in
                      {
                        platform = device.Vgpu.Device.name;
                        version;
                        size = dims.Geometry.nx;
                        shape;
                        precision;
                        model_s;
                        paper_ms =
                          Option.bind paper_table (fun t ->
                              lookup_paper t ~platform:device.Vgpu.Device.name ~version
                                ~size:dims.Geometry.nx ~shape ~precision);
                        throughput = updates /. model_s;
                      })
                    [ Hand; Lift_gen ])
                precisions)
            sizes)
        shapes)
    devices

let print_rows ~title rows =
  let headers =
    [ "platform"; "version"; "size"; "shape"; "prec"; "model ms"; "paper ms"; "Gupd/s" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.platform;
          version_label r.version;
          string_of_int r.size;
          Geometry.shape_label r.shape;
          precision_label r.precision;
          Report.ms r.model_s;
          Report.opt_ms r.paper_ms;
          Report.gups r.throughput;
        ])
      rows
  in
  Report.print_table ~title ~headers body

(* Shape agreement: over (platform, size, shape, precision) cells where
   the paper reports both versions, does the model agree on who wins
   (within a 3% tie band)?  Also reports the median |log-ratio| between
   model and paper times. *)
let agreement rows =
  let cells = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key = (r.platform, r.size, r.shape, r.precision) in
      let prev = try Hashtbl.find cells key with Not_found -> [] in
      Hashtbl.replace cells key (r :: prev))
    rows;
  let wins_agree = ref 0 and wins_total = ref 0 in
  let log_ratios = ref [] in
  Hashtbl.iter
    (fun _ rs ->
      match rs with
      | [ a; b ] -> (
          let hand, lift = if a.version = Hand then (a, b) else (b, a) in
          (match (hand.paper_ms, lift.paper_ms) with
          | Some ph, Some pl ->
              let tie_band = 0.03 in
              let paper_ratio = pl /. ph and model_ratio = lift.model_s /. hand.model_s in
              let sign r = if r > 1. +. tie_band then 1 else if r < 1. -. tie_band then -1 else 0 in
              incr wins_total;
              if sign paper_ratio = sign model_ratio || sign paper_ratio = 0 || sign model_ratio = 0
              then incr wins_agree
          | _ -> ());
          List.iter
            (fun r ->
              match r.paper_ms with
              | Some p when p > 0. ->
                  log_ratios := Float.abs (log (r.model_s *. 1e3 /. p)) :: !log_ratios
              | _ -> ())
            [ hand; lift ])
      | _ -> ())
    cells;
  let median l =
    match List.sort compare l with
    | [] -> nan
    | l -> List.nth l (List.length l / 2)
  in
  (!wins_agree, !wins_total, median !log_ratios)

let print_agreement ~label rows =
  let agree, total, med = agreement rows in
  if total > 0 then
    Printf.printf
      "%s: who-wins agreement (|tie|<=3%%) %d/%d cells; median |log(model/paper)| = %.2f (x%.2f)\n"
      label agree total med (exp med)

(* ------------------------------------------------------------------ *)
(* The experiments *)

(* Table II: room sizes and boundary points. *)
let table2 () =
  let rows =
    List.concat_map
      (fun (dims : Geometry.dims) ->
        let paper =
          List.find_opt
            (fun (r : Paper_data.room_row) ->
              let x, y, z = r.Paper_data.dims in
              x = dims.Geometry.nx && y = dims.ny && z = dims.nz)
            Paper_data.table2
        in
        List.map
          (fun shape ->
            let s = Workloads.stats shape dims in
            let paper_pts =
              match (paper, shape) with
              | Some p, Geometry.Dome -> string_of_int p.Paper_data.dome_pts
              | Some p, Geometry.Box -> string_of_int p.Paper_data.box_pts
              | Some _, Geometry.L_shape | None, _ -> "-"
            in
            [
              dims_label dims;
              Geometry.shape_label shape;
              string_of_int s.Geometry.s_inside;
              string_of_int s.Geometry.s_boundary;
              paper_pts;
              Printf.sprintf "%.3f" s.Geometry.s_contiguity;
            ])
          [ Geometry.Dome; Geometry.Box ])
      sizes
  in
  Report.print_table ~title:"Table II: rooms (ours vs paper boundary points)"
    ~headers:[ "dims"; "shape"; "inside"; "boundary"; "paper b.pts"; "contiguity" ]
    rows

(* Table III: platforms. *)
let table3 () =
  let rows =
    List.map
      (fun (d : Vgpu.Device.t) ->
        [
          d.name;
          (match d.vendor with
          | Vgpu.Device.Nvidia -> "NVIDIA"
          | Amd -> "AMD"
          | Host -> "CPU");
          Printf.sprintf "%.0f" d.mem_bw_gb_s;
          Printf.sprintf "%.0f" d.sp_gflops;
          Printf.sprintf "%.0f" (d.sp_gflops *. d.dp_ratio);
        ])
      devices
  in
  Report.print_table ~title:"Table III: platforms"
    ~headers:[ "platform"; "vendor"; "GB/s"; "SP GFLOPS"; "DP GFLOPS" ]
    rows

(* Figure 4 / Table IV: naive FI, box rooms only, full stencil kernel. *)
let fig4 () =
  let rows =
    matrix ~shapes:[ Geometry.Box ] ~kind:Workloads.Fused ~kernel_of:fused_kernel
      ~paper_table:(Some Paper_data.table4) ()
  in
  print_rows ~title:"Figure 4 / Table IV: FI (fused stencil+boundary), box" rows;
  print_agreement ~label:"fig4" rows

(* Figure 5 / Table V: FI-MM boundary handling kernel. *)
let fig5 () =
  let rows =
    matrix ~kind:(Workloads.Boundary 0) ~kernel_of:fi_mm_kernel
      ~paper_table:(Some Paper_data.table5) ()
  in
  print_rows ~title:"Figure 5 / Table V: FI-MM boundary handling" rows;
  print_agreement ~label:"fig5" rows

(* Figure 6 / Table VI: FD-MM boundary handling kernel, 3 branches. *)
let fig6 () =
  let rows =
    matrix ~kind:(Workloads.Boundary 3) ~kernel_of:(fd_mm_kernel ~mb:3)
      ~paper_table:(Some Paper_data.table6) ()
  in
  print_rows ~title:"Figure 6 / Table VI: FD-MM boundary handling (MB=3)" rows;
  print_agreement ~label:"fig6" rows

(* Figure 2: fraction of a full simulation step spent in the boundary
   kernel, hand-written kernels on the GTX 780. *)
let fig2 () =
  let device = Vgpu.Device.gtx780 in
  let precision = Kernel_ast.Cast.Double in
  let volume_k = Hand_kernels.volume ~precision in
  let rows =
    List.concat_map
      (fun shape ->
        List.concat_map
          (fun (algo, mb, kernel) ->
            List.map
              (fun dims ->
                let wv = Workloads.workload Workloads.Volume shape dims in
                let wb = Workloads.workload (Workloads.Boundary mb) shape dims in
                let tv = Tuner.tuned_time ~device volume_k wv in
                let tb = Tuner.tuned_time ~device kernel wb in
                [
                  Geometry.shape_label shape;
                  algo;
                  Geometry.size_label dims;
                  Report.ms tv;
                  Report.ms tb;
                  Report.pct (tb /. (tv +. tb));
                ])
              sizes)
          [
            ("FI-MM", 0, Hand_kernels.boundary_fi_mm ~precision ~betas:betas_default);
            ("FD-MM", 3, Hand_kernels.boundary_fd_mm ~precision ~mb:3);
          ])
      [ Geometry.Box; Geometry.Dome ]
  in
  Report.print_table
    ~title:"Figure 2: boundary handling share of step time (GTX780, hand-written)"
    ~headers:[ "shape"; "algo"; "size"; "volume ms"; "boundary ms"; "% boundary" ]
    rows

let all () =
  table2 ();
  table3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig2 ()

(* ------------------------------------------------------------------ *)
(* Outside [all]: the FD-MM design ablations, and kernels measured here *)

(* The design choices DESIGN.md calls out, through the model: private
   staging of the FD branch state vs re-reading global memory,
   branch-major vs point-major state layout, and boundary-index
   contiguity (sorted vs scattered indices, via the coalescing
   factor). *)
let ablations () =
  let device = Vgpu.Device.gtx780 and dims = List.hd sizes in
  Printf.printf "\n== Ablations: FD-MM boundary kernel (model, %s, %s box, double) ==\n"
    device.Vgpu.Device.name (dims_label dims);
  let w = Workloads.workload (Workloads.Boundary 3) Geometry.Box dims in
  let lift ?staging ?layout () =
    fd_mm_kernel ?staging ?layout ~mb:3 Lift_gen Kernel_ast.Cast.Double
  in
  List.iter
    (fun (label, k) ->
      let c = Kernel_ast.Analysis.kernel_counts k in
      Printf.printf "%-38s model %7.3f ms   (%2.0f loads, %2.0f stores / update)\n" label
        (Vgpu.Perf_model.predict device k w *. 1e3)
        (Kernel_ast.Analysis.total_loads c)
        (Kernel_ast.Analysis.total_stores c))
    [
      ("private staging, branch-major (paper)", lift ());
      ("global re-reads, branch-major", lift ~staging:`Global ());
      ("private staging, point-major", lift ~layout:`Point_major ());
    ];
  let k = lift () in
  List.iter
    (fun (label, contiguity) ->
      Printf.printf "%-38s model %7.3f ms\n" label
        (Vgpu.Perf_model.predict device k { w with Vgpu.Perf_model.contiguity } *. 1e3))
    [
      ("boundary indices sorted (box: 0.78)", 0.78);
      ("boundary indices shuffled (0.0)", 0.0);
      ("perfectly contiguous (1.0)", 1.0);
    ]

let measured_dims = Geometry.dims ~nx:48 ~ny:40 ~nz:32
let measured_rounds = 101
let measured_warmup = 10

(* A simulation of [kernels] on the measured box, impulse at the centre;
   its first step builds the kernels in one batch and prepares their
   launches. *)
let measured_sim kernels =
  let room = Geometry.build ~n_materials:Workloads.n_materials Geometry.Box measured_dims in
  let sim = Gpu_sim.create ~fi_beta:0.1 ~n_branches:3 Params.default room in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  Gpu_sim.step sim kernels;
  sim

(* Each thunk's median time in seconds over [measured_rounds] rounds,
   timed on [Vgpu.Clock] after [measured_warmup] untimed rounds.  A
   round runs every thunk once, forward on even rounds and backward on
   odd ones, so the variants of a kernel interleave and none always goes
   first. *)
let medians thunks =
  let n = Array.length thunks in
  let samples = Array.make_matrix n measured_rounds 0 in
  for r = -measured_warmup to measured_rounds - 1 do
    for j = 0 to n - 1 do
      let i = if r land 1 = 0 then j else n - 1 - j in
      let t0 = Vgpu.Clock.now_ns () in
      thunks.(i) ();
      let dt = Vgpu.Clock.now_ns () - t0 in
      if r >= 0 then samples.(i).(r) <- dt
    done
  done;
  Array.map
    (fun a ->
      Array.sort compare a;
      float_of_int a.(measured_rounds / 2) *. 1e-9)
    samples

(* The paper's headline comparison on this host: the hand-written and
   the Lift-generated kernels on the native engine, next to the
   pure-OCaml reference — the fused FI step (Table IV), then single
   launches of the volume kernel and of the FI-MM and FD-MM boundary
   kernels (Tables V and VI), each in a simulation that steps volume +
   boundary.  A single launch repeats on a fixed state: the volume
   kernel rewrites [next] from [prev] and [curr].  Then Figure 2's
   boundary share of a step, from the hand-written medians, and the
   FD-MM staging ablation on the Lift kernel. *)
let measured () =
  let precision = Kernel_ast.Cast.Double and params = Params.default and dims = measured_dims in
  (* per version: the fused step, then the volume, FI-MM and FD-MM
     launches, and the FD-MM simulation *)
  let launches v =
    let fused = [ fused_kernel v precision ] and volume = volume_kernel v precision in
    let fi_mm = fi_mm_kernel v precision and fd_mm = fd_mm_kernel ~mb:3 v precision in
    let fused_sim = measured_sim fused and fi_mm_sim = measured_sim [ volume; fi_mm ] in
    let fd_mm_sim = measured_sim [ volume; fd_mm ] in
    ( [|
        (fun () -> Gpu_sim.step fused_sim fused);
        (fun () -> Gpu_sim.launch fi_mm_sim volume);
        (fun () -> Gpu_sim.launch fi_mm_sim fi_mm);
        (fun () -> Gpu_sim.launch fd_mm_sim fd_mm);
      |],
      fd_mm_sim )
  in
  let hand, _ = launches Hand and lift, lift_fd_mm_sim = launches Lift_gen in
  (* the Lift FD-MM kernel that re-reads its branch state from global
     memory, in the Lift FD-MM simulation *)
  let global = fd_mm_kernel ~staging:`Global ~mb:3 Lift_gen precision in
  let lift_global () = Gpu_sim.launch lift_fd_mm_sim global in
  (* the reference: one state the fused kernel steps, one the single
     launches rewrite *)
  let room = Geometry.build ~n_materials:Workloads.n_materials Geometry.Box dims in
  let tables = Material.tables ~n_branches:3 Material.defaults in
  let ref_state () =
    let st = State.create ~n_branches:3 room in
    let cx, cy, cz = State.centre st in
    State.add_impulse st ~x:cx ~y:cy ~z:cz;
    st
  in
  let fs = ref_state () and rs = ref_state () in
  let boundary_indices = room.Geometry.boundary_indices and nbrs = room.Geometry.nbrs in
  let material = room.Geometry.material in
  let reference =
    [|
      (fun () ->
        Ref_kernels.fused_fi_box params ~dims ~beta:0.1 ~prev:fs.State.prev ~curr:fs.State.curr
          ~next:fs.State.next;
        State.rotate fs);
      (fun () ->
        Ref_kernels.volume_step params ~dims ~nbrs ~prev:rs.State.prev ~curr:rs.State.curr
          ~next:rs.State.next);
      (fun () ->
        Ref_kernels.boundary_fi_mm params ~boundary_indices ~nbrs ~material
          ~beta:tables.Material.t_beta ~prev:rs.State.prev ~next:rs.State.next);
      (fun () ->
        Ref_kernels.boundary_fd_mm params ~mb:3 ~boundary_indices ~nbrs ~material
          ~beta:tables.Material.t_beta_fd ~bi:tables.Material.t_bi ~d:tables.Material.t_d
          ~f:tables.Material.t_f ~di:tables.Material.t_di ~prev:rs.State.prev
          ~next:rs.State.next ~g1:rs.State.g1 ~vel_prev:rs.State.vel_prev
          ~vel_next:rs.State.vel_next);
    |]
  in
  (* row by row: hand, Lift, reference; the staging variant last *)
  let columns = [| hand; lift; reference |] in
  let t =
    medians
      (Array.append
         (Array.init 12 (fun i -> columns.(i mod 3).(i / 3)))
         [| lift_global |])
  in
  let med row col = t.((3 * row) + col) in
  Report.print_table
    ~title:
      (Printf.sprintf "Measured on this host: Lift vs hand-written (native engine, %s box, double)"
         (dims_label dims))
    ~headers:[ "kernel"; "hand ms"; "Lift ms"; "OCaml ref ms"; "n"; "Lift/hand" ]
    (List.mapi
       (fun row label ->
         [
           label;
           Report.ms (med row 0);
           Report.ms (med row 1);
           Report.ms (med row 2);
           string_of_int measured_rounds;
           Printf.sprintf "%.2f" (med row 1 /. med row 0);
         ])
       [ "fused FI step"; "volume"; "boundary FI-MM"; "boundary FD-MM" ]);
  Printf.printf
    "per-launch medians on Vgpu.Clock over %d rounds after %d warm-up rounds; a round times \
     every launch once, Lift and hand interleaved\n"
    measured_rounds measured_warmup;
  let volume = med 1 0 in
  Report.print_table ~title:"Figure 2 (measured): boundary share of a step, hand-written"
    ~headers:[ "algo"; "volume ms"; "boundary ms"; "% boundary" ]
    (List.map
       (fun (algo, b) -> [ algo; Report.ms volume; Report.ms b; Report.pct (b /. (volume +. b)) ])
       [ ("FI-MM", med 2 0); ("FD-MM", med 3 0) ]);
  let staged = med 3 1 and global = t.(12) in
  Printf.printf "\n== Ablation (measured): Lift FD-MM branch state, private vs global ==\n";
  Printf.printf "private staging %.3f ms, global re-reads %.3f ms (global/private x%.2f)\n"
    (staged *. 1e3) (global *. 1e3) (global /. staged)
