(* Host-side Lift: compile and execute the paper's Listing 5 —
   two kernels per time step (volume handling then in-place boundary
   handling) orchestrated by host primitives — and check it against the
   reference step.  Also checks the emitted host pseudo-C and the
   transfer bookkeeping. *)

open Acoustics

let params = Params.default
let dims = Geometry.dims ~nx:12 ~ny:10 ~nz:9

let build_host_program () =
  let p name ty = Lift.Ast.named_param name ty in
  let open Lift.Host in
  let open Lift_acoustics.Programs in
  let volume = Lift_acoustics.Programs.volume () in
  let boundary = Lift_acoustics.Programs.boundary_fi_mm () in
  let nbrs_h = p "nbrs" nbrs_ty in
  let prev_h = p "prev" grid_ty in
  let curr_h = p "curr" grid_ty in
  let next_h = p "next" grid_ty in
  let bidx_h = p "bidx" bidx_ty in
  let material_h = p "material" material_ty in
  let beta_h = p "beta" beta_ty in
  let l = Params.l params and l2 = Params.l2 params in
  (* val next_g = OclKernel(volume, ...) then
     ToHost(WriteTo(next_g, OclKernel(boundary, ...))) *)
  (* val next_g = OclKernel(volume, ...): H_let shares the kernel result
     so the volume kernel is launched exactly once. *)
  let next_g_p = p "next_g" grid_ty in
  H_let
    ( next_g_p,
      ocl_kernel ~name:"volume" volume
        [
          to_gpu (input nbrs_h);
          to_gpu (input prev_h);
          to_gpu (input curr_h);
          to_gpu (input next_h);
          H_int dims.Geometry.nx;
          H_int (dims.Geometry.nx * dims.Geometry.ny);
          H_real l2;
        ],
      to_host
        (write_to (input next_g_p)
           (ocl_kernel ~name:"boundary_fi_mm" boundary
              [
                to_gpu (input bidx_h);
                input nbrs_h;
                to_gpu (input material_h);
                to_gpu (input beta_h);
                input prev_h;
                input next_g_p;
                H_real l;
              ])) )

let test_listing5 () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let tables = Material.tables ~n_branches:3 Material.defaults in
  let n = Geometry.n_points dims in
  let nb = Geometry.n_boundary room in
  let sizes = function
    | "N" -> Some n
    | "nB" -> Some nb
    | "NM" -> Some (Array.length tables.Material.t_beta)
    | _ -> None
  in
  let compiled = Lift.Host.compile ~precision:Kernel_ast.Cast.Double ~sizes (build_host_program ()) in
  (* the emitted host source mentions the OpenCL API calls of Table I *)
  List.iter
    (fun needle ->
      if not (Test_util.contains compiled.Lift.Host.source needle) then
        Alcotest.failf "host source missing %s:\n%s" needle compiled.Lift.Host.source)
    [ "enqueueWriteBuffer"; "enqueueReadBuffer"; "enqueueNDRangeKernel"; "clSetKernelArg" ];
  (* reference step *)
  let st_ref = State.create room in
  let cx, cy, cz = State.centre st_ref in
  State.add_impulse st_ref ~x:cx ~y:cy ~z:cz;
  Ref_kernels.volume_step params ~dims ~nbrs:room.Geometry.nbrs ~prev:st_ref.prev
    ~curr:st_ref.curr ~next:st_ref.next;
  Ref_kernels.boundary_fi_mm params ~boundary_indices:room.Geometry.boundary_indices
    ~nbrs:room.Geometry.nbrs ~material:room.Geometry.material
    ~beta:tables.Material.t_beta ~prev:st_ref.prev ~next:st_ref.next;
  (* host-program execution *)
  let st = State.create room in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  let rt = Vgpu.Runtime.create () in
  Vgpu.Runtime.bind rt "nbrs" (Vgpu.Buffer.I room.Geometry.nbrs);
  Vgpu.Runtime.bind rt "prev" (Vgpu.Buffer.F st.prev);
  Vgpu.Runtime.bind rt "curr" (Vgpu.Buffer.F st.curr);
  Vgpu.Runtime.bind rt "next" (Vgpu.Buffer.F st.next);
  Vgpu.Runtime.bind rt "bidx" (Vgpu.Buffer.I room.Geometry.boundary_indices);
  Vgpu.Runtime.bind rt "material" (Vgpu.Buffer.I room.Geometry.material);
  Vgpu.Runtime.bind rt "beta" (Vgpu.Buffer.F tables.Material.t_beta);
  Lift.Host.run compiled rt;
  Alcotest.(check int) "two kernel launches" 2 rt.Vgpu.Runtime.launches;
  if rt.Vgpu.Runtime.h2d_bytes = 0 then Alcotest.fail "no host->device transfers recorded";
  if rt.Vgpu.Runtime.d2h_bytes = 0 then Alcotest.fail "no device->host transfers recorded";
  Array.iteri
    (fun i x ->
      if Float.abs (x -. st.next.(i)) > 1e-12 then
        Alcotest.failf "host pipeline differs at %d: %.17g vs %.17g" i x st.next.(i))
    st_ref.next

(* Iterated host execution with buffer rotation (paper §V-A): the plan
   repeated N times with prev/curr/next rotation must match the
   simulation driver stepping N times. *)
let test_iterate () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let tables = Material.tables ~n_branches:3 Material.defaults in
  let n = Geometry.n_points dims in
  let nb = Geometry.n_boundary room in
  let sizes = function
    | "N" -> Some n
    | "nB" -> Some nb
    | "NM" -> Some (Array.length tables.Material.t_beta)
    | _ -> None
  in
  let compiled = Lift.Host.compile ~precision:Kernel_ast.Cast.Double ~sizes (build_host_program ()) in
  let steps = 10 in
  let plan = Lift.Host.iterate ~times:steps ~rotate:[ [ "prev"; "curr"; "next" ] ] compiled in
  (* reference: the simulation driver *)
  let st_ref = State.create room in
  let cx, cy, cz = State.centre st_ref in
  State.add_impulse st_ref ~x:cx ~y:cy ~z:cz;
  for _ = 1 to steps do
    Ref_kernels.step_fi_mm params st_ref ~beta:tables.Material.t_beta
  done;
  (* host plan execution *)
  let st = State.create room in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  let rt = Vgpu.Runtime.create () in
  Vgpu.Runtime.bind rt "nbrs" (Vgpu.Buffer.I room.Geometry.nbrs);
  Vgpu.Runtime.bind rt "prev" (Vgpu.Buffer.F st.prev);
  Vgpu.Runtime.bind rt "curr" (Vgpu.Buffer.F st.curr);
  Vgpu.Runtime.bind rt "next" (Vgpu.Buffer.F st.next);
  Vgpu.Runtime.bind rt "bidx" (Vgpu.Buffer.I room.Geometry.boundary_indices);
  Vgpu.Runtime.bind rt "material" (Vgpu.Buffer.I room.Geometry.material);
  Vgpu.Runtime.bind rt "beta" (Vgpu.Buffer.F tables.Material.t_beta);
  Vgpu.Runtime.run rt plan;
  Alcotest.(check int) "2 launches per step" (2 * steps) rt.Vgpu.Runtime.launches;
  (* after rotation, the binding named "curr" holds the latest field *)
  let final = Vgpu.Buffer.to_float_array (Vgpu.Runtime.buffer rt "curr") in
  Array.iteri
    (fun i x ->
      if Float.abs (x -. st_ref.curr.(i)) > 1e-11 *. (1. +. Float.abs x) then
        Alcotest.failf "iterated host differs at %d: %.17g vs %.17g" i x st_ref.curr.(i))
    final

(* H_copy / halo_exchange: the host-IR device-copy primitive moves the
   ghost planes across a Z cut, is emitted as enqueueCopyBuffer in both
   the pseudo-C and the standalone C artifact, and accounts its bytes as
   device-to-device traffic. *)
let test_halo_exchange () =
  let plane = 4 in
  let lo_planes = 5 and hi_planes = 4 in
  let p name sz = Lift.Ast.named_param name (Lift.Ty.array Lift.Ty.real (Lift.Size.var sz)) in
  let prog =
    Lift.Host.halo_exchange ~plane ~lo:(Lift.Host.input (p "lo" "NL")) ~lo_planes
      ~hi:(Lift.Host.input (p "hi" "NH"))
  in
  let sizes = function
    | "NL" -> Some (lo_planes * plane)
    | "NH" -> Some (hi_planes * plane)
    | _ -> None
  in
  let compiled = Lift.Host.compile ~sizes prog in
  Alcotest.(check bool) "pseudo-C has enqueueCopyBuffer" true
    (Test_util.contains compiled.Lift.Host.source "enqueueCopyBuffer");
  let c = Lift.Emit_c.host_program compiled in
  Alcotest.(check bool) "standalone C has clEnqueueCopyBuffer" true
    (Test_util.contains c "clEnqueueCopyBuffer");
  (* execute: lo's top owned plane -> hi's bottom ghost, hi's bottom
     owned plane -> lo's top ghost *)
  let lo = Array.init (lo_planes * plane) (fun i -> 100. +. float_of_int i) in
  let hi = Array.init (hi_planes * plane) (fun i -> 200. +. float_of_int i) in
  let rt = Vgpu.Runtime.create () in
  Vgpu.Runtime.bind rt "lo" (Vgpu.Buffer.F lo);
  Vgpu.Runtime.bind rt "hi" (Vgpu.Buffer.F hi);
  Lift.Host.run compiled rt;
  for j = 0 to plane - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "hi ghost %d" j)
      (100. +. float_of_int (((lo_planes - 2) * plane) + j))
      hi.(j);
    Alcotest.(check (float 0.))
      (Printf.sprintf "lo ghost %d" j)
      (200. +. float_of_int (plane + j))
      lo.(((lo_planes - 1) * plane) + j)
  done;
  Alcotest.(check int) "d2d bytes accounted" (2 * plane * 8) rt.Vgpu.Runtime.d2d_bytes;
  (* copy endpoints must denote buffers *)
  match
    Lift.Host.compile ~sizes
      (Lift.Host.copy ~src:(Lift.Host.H_int 3) ~src_off:0
         ~dst:(Lift.Host.input (p "lo" "NL"))
         ~dst_off:0 ~elems:1)
  with
  | exception Lift.Host.Host_error _ -> ()
  | _ -> Alcotest.fail "scalar copy endpoint accepted"

(* The two-shard Listing-5-style host program
   ({!Lift_acoustics.Programs.sharded_fi_step_host}): per-shard kernel
   names survive into the pseudo-C and the standalone C artifact, the
   halo exchange shows up as enqueueCopyBuffer, and executing the plan
   on shard-local buffers reproduces the unsharded FI step. *)
let test_sharded_host_program () =
  let dims = Geometry.dims ~nx:10 ~ny:8 ~nz:8 in
  let room = Geometry.build Geometry.Box dims in
  let p = Shard.plan ~shards:2 room in
  let sh0 = p.Shard.shards.(0) and sh1 = p.Shard.shards.(1) in
  (* an even-Nz box splits into two symmetric slabs, so one (N, nB)
     size assignment serves both shards *)
  Alcotest.(check int) "equal slab boundary counts" sh0.Shard.n_b sh1.Shard.n_b;
  Alcotest.(check int) "equal slab planes" sh0.Shard.planes sh1.Shard.planes;
  let beta = 0.3 in
  let prog =
    Lift_acoustics.Programs.sharded_fi_step_host ~nx:dims.Geometry.nx
      ~ny:dims.Geometry.ny
      ~slab_planes:(sh0.Shard.z1 - sh0.Shard.z0)
      ~l:(Params.l params) ~l2:(Params.l2 params) ~beta ()
  in
  let sizes = function
    | "N" -> Some sh0.Shard.local_n
    | "nB" -> Some sh0.Shard.n_b
    | _ -> None
  in
  let compiled = Lift.Host.compile ~precision:Kernel_ast.Cast.Double ~sizes prog in
  List.iter
    (fun needle ->
      if not (Test_util.contains compiled.Lift.Host.source needle) then
        Alcotest.failf "sharded host source missing %s:\n%s" needle
          compiled.Lift.Host.source)
    [ "volume_s0"; "volume_s1"; "boundary_fi_s0"; "boundary_fi_s1"; "enqueueCopyBuffer" ];
  Alcotest.(check int) "four kernels compiled" 4 (List.length compiled.Lift.Host.kernels);
  let c = Lift.Emit_c.host_program compiled in
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then Alcotest.failf "emitted C missing %s" needle)
    [ "clEnqueueCopyBuffer"; "volume_s1" ];
  (* execute on shard-local buffers *)
  let st = State.create room in
  let cx, cy, cz = State.centre st in
  State.add_impulse st ~x:cx ~y:cy ~z:cz;
  let sstates = Shard.create_states p in
  Shard.scatter p st sstates;
  let rt = Vgpu.Runtime.create () in
  Array.iteri
    (fun i (sh : Shard.shard) ->
      let s name = name ^ string_of_int i in
      let ss = sstates.(i) in
      (* the host program's kernels take nbrs as ints *)
      Vgpu.Runtime.bind rt (s "nbrs") (Vgpu.Buffer.I (Vgpu.Buffer.to_int_array (U8 sh.Shard.nbrs)));
      Vgpu.Runtime.bind rt (s "bidx") (Vgpu.Buffer.I sh.Shard.bidx);
      Vgpu.Runtime.bind rt (s "prev") (Vgpu.Buffer.F ss.Shard.prev);
      Vgpu.Runtime.bind rt (s "curr") (Vgpu.Buffer.F ss.Shard.curr);
      Vgpu.Runtime.bind rt (s "next") (Vgpu.Buffer.F ss.Shard.next))
    p.Shard.shards;
  Lift.Host.run compiled rt;
  Alcotest.(check int) "four launches" 4 rt.Vgpu.Runtime.launches;
  if rt.Vgpu.Runtime.d2d_bytes = 0 then Alcotest.fail "no halo traffic recorded";
  (* the unsharded reference step *)
  Ref_kernels.volume_step params ~dims ~nbrs:room.Geometry.nbrs ~prev:st.prev
    ~curr:st.curr ~next:st.next;
  Ref_kernels.boundary_fi params ~boundary_indices:room.Geometry.boundary_indices
    ~nbrs:room.Geometry.nbrs ~beta ~prev:st.prev ~next:st.next;
  let gathered = State.create room in
  Shard.gather p sstates gathered;
  Array.iteri
    (fun i x ->
      if Float.abs (x -. gathered.State.next.(i)) > 1e-12 then
        Alcotest.failf "sharded host step differs at %d: %.17g vs %.17g" i
          gathered.State.next.(i) x)
    st.next

let suite =
  [
    Alcotest.test_case "listing 5 host pipeline" `Quick test_listing5;
    Alcotest.test_case "iterated stepping with rotation" `Quick test_iterate;
    Alcotest.test_case "halo-exchange host primitive" `Quick test_halo_exchange;
    Alcotest.test_case "sharded two-device host program" `Quick test_sharded_host_program;
  ]
