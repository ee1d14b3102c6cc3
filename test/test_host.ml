(* Host-side Lift: compile and execute the paper's Listing 5 —
   two kernels per time step (volume handling then in-place boundary
   handling) orchestrated by host primitives — and check it against the
   reference step.  Also checks the emitted host pseudo-C and the
   transfer bookkeeping, and the OpenCL program emitted for the plans a
   simulation runs. *)

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
  Test_util.check_bits "host pipeline next" st_ref.next st.next

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
  Test_util.check_bits "iterated host curr" st_ref.curr
    (Vgpu.Buffer.to_float_array (Vgpu.Runtime.buffer rt "curr"))

(* -- The emitted program of the plan that runs ------------------------- *)

let is_exchange (o : Vgpu.Multi.async_op) =
  match o.Vgpu.Multi.a_op with Vgpu.Multi.Exchange _ -> true | Vgpu.Multi.Dev _ -> false

let is_swap (o : Vgpu.Multi.async_op) =
  match o.Vgpu.Multi.a_op with
  | Vgpu.Multi.Dev (_, Vgpu.Runtime.Swap _) -> true
  | Vgpu.Multi.Dev _ | Vgpu.Multi.Exchange _ -> false

(* A plan's exchanges, signals (counted twice: one event and one flush
   each), waiting ops and swaps, and the copies, events, flushes, wait
   lists and pointer swaps of its emitted program. *)
let plan_counts plan =
  let n p = List.length (List.filter p plan) in
  let signals = n (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_signal <> None) in
  [
    n is_exchange;
    signals;
    signals;
    n (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_waits <> []);
    n is_swap;
  ]

let program_counts c =
  List.map (Test_util.count c)
    [ "clEnqueueCopyBuffer("; "  cl_event ev_"; "CHECK(clFlush("; "cl_event wl["; "{ cl_mem t = " ]

(* The sharded plan's halo exchange ({!Shard.exchange_ops}), run through
   {!Vgpu.Multi}: across each cut the lower slab's top owned plane
   refreshes the upper slab's bottom ghost plane and vice versa, the
   bytes count as device-to-device traffic, and the emitted program has
   one clEnqueueCopyBuffer per Exchange, on its source device's queue. *)
let test_exchange_ops () =
  let room = Geometry.build Geometry.Box (Geometry.dims ~nx:5 ~ny:4 ~nz:9) in
  let p = Shard.plan ~shards:3 room in
  let n = Shard.n_shards p in
  let ops = Shard.exchange_ops p ~buffer:"g" in
  Alcotest.(check int) "two exchanges per cut" (2 * (n - 1)) (List.length ops);
  let slabs =
    Array.map
      (fun (sh : Shard.shard) ->
        Array.init sh.Shard.local_n (fun i -> float_of_int ((1000 * sh.Shard.index) + i)))
      p.Shard.shards
  in
  let multi = Vgpu.Multi.create ~engine:Vgpu.Runtime.Interp ~devices:n () in
  Array.iteri (fun i a -> Vgpu.Multi.bind multi i "g" (Vgpu.Buffer.F a)) slabs;
  Vgpu.Multi.run multi ops;
  let plane = p.Shard.shards.(0).Shard.plane in
  for c = 0 to n - 2 do
    let top = p.Shard.shards.(c).Shard.planes - 1 in
    for j = 0 to plane - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "cut %d: upper ghost %d" c j)
        (float_of_int ((1000 * c) + ((top - 1) * plane) + j))
        slabs.(c + 1).(j);
      Alcotest.(check (float 0.))
        (Printf.sprintf "cut %d: lower ghost %d" c j)
        (float_of_int ((1000 * (c + 1)) + plane + j))
        slabs.(c).((top * plane) + j)
    done
  done;
  Alcotest.(check int) "d2d bytes accounted"
    (List.length ops * plane * 8)
    (Vgpu.Multi.stats multi).Vgpu.Runtime.s_d2d_bytes;
  let c =
    Lift.Emit_c.host_program
      ~extent:(fun i _ -> Some (Array.length slabs.(i)))
      (List.map (fun a_op -> { Vgpu.Multi.a_op; a_waits = []; a_signal = None }) ops)
  in
  Alcotest.(check int) "one clEnqueueCopyBuffer per Exchange" (List.length ops)
    (Test_util.count c "clEnqueueCopyBuffer(");
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then Alcotest.failf "emitted C missing %s" needle)
    [ "clEnqueueCopyBuffer(queue0, d0_g, d1_g, "; "clEnqueueCopyBuffer(queue2, d2_g, d1_g, " ]

(* The program [racs emit-c --sharded] prints: two steps of the 2-shard
   FI plan that [racs simulate --shards 2] runs with the Lift kernels, on
   a 64x48x40 box.  Its copies, events, wait lists and pointer swaps are
   the plan's own, on both devices' queues, each signalling enqueue
   flushes its queue so the other queue may wait on the event; and
   executing the plan steps the sharded simulation bit for bit as one
   device steps the room. *)
let test_sharded_host_program () =
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:64 ~ny:48 ~nz:40) in
  let lift name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision:Kernel_ast.Cast.Double prog)
      .Lift.Codegen.kernel
  in
  let kernels =
    [ lift "volume" (Lift_acoustics.Programs.volume ());
      lift "boundary_fi" (Lift_acoustics.Programs.boundary_fi ()) ]
  in
  let make shards =
    let sim = Gpu_sim.create ~engine:`Interp ~shards ~fi_beta:0.1 ~n_branches:3 params room in
    let cx, cy, cz = State.centre sim.Gpu_sim.state in
    State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
    sim
  in
  let sim = make 2 in
  let plan = Gpu_sim.plan sim kernels ~steps:2 in
  let c = Test_util.emit_plan sim plan in
  Alcotest.(check (list int)) "exchanges, signals (twice), waiting ops, swaps" [ 4; 4; 4; 2; 12 ]
    (plan_counts plan);
  Alcotest.(check (list int)) "one copy, event, flush, wait list and swap each" (plan_counts plan)
    (program_counts c);
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then Alcotest.failf "emitted C missing %s" needle)
    [
      "clEnqueueNDRangeKernel(queue0, k_volume,";
      "clEnqueueNDRangeKernel(queue1, k_volume,";
      "clEnqueueNDRangeKernel(queue0, k_boundary_fi,";
      "clEnqueueNDRangeKernel(queue1, k_boundary_fi,";
      "clEnqueueCopyBuffer(queue0, d0_next, d1_next,";
      "clEnqueueCopyBuffer(queue1, d1_next, d0_next,";
      "&ev_0)); CHECK(clFlush(queue0)); }";
      "&ev_1)); CHECK(clFlush(queue1)); }";
      "cl_event wl[1] = { ev_0 }";
      "cl_event wl[1] = { ev_1 }";
      "unsigned char *h0_nbrs";
      (* nothing uploads the plan's buffers: each starts as its array *)
      "CL_MEM_COPY_HOST_PTR, n1_nbrs * sizeof(unsigned char), h1_nbrs, &err)";
      "/* volume: its spans hold 54188 of these 58368 work items */";
    ];
  Alcotest.(check int) "one kernel source per kernel" 2
    (Test_util.count c "static const char *kernel_src_");
  (* a program starts with no event: a wait on one it has not signalled
     (the second step alone), or a second signal of one, is refused; so
     are two different kernels under one name *)
  let refused what plan =
    match Test_util.emit_plan sim plan with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "emitted %s" what
  in
  refused "a wait on an earlier plan's event" (List.filteri (fun i _ -> i >= 12) plan);
  refused "an event signalled twice"
    (List.map
       (fun (o : Vgpu.Multi.async_op) ->
         if o.Vgpu.Multi.a_signal = Some 2 then { o with Vgpu.Multi.a_signal = Some 0 } else o)
       plan);
  refused "two kernels named volume"
    (List.map
       (fun (o : Vgpu.Multi.async_op) ->
         match o.Vgpu.Multi.a_op with
         | Vgpu.Multi.Dev (1, Vgpu.Runtime.Launch l) ->
             let kernel = { l.kernel with Kernel_ast.Cast.name = "volume" } in
             { o with Vgpu.Multi.a_op = Vgpu.Multi.Dev (1, Vgpu.Runtime.Launch { l with kernel }) }
         | _ -> o)
       plan);
  Gpu_sim.ensure_scattered sim;
  ignore (Vgpu.Multi.run_async sim.Gpu_sim.multi plan);
  Gpu_sim.sync sim;
  let one = make 1 in
  Gpu_sim.step one kernels;
  Gpu_sim.step one kernels;
  Test_util.check_bits "sharded plan curr" one.Gpu_sim.state.State.curr sim.Gpu_sim.state.State.curr;
  Test_util.check_bits "sharded plan prev" one.Gpu_sim.state.State.prev sim.Gpu_sim.state.State.prev

(* The emitted program of every plan [racs check] verifies: FI, FI-MM
   and FD-MM at its (shards, T) sweep, under every schedule, for two
   temporal blocks.  Each has one copy per Exchange, one named event and
   one flush per signal, one wait list per waiting op and one pointer
   swap per Swap, and its braces balance. *)
let test_emit_every_plan () =
  let precision = Kernel_ast.Cast.Double in
  let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta in
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:12 ~ny:10 ~nz:24) in
  List.iter
    (fun (label, kernels) ->
      List.iter
        (fun (shards, tblock) ->
          List.iter
            (fun schedule ->
              let sim =
                Gpu_sim.create ~engine:`Interp ~shards ~schedule ~tblock ~fi_beta:0.1
                  ~n_branches:3 params room
              in
              Alcotest.(check int) "T as asked" tblock (Gpu_sim.tblock sim);
              let plan = Gpu_sim.plan sim kernels ~steps:(2 * tblock) in
              let c = Test_util.emit_plan sim plan in
              let what = Printf.sprintf "%s, %d shard(s), T=%d" label shards tblock in
              Alcotest.(check (list int)) what (plan_counts plan) (program_counts c);
              Alcotest.(check int) (what ^ ": braces balance") (Test_util.count c "{")
                (Test_util.count c "}"))
            [ `Seq; `Concurrent; `Overlap ])
        [ (1, 1); (2, 1); (3, 1); (4, 1); (2, 2); (3, 3) ])
    [
      ("fi", [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]);
      ("fi-mm",
       [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]);
      ("fd-mm",
       [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]);
    ]

let suite =
  [
    Alcotest.test_case "listing 5 host pipeline" `Quick test_listing5;
    Alcotest.test_case "iterated stepping with rotation" `Quick test_iterate;
    Alcotest.test_case "halo-exchange host primitive" `Quick test_exchange_ops;
    Alcotest.test_case "sharded two-device host program" `Quick test_sharded_host_program;
    Alcotest.test_case "emitted program of every step plan" `Quick test_emit_every_plan;
  ]
