(* Static stencil-footprint inference and whole-plan halo verification:

   - Kernel_ast.Footprint infers exact per-axis extents for the
     production volume kernels (flat and fused) and for a 2.5D-tiled test
     fixture (where the z±1 arms live in registers and local memory, not
     in any load's index expression), and honestly gives up on the
     indirect boundary scatters.

   - The optimizer never widens a footprint: the optimized AST's
     extents are contained in the raw AST's (on fd-mm it is strictly
     tighter — constant folding removes approximation).

   - Lift.Lint.verify_async proves halo sufficiency for the plans the
     simulator's real 1–4-shard sync and overlapped schedules execute
     (Gpu_sim.plan), and rejects broken plans with pointed diagnostics:
     a width-0 exchange (halo-too-narrow), a skipped exchange
     (stale/clobbered halo), a dropped frontier wait
     (unordered-ghost-read), an exchange racing a launch that writes
     its ghost planes (unordered-ghost-write), a read of an allocation
     nothing wrote (uninit-read).  A mutation sweep drops exchanges from
     every scheme's plans at several shard counts and block depths;
     every mutant must be rejected.

   - qcheck ties statics to dynamics: on random affine stencils the
     sanitizer's observed access extents fall inside the inferred
     absolute intervals, and optimization never widens the footprint. *)

open Kernel_ast
open Acoustics

let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let strides = [| 1; 14; 14 * 12 |]

let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

let sim_env () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim = Gpu_sim.create ~fi_beta:0.2 ~n_branches:3 Params.default room in
  Gpu_sim.check_env sim

let axes = Alcotest.(list (pair int int))
let axes_of a = Array.to_list (Array.map (fun x -> (x.Footprint.ax_lo, x.Footprint.ax_hi)) a)

let check_rel msg fp name expected =
  match Footprint.read_rel fp name with
  | None -> Alcotest.failf "%s: no relative read extents for %s" msg name
  | Some a -> Alcotest.check axes msg expected (axes_of a)

(* -- Exact extents on the production volume kernels ------------------- *)

let test_flat_exact () =
  let env = sim_env () in
  List.iter
    (fun (k : Cast.kernel) ->
      let fp = Footprint.infer ~strides env k in
      Alcotest.(check (option string))
        (k.Cast.name ^ " anchored on next") (Some "next") fp.Footprint.fp_anchor;
      check_rel (k.Cast.name ^ " curr") fp "curr" [ (-1, 1); (-1, 1); (-1, 1) ];
      check_rel (k.Cast.name ^ " prev") fp "prev" [ (0, 0); (0, 0); (0, 0) ];
      (match Footprint.write_rel fp "next" with
      | Some a ->
          Alcotest.check axes (k.Cast.name ^ " next write") [ (0, 0); (0, 0); (0, 0) ]
            (axes_of a)
      | None -> Alcotest.failf "%s: next write extents missing" k.Cast.name);
      Alcotest.(check (option int))
        (k.Cast.name ^ " halo radius") (Some 1)
        (Footprint.read_radius fp "curr");
      (match Footprint.find fp "curr" with
      | Some b -> Alcotest.(check bool) (k.Cast.name ^ " exact") true b.Footprint.fb_exact
      | None -> assert false))
    [ Hand_kernels.volume ~precision:Cast.Double; Hand_kernels.fused_fi ~precision:Cast.Double ]

(* The tiled fixture's below/above-plane reads live in loop-carried
   registers and a __local tile; provenance plus register aging must
   recover the same ±1 extents the flat kernel shows directly. *)
let test_tiled_exact () =
  let env = sim_env () in
  List.iter
    (fun tile ->
      let k = Tiled_kernel.volume ~precision:Cast.Double ~tile () in
      let fp = Footprint.infer ~strides env k in
      check_rel (k.Cast.name ^ " curr") fp "curr" [ (-1, 1); (-1, 1); (-1, 1) ];
      check_rel (k.Cast.name ^ " prev") fp "prev" [ (0, 0); (0, 0); (0, 0) ];
      Alcotest.(check (option int))
        (k.Cast.name ^ " halo radius") (Some 1)
        (Footprint.read_radius fp "curr"))
    [ (4, 4); (8, 8) ]

(* Boundary kernels scatter through bidx: no anchor, no relative
   extents, indirect flags — the sanitizer's territory, never a silent
   wrong answer. *)
let test_boundary_indirect () =
  let env = sim_env () in
  List.iter
    (fun (k : Cast.kernel) ->
      let fp = Footprint.infer ~strides env k in
      Alcotest.(check (option string)) (k.Cast.name ^ " no anchor") None fp.Footprint.fp_anchor;
      Alcotest.(check (option int))
        (k.Cast.name ^ " radius not inferable") None
        (Footprint.read_radius fp "curr");
      (match Footprint.find fp "next" with
      | Some b ->
          Alcotest.(check bool) (k.Cast.name ^ " next write indirect") true
            b.Footprint.fb_write.Footprint.s_indirect
      | None -> Alcotest.failf "%s: no footprint for next" k.Cast.name);
      Alcotest.(check bool)
        (k.Cast.name ^ " notes explain the give-up") true
        (fp.Footprint.fp_notes <> []))
    [
      Hand_kernels.boundary_fi ~precision:Cast.Double;
      Hand_kernels.boundary_fi_mm ~precision:Cast.Double ~betas;
      Hand_kernels.boundary_fd_mm ~precision:Cast.Double ~mb:3;
    ]

(* -- Optimizer containment -------------------------------------------- *)

let itv_leq (inner : Domain.itv) (outer : Domain.itv) =
  (match (outer.Domain.lo, inner.Domain.lo) with
  | None, _ -> true
  | Some _, None -> false
  | Some o, Some i -> o <= i)
  &&
  match (outer.Domain.hi, inner.Domain.hi) with
  | None, _ -> true
  | Some _, None -> false
  | Some o, Some i -> i <= o

let rel_leq inner outer =
  match (outer, inner) with
  | None, _ -> true (* raw gave up: anything the optimizer infers is tighter *)
  | Some _, None -> false
  | Some o, Some i ->
      Array.length i = Array.length o
      && Array.for_all2 (fun a b -> b.Footprint.ax_lo <= a.Footprint.ax_lo
                                    && a.Footprint.ax_hi <= b.Footprint.ax_hi)
           i o

let check_contained name (raw : Footprint.t) (opt : Footprint.t) =
  List.iter
    (fun (b : Footprint.buf) ->
      let bn = b.Footprint.fb_name in
      match Footprint.find raw bn with
      | None -> Alcotest.failf "%s: optimizer invented buffer %s" name bn
      | Some rb ->
          let side which (o : Footprint.side) (r : Footprint.side) =
            if not (itv_leq o.Footprint.s_lin r.Footprint.s_lin) then
              Alcotest.failf "%s: %s %s linear interval widened" name bn which;
            if not (rel_leq o.Footprint.s_rel r.Footprint.s_rel) then
              Alcotest.failf "%s: %s %s relative extents widened" name bn which
          in
          side "read" b.Footprint.fb_read rb.Footprint.fb_read;
          side "write" b.Footprint.fb_write rb.Footprint.fb_write)
    opt.Footprint.fp_bufs

let test_opt_never_widens () =
  let env = sim_env () in
  List.iter
    (fun (k : Cast.kernel) ->
      let raw = Footprint.infer ~strides env k in
      let opt = Footprint.infer ~strides env (fst (Opt.optimize k)) in
      check_contained k.Cast.name raw opt)
    [
      Hand_kernels.volume ~precision:Cast.Double;
      Hand_kernels.fused_fi ~precision:Cast.Double;
      Tiled_kernel.volume ~precision:Cast.Double ~tile:(4, 4) ();
      Hand_kernels.boundary_fi ~precision:Cast.Double;
      Hand_kernels.boundary_fi_mm ~precision:Cast.Double ~betas;
      Hand_kernels.boundary_fd_mm ~precision:Cast.Double ~mb:3;
    ]

(* -- Whole-plan halo verification on the real schedules --------------- *)

let schemes precision =
  [
    ("fi", [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]);
    ("fi-mm", [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]);
    ("fd-mm", [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]);
  ]

let mk_sim ?(schedule = `Seq) ?(tblock = 1) ?(dims = Geometry.dims ~nx:9 ~ny:8 ~nz:12) ~shards ()
    =
  let room = Geometry.build ~n_materials:4 Geometry.Dome dims in
  Gpu_sim.create ~engine:`Native ~shards ~schedule ~tblock ~fi_beta:0.1 ~n_branches:3
    ~precision:Cast.Double Params.default room

let slab_of sim =
  let nx, ny, planes = Gpu_sim.slab_geometry sim in
  { Lift.Lint.sl_nx = nx; sl_ny = ny; sl_planes = planes }

(* Branch-state buffers: rotated and exchanged, but not slab-shaped. *)
let state_bufs = [ "g1"; "v1" ]

let verify sim plan =
  Lift.Lint.verify_async ~halo:(Gpu_sim.tblock sim) ~state_bufs (slab_of sim) plan

let err_codes issues =
  List.map (fun i -> i.Lift.Lint.code) (Lift.Lint.errors issues)

let codes issues = List.map (fun i -> i.Lift.Lint.code) issues
let schedules = [ ("sync", `Seq); ("async", `Overlap) ]

let test_plans_verify_clean () =
  List.iter
    (fun shards ->
      List.iter
        (fun (sname, kernels) ->
          List.iter
            (fun (label, schedule) ->
              let sim = mk_sim ~schedule ~shards () in
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s shards=%d error-free" label sname shards)
                []
                (err_codes (verify sim (Gpu_sim.plan sim kernels ~steps:3))))
            schedules)
        (schemes Cast.Double))
    [ 1; 2; 3; 4 ]

let fi_plan ~steps =
  let sim = mk_sim ~shards:2 () in
  (sim, Gpu_sim.plan sim (List.assoc "fi" (schemes Cast.Double)) ~steps)

(* Acceptance case: a width-0 exchange against the radius-1 stencil must
   be rejected, and the diagnostic must say how wide the exchange needs
   to be. *)
let test_width0_exchange_rejected () =
  let sim, plan = fi_plan ~steps:2 in
  let narrowed =
    List.map
      (fun (o : Vgpu.Multi.async_op) ->
        match o.Vgpu.Multi.a_op with
        | Vgpu.Multi.Exchange e -> { o with Vgpu.Multi.a_op = Vgpu.Multi.Exchange { e with elems = 0 } }
        | _ -> o)
      plan
  in
  let issues = verify sim narrowed in
  Alcotest.(check bool) "halo-too-narrow raised" true
    (List.mem "halo-too-narrow" (err_codes issues));
  let pointed =
    List.exists
      (fun i ->
        i.Lift.Lint.code = "halo-too-narrow"
        && Test_util.contains i.Lift.Lint.message "widen the exchange to 1 plane")
      issues
  in
  Alcotest.(check bool) "diagnostic names the required width" true pointed

let test_dropped_exchange_detected () =
  let sim, plan = fi_plan ~steps:2 in
  let nexch = ref 0 in
  let dropped =
    List.filter
      (fun (o : Vgpu.Multi.async_op) ->
        match o.Vgpu.Multi.a_op with
        | Vgpu.Multi.Exchange _ ->
            incr nexch;
            !nexch > 2 (* drop the first step's pair, keep the second's *)
        | _ -> true)
      plan
  in
  Alcotest.(check bool) "stale-halo raised" true (List.mem "stale-halo" (err_codes (verify sim dropped)))

let drop_waits (plan : Vgpu.Multi.async_plan) =
  List.map (fun (o : Vgpu.Multi.async_op) -> { o with Vgpu.Multi.a_waits = [] }) plan

let test_dropped_wait_detected () =
  let sim = mk_sim ~schedule:`Overlap ~shards:2 () in
  let aplan = Gpu_sim.plan sim (List.assoc "fi" (schemes Cast.Double)) ~steps:2 in
  Alcotest.(check bool) "unordered-ghost-read raised" true
    (List.mem "unordered-ghost-read" (err_codes (verify sim (drop_waits aplan))))

(* An exchange must land after the destination's launches that write
   the ghost planes it fills: every in-block launch at T ≥ 2 (checked on
   the overlapped plans), and at T = 1 every volume launch of the sync
   plans, each of which sweeps its whole slab, ghost planes included.
   Across the mutation sweep's configurations, dropping the wait of any
   exchange that carries that order must be rejected as an unordered
   ghost write.
   An exchange queued behind another with the same wait (same source
   queue, same destination, same block end) inherits the order through
   FIFO, so only the first of each such group carries it.  (Branch-state
   exchanges lie outside the ghost model.) *)
let test_unordered_ghost_write_detected () =
  let dims = Geometry.dims ~nx:12 ~ny:10 ~nz:12 in
  let accepted = ref [] and total = ref 0 in
  let src_of (o : Vgpu.Multi.async_op) =
    match o.Vgpu.Multi.a_op with Vgpu.Multi.Exchange { src_dev; _ } -> Some src_dev | _ -> None
  in
  List.iter
    (fun (sname, kernels) ->
      List.iter
        (fun (shards, tblock) ->
          let schedule = if tblock > 1 then `Overlap else `Seq in
          let sim = mk_sim ~schedule ~tblock ~dims ~shards () in
          let plan = Gpu_sim.plan sim kernels ~steps:(3 * Gpu_sim.tblock sim) in
          let where =
            Printf.sprintf "%s shards=%d T=%d %s" sname shards tblock
              (if tblock > 1 then "async" else "sync")
          in
          Alcotest.(check (list string)) (where ^ ": intact plan error-free") []
            (err_codes (verify sim plan));
          List.iteri
            (fun i (o : Vgpu.Multi.async_op) ->
              match o.Vgpu.Multi.a_op with
              | Vgpu.Multi.Exchange { dst; _ }
                when (not (List.mem dst state_bufs))
                     && o.Vgpu.Multi.a_waits <> []
                     && not
                          (List.exists
                             (fun (p : Vgpu.Multi.async_op) ->
                               src_of p = src_of o && p.Vgpu.Multi.a_waits = o.Vgpu.Multi.a_waits)
                             (List.filteri (fun j _ -> j < i) plan)) ->
                  incr total;
                  let m =
                    List.mapi
                      (fun j (o : Vgpu.Multi.async_op) ->
                        if j = i then { o with Vgpu.Multi.a_waits = [] } else o)
                      plan
                  in
                  if not (List.mem "unordered-ghost-write" (err_codes (verify sim m))) then
                    accepted := Printf.sprintf "%s: exchange op %d" where i :: !accepted
              | _ -> ())
            plan)
        [ (2, 1); (3, 1); (4, 1); (2, 2); (3, 2); (2, 3); (3, 3) ])
    (schemes Cast.Double);
  (* the sweep's size: a change means the plans changed shape *)
  Alcotest.(check int) "mutants checked" 216 !total;
  Alcotest.(check (list string)) "every unwaited exchange rejected" [] (List.rev !accepted)

let test_uninit_read_detected () =
  let open Cast in
  let k =
    {
      name = "reader";
      params = [ param "a" Real; param "b" Real ];
      body = [ Store ("b", Global_id 0, Load ("a", Global_id 0)) ];
      precision = Double;
      global_size = [ Int_lit 8 ];
      local_size = [];
    }
  in
  let plan =
    List.map
      (fun a_op -> { Vgpu.Multi.a_op; a_waits = []; a_signal = None })
      [
        Vgpu.Multi.Dev (0, Vgpu.Runtime.Alloc { name = "a"; ty = Real; elems = 8 });
        Vgpu.Multi.Dev (0, Vgpu.Runtime.Alloc { name = "b"; ty = Real; elems = 8 });
        Vgpu.Multi.Dev
          (0, Vgpu.Runtime.Launch { kernel = k; args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_buf "b" ]; global = [ 8 ] });
      ]
  in
  let slab = { Lift.Lint.sl_nx = 2; sl_ny = 2; sl_planes = [| 2 |] } in
  let cs = codes (Lift.Lint.verify_async slab plan) in
  Alcotest.(check bool) "uninit-read raised" true (List.mem "uninit-read" cs)

(* -- Mutation completeness: a missing exchange never verifies --------- *)

(* Every scheme's real sync and overlapped plan, at several shard counts
   and block depths, with exchanges removed: all of them, or any one
   grid exchange that a later launch in the plan consumes (a final-round
   exchange feeds no launch, so dropping it changes no owned cell).
   Each such mutant diverges when executed, so the verifier must reject
   every one.  Branch-state ([g1]/[v1]) exchanges lie outside the ghost
   model and are only dropped in the drop-all mutant. *)
let mutants (plan : Vgpu.Multi.async_plan) =
  let ops = Array.of_list (List.map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_op) plan) in
  let n = Array.length ops in
  let is_launch = function Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch _) -> true | _ -> false in
  let consumed i = Array.exists is_launch (Array.sub ops (i + 1) (n - i - 1)) in
  ( "drop all exchanges",
    List.filter
      (fun (o : Vgpu.Multi.async_op) ->
        match o.Vgpu.Multi.a_op with Vgpu.Multi.Exchange _ -> false | _ -> true)
      plan )
  :: List.filter_map
       (fun i ->
         match ops.(i) with
         | Vgpu.Multi.Exchange { dst; _ } when (not (List.mem dst state_bufs)) && consumed i ->
             Some (Printf.sprintf "drop exchange op %d" i, List.filteri (fun j _ -> j <> i) plan)
         | _ -> None)
       (List.init n Fun.id)

let test_dropped_exchanges_all_rejected () =
  let dims = Geometry.dims ~nx:12 ~ny:10 ~nz:12 in
  let accepted = ref [] and total = ref 0 in
  List.iter
    (fun (sname, kernels) ->
      List.iter
        (fun (shards, tblock) ->
          List.iter
            (fun (label, schedule) ->
              let sim = mk_sim ~schedule ~tblock ~dims ~shards () in
              let where =
                Printf.sprintf "%s shards=%d T=%d %s" sname shards (Gpu_sim.tblock sim) label
              in
              List.iter
                (fun (m, plan) ->
                  incr total;
                  if Lift.Lint.errors (verify sim plan) = [] then
                    accepted := Printf.sprintf "%s: %s" where m :: !accepted)
                (mutants (Gpu_sim.plan sim kernels ~steps:(3 * Gpu_sim.tblock sim))))
            schedules)
        [ (2, 1); (3, 1); (4, 1); (2, 2); (3, 2); (2, 3); (3, 3) ])
    (schemes Cast.Double);
  (* the sweep's size: a change means the plans changed shape *)
  Alcotest.(check int) "mutants checked" 402 !total;
  Alcotest.(check (list string)) "every mutant rejected" [] (List.rev !accepted)

(* -- qcheck: statics bound dynamics ----------------------------------- *)

(* Random 3D affine stencils: out[x,y,z] = sum of inp[x+dx, y+dy, z+dz]
   over a random offset set, no edge guards — so boundary work-items
   really do reach out of bounds, and the sanitizer records those
   attempts too.  Every observed access must land inside the statically
   inferred absolute interval, and the relative extents must cover every
   generated offset. *)
let stencil_gen =
  QCheck.Gen.(
    tup4 (int_range 3 6) (int_range 3 6) (int_range 3 6)
      (list_size (int_range 1 4) (tup3 (int_range (-1) 1) (int_range (-1) 1) (int_range (-1) 1))))

let stencil_print (nx, ny, nz, offs) =
  Printf.sprintf "%dx%dx%d %s" nx ny nz
    (String.concat ";" (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) offs))

let stencil_kernel (nx, ny, nz, offs) =
  let open Cast in
  let lin (dx, dy, dz) =
    Global_id 0 +: int_lit dx
    +: (int_lit nx *: (Global_id 1 +: int_lit dy))
    +: (int_lit (nx * ny) *: (Global_id 2 +: int_lit dz))
  in
  let sum =
    List.fold_left (fun acc o -> acc +: Load ("inp", lin o)) (Real_lit 0.0) offs
  in
  {
    name = "stencil";
    params = [ param "inp" Real; param "out" Real ];
    body = [ Store ("out", lin (0, 0, 0), sum) ];
    precision = Double;
    global_size = [ Int_lit nx; Int_lit ny; Int_lit nz ];
    local_size = [];
  }

let stencil_env (nx, ny, nz) =
  Check.env
    ~buffer_elems:(function "inp" | "out" -> Some (nx * ny * nz) | _ -> None)
    ()

let observed_inside (itv : Domain.itv) = function
  | None -> true
  | Some (lo, hi) ->
      (match itv.Domain.lo with None -> true | Some l -> l <= lo)
      && (match itv.Domain.hi with None -> true | Some h -> hi <= h)

let qcheck_footprint_bounds_sanitizer =
  QCheck.Test.make ~name:"footprint bounds sanitizer-observed accesses" ~count:200
    (QCheck.make ~print:stencil_print stencil_gen)
    (fun ((nx, ny, nz, offs) as case) ->
      let k = stencil_kernel case in
      let fp =
        Footprint.infer ~strides:[| 1; nx; nx * ny |] (stencil_env (nx, ny, nz)) k
      in
      let s = Vgpu.Sanitizer.create () in
      let mkbuf () = Vgpu.Buffer.F (Array.make (nx * ny * nz) 0.) in
      let inp = mkbuf () and out = mkbuf () in
      Vgpu.Sanitizer.note_host_write s inp;
      Vgpu.Sanitizer.note_host_write s out;
      Vgpu.Sanitizer.launch s k
        ~args:[ Vgpu.Args.Buf inp; Vgpu.Args.Buf out ]
        ~global:[ nx; ny; nz ];
      let dyn_ok =
        List.for_all
          (fun (name, loads, stores) ->
            match Footprint.find fp name with
            | None -> loads = None && stores = None
            | Some b ->
                observed_inside b.Footprint.fb_read.Footprint.s_lin loads
                && observed_inside b.Footprint.fb_write.Footprint.s_lin stores)
          (Vgpu.Sanitizer.access_extents s)
      in
      let rel_ok =
        match Footprint.read_rel fp "inp" with
        | None -> false
        | Some a ->
            List.for_all
              (fun (dx, dy, dz) ->
                let inside i d = a.(i).Footprint.ax_lo <= d && d <= a.(i).Footprint.ax_hi in
                inside 0 dx && inside 1 dy && inside 2 dz)
              offs
      in
      dyn_ok && rel_ok)

let qcheck_opt_never_widens =
  QCheck.Test.make ~name:"optimizer never widens a footprint" ~count:200
    (QCheck.make ~print:stencil_print stencil_gen)
    (fun ((nx, ny, nz, _) as case) ->
      let k = stencil_kernel case in
      let env = stencil_env (nx, ny, nz) in
      let strides = [| 1; nx; nx * ny |] in
      let raw = Footprint.infer ~strides env k in
      let opt = Footprint.infer ~strides env (fst (Opt.optimize k)) in
      List.for_all
        (fun (b : Footprint.buf) ->
          match Footprint.find raw b.Footprint.fb_name with
          | None -> false
          | Some rb ->
              itv_leq b.Footprint.fb_read.Footprint.s_lin rb.Footprint.fb_read.Footprint.s_lin
              && itv_leq b.Footprint.fb_write.Footprint.s_lin
                   rb.Footprint.fb_write.Footprint.s_lin
              && rel_leq b.Footprint.fb_read.Footprint.s_rel rb.Footprint.fb_read.Footprint.s_rel
              && rel_leq b.Footprint.fb_write.Footprint.s_rel
                   rb.Footprint.fb_write.Footprint.s_rel)
        opt.Footprint.fp_bufs)

let suite =
  [
    Alcotest.test_case "flat kernels: exact ±1 extents" `Quick test_flat_exact;
    Alcotest.test_case "tiled kernels: register/local ±1 recovered" `Quick test_tiled_exact;
    Alcotest.test_case "boundary kernels: honest give-up" `Quick test_boundary_indirect;
    Alcotest.test_case "optimizer containment (production kernels)" `Quick
      test_opt_never_widens;
    Alcotest.test_case "1-4 shard sync+async plans verify" `Quick test_plans_verify_clean;
    Alcotest.test_case "width-0 exchange rejected, pointed" `Quick
      test_width0_exchange_rejected;
    Alcotest.test_case "skipped exchange: stale halo" `Quick test_dropped_exchange_detected;
    Alcotest.test_case "dropped frontier wait: unordered read" `Quick
      test_dropped_wait_detected;
    Alcotest.test_case "exchange racing a ghost write: unordered write" `Quick
      test_unordered_ghost_write_detected;
    Alcotest.test_case "read of unwritten allocation" `Quick test_uninit_read_detected;
    Alcotest.test_case "every dropped exchange rejected" `Quick
      test_dropped_exchanges_all_rejected;
    QCheck_alcotest.to_alcotest qcheck_footprint_bounds_sanitizer;
    QCheck_alcotest.to_alcotest qcheck_opt_never_widens;
  ]
