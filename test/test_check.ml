(* The verification layer, all three legs:

   - Kernel_ast.Check (static): the paper's production kernels carry the
     expected verdicts — the fused Listing-1 volume stores are *proven*
     race-free, the indirect next[bidx[i]] boundary scatters are honestly
     Unproven (handed to the sanitizer), and the FD-MM branch-state
     stores are proven safe through the mixed-radix gid+loop argument.
     Verdicts are invariant under the optimizer pipeline.

   - Vgpu.Sanitizer (dynamic): a deliberately racy kernel draws both a
     machine-checked static Unsafe witness and a dynamic write-race
     report; an off-by-one store, and an off-by-one load in any
     argument of a builtin call, are caught by both legs; a sanitized
     sharded FD-MM run is violation-free and bit-identical to the
     unsanitized engines.

   - Lift.Lint (host plans): use-before-ToGPU, dead transfers, arity and
     kind mismatches on hexprs; missing halo exchanges on the real
     sharded multi-device plan.

   Plus a qcheck property tying the legs together: for random affine
   store kernels whose stored value is a builtin of two affine loads, a
   static Safe verdict implies zero dynamic violations of the same
   class. *)

open Kernel_ast
open Acoustics

let params = Params.default
let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

let sim_env () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim = Gpu_sim.create ~fi_beta:0.2 ~n_branches:3 params room in
  Gpu_sim.check_env sim

let buf_report (r : Check.report) name =
  match List.find_opt (fun b -> b.Check.b_name = name) r.Check.r_bufs with
  | Some b -> b
  | None -> Alcotest.failf "kernel %s: no report for buffer %s" r.Check.r_kernel name

let verdict_label = function
  | Check.Safe -> "safe"
  | Check.Unsafe _ -> "unsafe"
  | Check.Unproven _ -> "unproven"

let check_verdict msg expected v =
  Alcotest.(check string) msg expected (verdict_label v)

(* -- Static verdicts on the production kernels ----------------------- *)

let test_paper_kernel_verdicts () =
  let env = sim_env () in
  let p = Cast.Double in
  (* Listing 1: the fused kernel's volume stores are proven race-free and
     in bounds — the acceptance claim of the static leg. *)
  let fused = Check.check env (Hand_kernels.fused_fi ~precision:p) in
  let next = buf_report fused "next" in
  check_verdict "fused_fi next race" "safe" next.Check.b_race;
  check_verdict "fused_fi next bounds" "safe" next.Check.b_bounds;
  Alcotest.(check bool) "fused_fi has no Unsafe" true (Check.ok fused);
  (* Indirect boundary scatter: honestly Unproven, never Unsafe. *)
  let bfi = Check.check env (Hand_kernels.boundary_fi ~precision:p) in
  (match (buf_report bfi "next").Check.b_race with
  | Check.Unproven _ -> ()
  | v -> Alcotest.failf "boundary_fi next race: expected unproven, got %s" (verdict_label v));
  Alcotest.(check bool) "boundary_fi has no Unsafe" true (Check.ok bfi);
  (* FD-MM branch state: safe via the combined gid+loop radix argument. *)
  let fd = Check.check env (Hand_kernels.boundary_fd_mm ~precision:p ~mb:3) in
  check_verdict "fd_mm g1 race" "safe" (buf_report fd "g1").Check.b_race;
  check_verdict "fd_mm v1 race" "safe" (buf_report fd "v1").Check.b_race;
  Alcotest.(check bool) "fd_mm has no Unsafe" true (Check.ok fd)

(* The optimizer must not change any verdict: the verifier doubles as a
   differential audit of the pass pipeline. *)
let test_verdicts_invariant_under_opt () =
  let env = sim_env () in
  let p = Cast.Double in
  List.iter
    (fun (k : Cast.kernel) ->
      let raw = Check.check env k in
      let opt = Check.check env (fst (Opt.optimize k)) in
      let summarize (r : Check.report) =
        List.map
          (fun b -> (b.Check.b_name, verdict_label b.Check.b_race, verdict_label b.Check.b_bounds))
          r.Check.r_bufs
      in
      if summarize raw <> summarize opt then
        Alcotest.failf "%s: verdicts changed under optimization" k.Cast.name)
    [
      Hand_kernels.fused_fi ~precision:p;
      Hand_kernels.volume ~precision:p;
      Hand_kernels.boundary_fi ~precision:p;
      Hand_kernels.boundary_fi_mm ~precision:p ~betas;
      Hand_kernels.boundary_fd_mm ~precision:p ~mb:3;
      Z_march_kernel.volume ~precision:p ();
    ]

(* -- A deliberately racy kernel: both legs must catch it ------------- *)

(* 2D NDRange n x 4 storing out[gid0]: the four y work-items of each
   column collide.  Affine with a dropped gid dimension, so the static
   leg must produce a concrete Unsafe witness, not Unproven. *)
let racy_kernel =
  let open Cast in
  {
    name = "racy";
    params = [ param "out" Real; param ~kind:Scalar_param "n" Int ];
    body = [ Store ("out", Global_id 0, Real_lit 1.0) ];
    precision = Double;
    global_size = [ Var "n"; Int_lit 4 ];
    local_size = [];
  }

let racy_env =
  Check.env
    ~param_value:(function "n" -> Some 8 | _ -> None)
    ~buffer_elems:(function "out" | "src" -> Some 8 | _ -> None)
    ()

let test_racy_kernel_static () =
  let r = Check.check racy_env racy_kernel in
  match (buf_report r "out").Check.b_race with
  | Check.Unsafe w ->
      Alcotest.(check int) "witness names two work-items" 2 (List.length w.Check.w_gids);
      Alcotest.(check string) "witness buffer" "out" w.Check.w_buf;
      (match w.Check.w_gids with
      | [ (x1, _, _); (x2, _, _) ] ->
          Alcotest.(check int) "colliding work-items share gid0" x1 x2
      | _ -> assert false);
      Alcotest.(check bool) "report not ok" false (Check.ok r)
  | v -> Alcotest.failf "racy kernel: expected Unsafe race, got %s" (verdict_label v)

let test_racy_kernel_dynamic () =
  let s = Vgpu.Sanitizer.create () in
  let out = Vgpu.Buffer.F (Array.make 8 0.) in
  Vgpu.Sanitizer.note_host_write s out;
  Vgpu.Sanitizer.launch s racy_kernel
    ~args:[ Vgpu.Args.Buf out; Vgpu.Args.Int_arg 8 ]
    ~global:[ 8; 4 ];
  let c = Vgpu.Sanitizer.counts s in
  Alcotest.(check bool) "dynamic write races detected" true (c.Vgpu.Sanitizer.n_races > 0);
  match Vgpu.Sanitizer.violations s with
  | { Vgpu.Sanitizer.v_kind = Write_race _; v_buf = "out"; v_kernel = "racy"; _ } :: _ -> ()
  | v :: _ -> Alcotest.failf "first violation is not a race on out: %a" Vgpu.Sanitizer.pp_violation v
  | [] -> Alcotest.fail "no violation retained"

(* -- Off-by-one: caught statically and dynamically ------------------- *)

let off_by_one =
  let open Cast in
  {
    name = "off_by_one";
    params = [ param "out" Real; param ~kind:Scalar_param "n" Int ];
    body = [ Store ("out", Global_id 0 +: int_lit 1, Real_lit 2.0) ];
    precision = Double;
    global_size = [ Var "n" ];
    local_size = [];
  }

(* The same slip in a load, in the second argument of a builtin call
   whose first argument is itself a load: every argument is checked. *)
let off_by_one_call =
  let open Cast in
  {
    off_by_one with
    name = "off_by_one_call";
    params = [ param "out" Real; param "src" Real; param ~kind:Scalar_param "n" Int ];
    body =
      [
        Store
          ( "out",
            Global_id 0,
            Call (Fmax, [ Load ("src", Global_id 0); Load ("src", Global_id 0 +: int_lit 1) ]) );
      ];
  }

(* The verifying runtime refuses to dispatch the racy kernel and the
   off-by-one load; safe kernels pass. *)
let test_runtime_fail_fast () =
  let rt = Vgpu.Runtime.create ~verify:true () in
  Vgpu.Runtime.bind rt "out" (Vgpu.Buffer.F (Array.make 8 0.));
  Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F (Array.make 8 0.));
  let launch ?(bufs = [ "out" ]) k global =
    let args = List.map (fun b -> Vgpu.Runtime.A_buf b) bufs @ [ Vgpu.Runtime.A_int 8 ] in
    Vgpu.Runtime.run_op rt (Vgpu.Runtime.Launch { kernel = k; args; global; spans = None })
  in
  let refused ?bufs k global =
    match launch ?bufs k global with
    | () -> Alcotest.failf "verifying runtime dispatched %s" k.Cast.name
    | exception Vgpu.Runtime.Unsafe_kernel r ->
        Alcotest.(check string) "report names the kernel" k.Cast.name r.Check.r_kernel
  in
  refused racy_kernel [ 8; 4 ];
  refused ~bufs:[ "out"; "src" ] off_by_one_call [ 8 ];
  let safe = { racy_kernel with name = "safe1d"; global_size = [ Cast.Var "n" ] } in
  launch safe [ 8 ];
  Alcotest.(check (float 0.)) "safe kernel ran" 1.0
    (match Vgpu.Runtime.buffer rt "out" with
    | Vgpu.Buffer.F a -> a.(7)
    | _ -> nan)

let test_off_by_one_both_legs () =
  let r = Check.check racy_env off_by_one in
  (match (buf_report r "out").Check.b_bounds with
  | Check.Unsafe w ->
      Alcotest.(check int) "witness index is one past the end" 8 w.Check.w_index
  | v -> Alcotest.failf "off-by-one bounds: expected Unsafe, got %s" (verdict_label v));
  let s = Vgpu.Sanitizer.create () in
  let out = Vgpu.Buffer.F (Array.make 8 0.) in
  Vgpu.Sanitizer.note_host_write s out;
  Vgpu.Sanitizer.launch s off_by_one
    ~args:[ Vgpu.Args.Buf out; Vgpu.Args.Int_arg 8 ]
    ~global:[ 8 ];
  let c = Vgpu.Sanitizer.counts s in
  Alcotest.(check int) "one OOB store" 1 c.Vgpu.Sanitizer.n_oob;
  (* the offending store was suppressed, not applied *)
  (match out with
  | Vgpu.Buffer.F a -> Alcotest.(check (float 0.)) "in-bounds cells written" 2.0 a.(7)
  | _ -> assert false);
  let r = Check.check racy_env off_by_one_call in
  (match (buf_report r "src").Check.b_bounds with
  | Check.Unsafe w ->
      Alcotest.(check int) "load witness index is one past the end" 8 w.Check.w_index
  | v -> Alcotest.failf "off-by-one load bounds: expected Unsafe, got %s" (verdict_label v));
  let s = Vgpu.Sanitizer.create () in
  let src = Vgpu.Buffer.F (Array.make 8 1.) in
  Vgpu.Sanitizer.note_host_write s out;
  Vgpu.Sanitizer.note_host_write s src;
  Vgpu.Sanitizer.launch s off_by_one_call
    ~args:[ Vgpu.Args.Buf out; Vgpu.Args.Buf src; Vgpu.Args.Int_arg 8 ]
    ~global:[ 8 ];
  Alcotest.(check int) "one OOB load" 1 (Vgpu.Sanitizer.counts s).Vgpu.Sanitizer.n_oob

(* -- Exec_error carries structured context --------------------------- *)

let test_exec_error_structure () =
  let open Cast in
  let bad =
    {
      name = "bad";
      params = [ param "out" Real ];
      body = [ Store ("out", Global_id 0, Var "nope") ];
      precision = Double;
      global_size = [ Int_lit 2 ];
      local_size = [];
    }
  in
  match Vgpu.Exec.launch bad ~args:[ Vgpu.Args.Buf (Vgpu.Buffer.F (Array.make 2 0.)) ] ~global:[ 2 ] with
  | () -> Alcotest.fail "expected Exec_error"
  | exception Vgpu.Exec.Exec_error { e_kernel; e_gid; e_context } ->
      Alcotest.(check string) "kernel name" "bad" e_kernel;
      Alcotest.(check bool) "work-item attributed" true (e_gid = (0, 0, 0));
      Alcotest.(check bool) "context mentions the name" true
        (String.length e_context > 0)

(* -- qcheck: static Safe implies dynamically clean ------------------- *)

(* Random affine store kernels out[ax*x + ay*y + b] = f(src[i1], src[i2])
   over random NDRanges and extents, [f] a two-argument builtin and both
   loads at random affine indices.  Whatever the static verdicts, a Safe
   race verdict must mean zero dynamic races and a Safe bounds verdict
   zero dynamic OOB on that buffer — the soundness direction the whole
   design rests on. *)
let qcheck_static_safe_is_dynamically_clean =
  let affine = QCheck.Gen.(triple (int_range 0 4) (int_range 0 4) (int_range 0 3)) in
  let gen =
    QCheck.Gen.(
      pair
        (tup6 (int_range 1 6) (int_range 1 6) (int_range 0 4) (int_range 0 4) (int_range 0 3)
           (int_range 1 40))
        (quad affine affine (int_range 1 40) bool))
  in
  let print ((gx, gy, ax, ay, b, elems), ((a1, b1, c1), (a2, b2, c2), src_elems, fmax)) =
    Printf.sprintf
      "ndrange %dx%d, out[%d*x + %d*y + %d] (%d elems) = %s(src[%d*x + %d*y + %d], \
       src[%d*x + %d*y + %d]) (%d elems)"
      gx gy ax ay b elems
      (if fmax then "fmax" else "fmin")
      a1 b1 c1 a2 b2 c2 src_elems
  in
  QCheck.Test.make ~name:"static Safe => zero dynamic violations" ~count:300
    (QCheck.make ~print gen)
    (fun ((gx, gy, ax, ay, b, elems), (i1, i2, src_elems, fmax)) ->
      let open Cast in
      let affine (ax, ay, b) =
        (int_lit ax *: Global_id 0) +: (int_lit ay *: Global_id 1) +: int_lit b
      in
      let value =
        Call ((if fmax then Fmax else Fmin), [ Load ("src", affine i1); Load ("src", affine i2) ])
      in
      let k =
        {
          name = "affine";
          params = [ param "out" Real; param "src" Real ];
          body = [ Store ("out", affine (ax, ay, b), value) ];
          precision = Double;
          global_size = [ Int_lit gx; Int_lit gy ];
          local_size = [];
        }
      in
      let env =
        Check.env
          ~buffer_elems:(function "out" -> Some elems | "src" -> Some src_elems | _ -> None)
          ()
      in
      let r = Check.check env k in
      let s = Vgpu.Sanitizer.create ~max_kept:1000 () in
      let out = Vgpu.Buffer.F (Array.make elems 0.) in
      let src = Vgpu.Buffer.F (Array.make src_elems 1.) in
      Vgpu.Sanitizer.note_host_write s out;
      Vgpu.Sanitizer.note_host_write s src;
      Vgpu.Sanitizer.launch s k ~args:[ Vgpu.Args.Buf out; Vgpu.Args.Buf src ] ~global:[ gx; gy ];
      let c = Vgpu.Sanitizer.counts s in
      let oob buf =
        List.exists
          (fun v ->
            v.Vgpu.Sanitizer.v_buf = buf
            && (v.Vgpu.Sanitizer.v_kind = Oob_load || v.Vgpu.Sanitizer.v_kind = Oob_store))
          (Vgpu.Sanitizer.violations s)
      in
      let race_sound =
        match (buf_report r "out").Check.b_race with
        | Check.Safe -> c.Vgpu.Sanitizer.n_races = 0
        | Check.Unsafe w ->
            (* witnesses are concrete; a collision on an out-of-bounds
               cell surfaces as OOB (the sanitizer suppresses the store
               before it can register a writer) *)
            if w.Check.w_index >= 0 && w.Check.w_index < elems then
              c.Vgpu.Sanitizer.n_races > 0
            else oob "out"
        | Check.Unproven _ -> true
      in
      let bounds_sound buf =
        match (buf_report r buf).Check.b_bounds with
        | Check.Safe -> not (oob buf)
        | Check.Unsafe _ -> oob buf
        | Check.Unproven _ -> true
      in
      race_sound && bounds_sound "out" && bounds_sound "src")

(* -- Sanitized sharded FD-MM: clean and bit-identical ---------------- *)

let test_sanitized_fd_mm_sharded () =
  List.iter
    (fun precision ->
      let kernels =
        [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]
      in
      let run ~sanitize =
        let room = Geometry.build ~n_materials:4 Geometry.Box dims in
        let sim =
          Gpu_sim.create ~engine:`Interp ~shards:2 ~sanitize ~fi_beta:0.2 ~n_branches:3
            params room
        in
        let cx, cy, cz = State.centre sim.Gpu_sim.state in
        State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
        for _ = 1 to 5 do
          Gpu_sim.step sim kernels
        done;
        Gpu_sim.sync sim;
        sim
      in
      let plain = run ~sanitize:false and checked = run ~sanitize:true in
      let label =
        match precision with Cast.Single -> "single" | Cast.Double -> "double"
      in
      (match Gpu_sim.violations checked with
      | Some c ->
          if Vgpu.Sanitizer.total c > 0 then
            Alcotest.failf "fd-mm %s sharded: %d violation(s): %a" label
              (Vgpu.Sanitizer.total c) Vgpu.Sanitizer.pp_counts c
      | None -> Alcotest.fail "sanitize:true but no violation counts");
      Alcotest.(check int) "one sanitizer per device" 2
        (List.length (Gpu_sim.sanitizers checked));
      Test_util.check_bits
        (Printf.sprintf "fd-mm %s sharded sanitized curr" label)
        plain.Gpu_sim.state.State.curr checked.Gpu_sim.state.State.curr;
      Test_util.check_bits
        (Printf.sprintf "fd-mm %s sharded sanitized g1" label)
        plain.Gpu_sim.state.State.g1 checked.Gpu_sim.state.State.g1)
    [ Cast.Double; Cast.Single ]

(* -- Host-plan lint --------------------------------------------------- *)

let volume_args ~gpu p =
  let open Lift.Host in
  let open Lift_acoustics.Programs in
  let buf name ty = if gpu then to_gpu (input (p name ty)) else input (p name ty) in
  [
    buf "nbrs" nbrs_ty;
    buf "prev" grid_ty;
    buf "curr" grid_ty;
    buf "next" grid_ty;
    H_int 14;
    H_int (14 * 12);
    H_real (Params.l2 params);
  ]

let lint_codes issues = List.map (fun i -> i.Lift.Lint.code) issues

let test_lint_host () =
  let open Lift.Host in
  let p name ty = Lift.Ast.named_param name ty in
  let volume_lam = Lift_acoustics.Programs.volume () in
  (* clean program: everything transferred, then consumed *)
  let good = to_host (ocl_kernel ~name:"volume" volume_lam (volume_args ~gpu:true p)) in
  Alcotest.(check (list string)) "clean program" [] (lint_codes (Lift.Lint.check_host good));
  (* same launch without the transfers: one error per buffer operand *)
  let bad = to_host (ocl_kernel ~name:"volume" volume_lam (volume_args ~gpu:false p)) in
  let codes = lint_codes (Lift.Lint.check_host bad) in
  Alcotest.(check (list string)) "use-before-togpu per buffer"
    [ "use-before-togpu"; "use-before-togpu"; "use-before-togpu"; "use-before-togpu" ]
    codes;
  (* a transferred buffer that is never consumed *)
  let dead =
    H_tuple
      [
        to_gpu (input (p "unused" Lift_acoustics.Programs.grid_ty));
        to_host (ocl_kernel ~name:"volume" volume_lam (volume_args ~gpu:true p));
      ]
  in
  Alcotest.(check bool) "dead transfer reported" true
    (List.mem "dead-transfer" (lint_codes (Lift.Lint.check_host dead)));
  Alcotest.(check (list string)) "dead transfer is a warning, not an error" []
    (lint_codes (Lift.Lint.errors (Lift.Lint.check_host dead)));
  (* arity mismatch: one argument against the 7-parameter lambda *)
  let wrong =
    to_host
      (ocl_kernel ~name:"volume" volume_lam
         [ to_gpu (input (p "nbrs" Lift_acoustics.Programs.nbrs_ty)) ])
  in
  (* the mismatched call also strands its transferred argument *)
  Alcotest.(check (list string)) "arity mismatch"
    [ "arity-mismatch"; "dead-transfer" ]
    (lint_codes (Lift.Lint.check_host wrong));
  (* kind mismatch: buffer where the Nx scalar belongs *)
  let swapped =
    let open Lift_acoustics.Programs in
    to_host
      (ocl_kernel ~name:"volume" volume_lam
         [
           to_gpu (input (p "nbrs" nbrs_ty));
           to_gpu (input (p "prev" grid_ty));
           to_gpu (input (p "curr" grid_ty));
           to_gpu (input (p "next" grid_ty));
           to_gpu (input (p "extra" grid_ty));
           H_int (14 * 12);
           H_real (Params.l2 params);
         ])
  in
  Alcotest.(check bool) "kind mismatch reported" true
    (List.mem "kind-mismatch" (lint_codes (Lift.Lint.check_host swapped)))

(* The real 2-shard FI plan under the halo verifier: with its exchanges
   it is clean; without them the second step reads stale ghost planes. *)
let test_lint_sharded () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim = Gpu_sim.create ~engine:`Native ~shards:2 ~fi_beta:0.2 ~n_branches:3 params room in
  let nx, ny, planes = Gpu_sim.slab_geometry sim in
  let slab = { Lift.Lint.sl_nx = nx; sl_ny = ny; sl_planes = planes } in
  let kernels =
    [ Hand_kernels.volume ~precision:Cast.Double; Hand_kernels.boundary_fi ~precision:Cast.Double ]
  in
  let plan ~steps ~exchanged =
    List.filter
      (fun (o : Vgpu.Multi.async_op) ->
        match o.Vgpu.Multi.a_op with Vgpu.Multi.Exchange _ -> exchanged | _ -> true)
      (Gpu_sim.plan sim kernels ~steps)
  in
  let error_codes p = lint_codes (Lift.Lint.errors (Lift.Lint.verify_async slab p)) in
  Alcotest.(check (list string)) "exchanged plan is clean" []
    (error_codes (plan ~steps:2 ~exchanged:true));
  Alcotest.(check bool) "missing exchange flagged" true
    (List.mem "stale-halo" (error_codes (plan ~steps:2 ~exchanged:false)));
  (* a single step has no successor: nothing to flag *)
  Alcotest.(check (list string)) "single step is clean" []
    (error_codes (plan ~steps:1 ~exchanged:false))

(* -- Emitted C: every buffer concretely sized ------------------------ *)

let test_emit_c_sized () =
  let open Lift.Host in
  let p name ty = Lift.Ast.named_param name ty in
  let prog =
    to_host
      (ocl_kernel ~name:"volume" (Lift_acoustics.Programs.volume ()) (volume_args ~gpu:true p))
  in
  let sizes = function "N" -> Some (14 * 12 * 10) | _ -> None in
  let compiled = Lift.Host.compile ~sizes prog in
  Alcotest.(check bool) "compiler resolved every extent" true
    (List.for_all (fun (_, n) -> n > 0) compiled.Lift.Host.buffer_elems);
  let c = Lift.Emit_c.host_program compiled in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no unsized allocation" false
    (contains "extent not statically derivable" c);
  Alcotest.(check bool) "no size TODO" false (contains "TODO: size" c);
  Alcotest.(check bool) "grid extent appears" true
    (contains (string_of_int (14 * 12 * 10)) c)

let suite =
  [
    Alcotest.test_case "paper kernels: static verdicts" `Quick test_paper_kernel_verdicts;
    Alcotest.test_case "verdicts invariant under optimizer" `Quick
      test_verdicts_invariant_under_opt;
    Alcotest.test_case "racy kernel: static Unsafe witness" `Quick test_racy_kernel_static;
    Alcotest.test_case "racy kernel: dynamic race report" `Quick test_racy_kernel_dynamic;
    Alcotest.test_case "verifying runtime fails fast" `Quick test_runtime_fail_fast;
    Alcotest.test_case "off-by-one caught by both legs" `Quick test_off_by_one_both_legs;
    Alcotest.test_case "Exec_error carries context" `Quick test_exec_error_structure;
    QCheck_alcotest.to_alcotest qcheck_static_safe_is_dynamically_clean;
    Alcotest.test_case "sanitized sharded fd-mm: clean, bit-identical" `Quick
      test_sanitized_fd_mm_sharded;
    Alcotest.test_case "host-plan lint" `Quick test_lint_host;
    Alcotest.test_case "sharded-plan lint" `Quick test_lint_sharded;
    Alcotest.test_case "emitted C is fully sized" `Quick test_emit_c_sized;
  ]
