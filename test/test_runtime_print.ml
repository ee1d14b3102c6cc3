(* The host runtime, the OpenCL printer and the standalone C emitter. *)

open Kernel_ast

let double_kernel =
  let open Cast in
  {
    name = "scale";
    precision = Double;
    params = [ param "a" Real; param ~kind:Scalar_param "k" Real; param ~kind:Scalar_param "n" Int ];
    global_size = [ Var "n" ];
    local_size = [];
    body =
      [
        Decl (Int, "i", Some (Global_id 0));
        If
          ( Binop (Lt, Var "i", Var "n"),
            [ Store ("a", Var "i", Binop (Mul, Load ("a", Var "i"), Var "k")) ],
            [] );
      ];
  }

let test_runtime_plan () =
  let rt = Vgpu.Runtime.create () in
  let data = [| 1.; 2.; 3.; 4. |] in
  Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F data);
  let plan : Vgpu.Runtime.plan =
    [
      Vgpu.Runtime.Copy_to_gpu "a";
      Vgpu.Runtime.Alloc { name = "scratch"; ty = Cast.Real; elems = 8 };
      Vgpu.Runtime.Launch
        {
          kernel = double_kernel;
          args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real 10.; Vgpu.Runtime.A_int 4 ];
          global = [ 4 ];
          spans = None;
        };
      Vgpu.Runtime.Copy_to_host "a";
    ]
  in
  Vgpu.Runtime.run rt plan;
  Alcotest.(check (list (float 0.))) "kernel ran" [ 10.; 20.; 30.; 40. ] (Array.to_list data);
  Alcotest.(check int) "one launch" 1 rt.Vgpu.Runtime.launches;
  Alcotest.(check int) "h2d bytes" (8 * 4) rt.Vgpu.Runtime.h2d_bytes;
  Alcotest.(check int) "d2h bytes" (8 * 4) rt.Vgpu.Runtime.d2h_bytes;
  Alcotest.(check int) "scratch allocated" 8 (Vgpu.Buffer.length (Vgpu.Runtime.buffer rt "scratch"));
  (* unknown buffer is an error *)
  (match Vgpu.Runtime.run rt [ Vgpu.Runtime.Copy_to_gpu "ghost" ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "unknown buffer accepted");
  (* both engines execute the same plan *)
  let rt2 = Vgpu.Runtime.create ~engine:Vgpu.Runtime.Interp () in
  let data2 = [| 1.; 2. |] in
  Vgpu.Runtime.bind rt2 "a" (Vgpu.Buffer.F data2);
  Vgpu.Runtime.run rt2
    [ Vgpu.Runtime.Launch
        { kernel = double_kernel;
          args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real 3.; Vgpu.Runtime.A_int 2 ];
          global = [ 2 ];
          spans = None } ];
  Alcotest.(check (list (float 0.))) "interp engine" [ 3.; 6. ] (Array.to_list data2)

(* Alloc reuse must be validated: rebinding a name is fine only when the
   existing buffer matches the plan's element type and count. *)
let test_alloc_validation () =
  let rt = Vgpu.Runtime.create () in
  let alloc ?(name = "s") ty elems = Vgpu.Runtime.Alloc { name; ty; elems } in
  (* first alloc, then an identical one reusing the binding *)
  Vgpu.Runtime.run rt [ alloc Cast.Real 8; alloc Cast.Real 8 ];
  let b = Vgpu.Runtime.buffer rt "s" in
  Vgpu.Runtime.run rt [ alloc Cast.Real 8 ];
  Alcotest.(check bool) "matching alloc reuses the buffer" true (b == Vgpu.Runtime.buffer rt "s");
  (* size mismatch rejected *)
  (match Vgpu.Runtime.run rt [ alloc Cast.Real 16 ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "size-mismatched alloc reuse accepted");
  (* type mismatch rejected *)
  match Vgpu.Runtime.run rt [ alloc Cast.Int 8 ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "type-mismatched alloc reuse accepted"

(* Transfers are costed at the runtime's precision: a single-precision
   GPU moves 4 bytes per real element, not 8. *)
let test_transfer_precision () =
  let count precision =
    let rt = Vgpu.Runtime.create ~precision () in
    Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F (Array.make 6 0.));
    Vgpu.Runtime.bind rt "i" (Vgpu.Buffer.I (Array.make 6 0));
    Vgpu.Runtime.run rt
      [ Vgpu.Runtime.Copy_to_gpu "a"; Vgpu.Runtime.Copy_to_gpu "i";
        Vgpu.Runtime.Copy_to_host "a" ];
    (rt.Vgpu.Runtime.h2d_bytes, rt.Vgpu.Runtime.d2h_bytes)
  in
  Alcotest.(check (pair int int)) "double: 8B reals + 4B ints"
    ((6 * 8) + (6 * 4), 6 * 8)
    (count Cast.Double);
  Alcotest.(check (pair int int)) "single: 4B reals + 4B ints"
    ((6 * 4) + (6 * 4), 6 * 4)
    (count Cast.Single)

(* Copy_buffer moves a sub-buffer slice device-side and accounts the
   bytes at the runtime's precision. *)
let test_copy_buffer () =
  let run precision =
    let rt = Vgpu.Runtime.create ~precision () in
    Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F [| 0.; 1.; 2.; 3.; 4.; 5. |]);
    Vgpu.Runtime.bind rt "dst" (Vgpu.Buffer.F (Array.make 6 9.));
    Vgpu.Runtime.run rt
      [ Vgpu.Runtime.Copy_buffer { src = "src"; src_off = 2; dst = "dst"; dst_off = 1; elems = 3 } ];
    let dst =
      match Vgpu.Runtime.buffer rt "dst" with
      | Vgpu.Buffer.F a -> a
      | _ -> Alcotest.fail "dst is not a real buffer"
    in
    (Array.to_list dst, rt.Vgpu.Runtime.d2d_bytes)
  in
  let dst, bytes = run Cast.Double in
  Alcotest.(check (list (float 0.))) "slice copied" [ 9.; 2.; 3.; 4.; 9.; 9. ] dst;
  Alcotest.(check int) "double d2d bytes" (3 * 8) bytes;
  let _, bytes_s = run Cast.Single in
  Alcotest.(check int) "single d2d bytes" (3 * 4) bytes_s;
  (* int buffers move 4 bytes per element regardless of precision *)
  let rt = Vgpu.Runtime.create () in
  Vgpu.Runtime.bind rt "si" (Vgpu.Buffer.I [| 1; 2; 3; 4 |]);
  Vgpu.Runtime.bind rt "di" (Vgpu.Buffer.I (Array.make 4 0));
  Vgpu.Runtime.run rt
    [ Vgpu.Runtime.Copy_buffer { src = "si"; src_off = 0; dst = "di"; dst_off = 0; elems = 4 } ];
  Alcotest.(check int) "int d2d bytes" (4 * 4) rt.Vgpu.Runtime.d2d_bytes;
  (* type-mismatched endpoints rejected, as by clEnqueueCopyBuffer *)
  Vgpu.Runtime.bind rt "df" (Vgpu.Buffer.F (Array.make 4 0.));
  match
    Vgpu.Runtime.run rt
      [ Vgpu.Runtime.Copy_buffer { src = "si"; src_off = 0; dst = "df"; dst_off = 0; elems = 4 } ]
  with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "int->real copy accepted"

(* Multi: per-device isolation, cross-device Exchange, stats merging. *)
let test_multi_devices () =
  let multi = Vgpu.Multi.create ~devices:2 () in
  Alcotest.(check int) "device count" 2 (Vgpu.Multi.n_devices multi);
  let a0 = [| 1.; 2.; 3.; 4. |] and a1 = [| 5.; 6.; 7.; 8. |] in
  Vgpu.Multi.bind multi 0 "a" (Vgpu.Buffer.F a0);
  Vgpu.Multi.bind multi 1 "a" (Vgpu.Buffer.F a1);
  let launch dev k_scale =
    Vgpu.Multi.Dev
      ( dev,
        Vgpu.Runtime.Launch
          {
            kernel = double_kernel;
            args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real k_scale; Vgpu.Runtime.A_int 4 ];
            global = [ 4 ];
            spans = None;
          } )
  in
  Vgpu.Multi.run multi
    [
      launch 0 10.;
      launch 1 100.;
      launch 1 100.;
      (* device 1's last element -> device 0's first slot *)
      Vgpu.Multi.Exchange
        { src_dev = 1; src = "a"; src_off = 3; dst_dev = 0; dst = "a"; dst_off = 0; elems = 1 };
    ];
  Alcotest.(check (list (float 0.))) "device 0 scaled + ghost" [ 80000.; 20.; 30.; 40. ]
    (Array.to_list a0);
  Alcotest.(check (list (float 0.))) "device 1 scaled twice" [ 50000.; 60000.; 70000.; 80000. ]
    (Array.to_list a1);
  (* aggregate: launches sum, per-kernel entries merge by name, d2d on
     the source device only *)
  let s = Vgpu.Multi.stats multi in
  Alcotest.(check int) "aggregate launches" 3 s.Vgpu.Runtime.s_launches;
  Alcotest.(check int) "aggregate d2d bytes" 8 s.Vgpu.Runtime.s_d2d_bytes;
  (match s.Vgpu.Runtime.per_kernel with
  | [ ("scale", ks) ] -> Alcotest.(check int) "merged launches" 3 ks.Vgpu.Runtime.k_launches
  | l -> Alcotest.failf "expected one merged kernel entry, got %d" (List.length l));
  (match Vgpu.Multi.per_device_stats multi with
  | [ (0, s0); (1, s1) ] ->
      Alcotest.(check int) "device 0 launches" 1 s0.Vgpu.Runtime.s_launches;
      Alcotest.(check int) "device 1 launches" 2 s1.Vgpu.Runtime.s_launches;
      Alcotest.(check int) "d2d charged to source" 8 s1.Vgpu.Runtime.s_d2d_bytes;
      Alcotest.(check int) "none on destination" 0 s0.Vgpu.Runtime.s_d2d_bytes
  | _ -> Alcotest.fail "expected two per-device entries");
  ignore (Fmt.str "%a" Vgpu.Multi.pp_stats multi);
  Vgpu.Multi.reset_stats multi;
  Alcotest.(check int) "reset" 0 (Vgpu.Multi.stats multi).Vgpu.Runtime.s_launches

(* Per-kernel launch stats accumulate and reset. *)
let test_launch_stats () =
  let rt = Vgpu.Runtime.create () in
  let data = Array.make 4 1. in
  Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F data);
  let launch =
    Vgpu.Runtime.Launch
      {
        kernel = double_kernel;
        args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real 2.; Vgpu.Runtime.A_int 4 ];
        global = [ 4 ];
        spans = None;
      }
  in
  Vgpu.Runtime.run rt [ launch; launch; launch ];
  let s = Vgpu.Runtime.stats rt in
  Alcotest.(check int) "total launches" 3 s.Vgpu.Runtime.s_launches;
  (match s.Vgpu.Runtime.per_kernel with
  | [ (name, ks) ] ->
      Alcotest.(check string) "kernel name" "scale" name;
      Alcotest.(check int) "per-kernel launches" 3 ks.Vgpu.Runtime.k_launches;
      Alcotest.(check int) "bytes bound (double)" (3 * 4 * 8) ks.Vgpu.Runtime.arg_bytes;
      Alcotest.(check bool) "min <= max" true (ks.Vgpu.Runtime.min_s <= ks.Vgpu.Runtime.max_s);
      Alcotest.(check bool) "total >= max" true (ks.Vgpu.Runtime.total_s >= ks.Vgpu.Runtime.max_s)
  | l -> Alcotest.failf "expected one kernel entry, got %d" (List.length l));
  (* pp_stats renders without raising *)
  ignore (Fmt.str "%a" Vgpu.Runtime.pp_stats s);
  Vgpu.Runtime.reset_stats rt;
  let s = Vgpu.Runtime.stats rt in
  Alcotest.(check int) "reset clears launches" 0 s.Vgpu.Runtime.s_launches;
  Alcotest.(check int) "reset clears kernels" 0 (List.length s.Vgpu.Runtime.per_kernel)

(* A stats value is a snapshot: steps taken after it leave its
   per-kernel records unchanged, on one device and per shard. *)
let test_stats_snapshot () =
  let open Acoustics in
  let room = Geometry.build ~n_materials:4 Geometry.Box (Geometry.dims ~nx:10 ~ny:8 ~nz:6) in
  let kernels = [ Hand_kernels.volume ~precision:Cast.Double; Hand_kernels.boundary_fi ~precision:Cast.Double ] in
  let volume_launches (s : Vgpu.Runtime.stats) =
    match List.assoc_opt "volume" s.Vgpu.Runtime.per_kernel with
    | Some k -> k.Vgpu.Runtime.k_launches
    | None -> Alcotest.fail "no volume entry"
  in
  List.iter
    (fun shards ->
      let label = match shards with None -> "one device" | Some n -> Printf.sprintf "%d shards" n in
      let sim = Gpu_sim.create ?shards ~fi_beta:0.2 ~n_branches:3 Params.default room in
      for _ = 1 to 3 do
        Gpu_sim.step sim kernels
      done;
      let s = Gpu_sim.stats sim and per = Gpu_sim.per_shard_stats sim in
      for _ = 1 to 5 do
        Gpu_sim.step sim kernels
      done;
      let n = Gpu_sim.n_shards sim in
      Alcotest.(check int) (label ^ ": launches") (6 * n) s.Vgpu.Runtime.s_launches;
      Alcotest.(check int) (label ^ ": volume launches") (3 * n) (volume_launches s);
      List.iter
        (fun (i, s) ->
          Alcotest.(check int) (Printf.sprintf "%s: device %d volume launches" label i) 3
            (volume_launches s))
        per;
      Alcotest.(check int) (label ^ ": a fresh value sees all 8 steps") (8 * n)
        (volume_launches (Gpu_sim.stats sim)))
    [ None; Some 2 ]

(* A launch the verifier refuses never ran, so it counts nowhere. *)
let test_refused_launch_not_counted () =
  let open Cast in
  let k =
    {
      name = "store_past_end";
      precision = Double;
      params = [ param "a" Real ];
      global_size = [ Int_lit 8 ];
      local_size = [];
      body = [ Store ("a", Global_id 0 +: Int_lit 1, Real_lit 1.) ];
    }
  in
  let rt = Vgpu.Runtime.create ~verify:true () in
  Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F (Array.make 8 0.));
  (match
     Vgpu.Runtime.run_op rt
       (Vgpu.Runtime.Launch
          { kernel = k; args = [ Vgpu.Runtime.A_buf "a" ]; global = [ 8 ]; spans = None })
   with
  | exception Vgpu.Runtime.Unsafe_kernel _ -> ()
  | () -> Alcotest.fail "the verifying runtime dispatched a store past the end");
  let s = Vgpu.Runtime.stats rt in
  Alcotest.(check int) "no launch counted" 0 s.Vgpu.Runtime.s_launches;
  Alcotest.(check int) "no kernel entry" 0 (List.length s.Vgpu.Runtime.per_kernel)

let test_printer () =
  let src = Print.kernel_to_string double_kernel in
  List.iter
    (fun needle ->
      if not (Test_util.contains src needle) then
        Alcotest.failf "missing %S in:\n%s" needle src)
    [
      "__kernel void scale";
      "__global double* restrict a";
      "const double k";
      "get_global_id(0)";
      "a[i] = a[i] * k;";
      "if (i < n) {";
    ];
  (* single precision renders float with f-suffixed literals *)
  let ks = { double_kernel with Cast.precision = Cast.Single } in
  let ks = { ks with Cast.body = Cast.Store ("a", Cast.Int_lit 0, Cast.Real_lit 0.5) :: ks.Cast.body } in
  let ssrc = Print.kernel_to_string ks in
  Alcotest.(check bool) "float type" true (Test_util.contains ssrc "__global float*");
  Alcotest.(check bool) "f suffix" true (Test_util.contains ssrc "0.5f");
  (* precedence: no spurious parentheses, required ones kept *)
  let e = Cast.(Binop (Mul, Binop (Add, Var "a", Var "b"), Var "c")) in
  Alcotest.(check string) "parens" "(a + b) * c" (Print.expr_to_string e);
  let e2 = Cast.(Binop (Add, Var "a", Binop (Mul, Var "b", Var "c"))) in
  Alcotest.(check string) "no parens" "a + b * c" (Print.expr_to_string e2)

(* The native C entries of the Lift-generated [volume] and
   [boundary_fd_mm] kernels, in the form a one-device FD-MM simulation
   renders them: optimized, with [nbrs] stored as bytes.  Their text
   keys the binary cache, so any change to the renderer shows here
   first.  Digits are stripped as in the OpenCL goldens. *)
let test_lift_native_c_golden () =
  let lift name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision:Cast.Double prog)
      .Lift.Codegen.kernel
  in
  let entry k = Native_c.entry_source (fst (Opt.optimize (Cast.with_u8 "nbrs" k))) in
  Test_golden.check_golden "volume (native C)"
    {|/* kernel volume (double precision) */
static inline __attribute__((always_inline))
void RK_BODY(const uint8_t * restrict nbrs,
             const double * restrict prev,
             const double * restrict curr,
             double * restrict next,
             int64_t Nx,
             int64_t NxNy,
             double l2,
             int64_t N,
             int64_t rk_gs0,
             int64_t rk_gs1,
             int64_t rk_gs2,
             const int64_t * rk_sp,
             int64_t rk_nsp)
{
  (void)rk_gs0; (void)rk_gs1; (void)rk_gs2;
  int64_t rk_v0_gid0 = 0;
  int64_t rk_v1_nbr = 0;
  double rk_v2_sel = 0.0;
  double rk_v3_s = 0.0;
  for (int64_t rk_s = 0; rk_s < rk_nsp; rk_s++)
  for (int64_t rk_g0 = rk_sp[2 * rk_s] >> 1, rk_e0 = rk_sp[2 * rk_s + 1] >> 1; rk_g0 < rk_e0; rk_g0++)
  {
    rk_v0_gid0 = rk_g0;
    if (rk_v0_gid0 < N) {
      rk_v1_nbr = ((int64_t)nbrs[rk_v0_gid0]);
      rk_v2_sel = 0.0;
      if (rk_v1_nbr > 0LL) {
        rk_v3_s = curr[rk_v0_gid0 - 1LL] + curr[rk_v0_gid0 + 1LL] + curr[rk_v0_gid0 - Nx] + curr[rk_v0_gid0 + Nx] + curr[rk_v0_gid0 - NxNy] + curr[rk_v0_gid0 + NxNy];
        rk_v2_sel = (2.0 - l2 * (double)(rk_v1_nbr)) * curr[rk_v0_gid0] + l2 * rk_v3_s - prev[rk_v0_gid0];
      } else {
        rk_v2_sel = 0.0;
      }
      next[rk_v0_gid0] = rk_v2_sel;
    }
  }
}

__attribute__((visibility("default")))
void RK_ENTRY(double **fb, int64_t **ib, uint8_t **u8b,
                       const int64_t *isc, const double *fsc, const int64_t *gsz,
                       const int64_t *rk_sp, int64_t rk_nsp)
{
  (void)fb; (void)ib; (void)u8b; (void)isc; (void)fsc;
  RK_BODY(u8b[0], fb[0], fb[1], fb[2], isc[0], isc[1], fsc[0], isc[2], gsz[0], gsz[1], gsz[2], rk_sp, rk_nsp);
}
|}
    (entry (lift "volume" (Lift_acoustics.Programs.volume ())));
  Test_golden.check_golden "boundary_fd_mm (native C)"
    {|/* kernel boundary_fd_mm (double precision) */
static inline __attribute__((always_inline))
void RK_BODY(const int64_t * restrict bidx,
             const uint8_t * restrict nbrs,
             const int64_t * restrict material,
             const double * restrict beta_fd,
             const double * restrict bi,
             const double * restrict d,
             const double * restrict f,
             const double * restrict di,
             const double * restrict prev,
             double * restrict next,
             double * restrict g1,
             const double * restrict v2,
             double * restrict v1,
             double l,
             int64_t N,
             int64_t NM,
             int64_t nB,
             int64_t rk_gs0,
             int64_t rk_gs1,
             int64_t rk_gs2,
             const int64_t * rk_sp,
             int64_t rk_nsp)
{
  (void)N; (void)NM; (void)rk_gs0; (void)rk_gs1; (void)rk_gs2;
  int64_t rk_v0_gid0 = 0;
  int64_t rk_v1__cse0 = 0;
  int64_t rk_v2__cse1 = 0;
  int64_t rk_v3_idx = 0;
  int64_t rk_v4_mi = 0;
  int64_t rk_v5_nbr = 0;
  double rk_v6_cf1 = 0.0;
  double rk_v7_cf = 0.0;
  double rk_v8_pv = 0.0;
  double rk_v9_priv[3] = {0};
  double rk_v10_priv[3] = {0};
  double rk_v11_acc = 0.0;
  int64_t rk_v12__cse5 = 0;
  int64_t rk_v13__cse4 = 0;
  int64_t rk_v14__cse3 = 0;
  double rk_v15_nvf = 0.0;
  double rk_v16__cse2 = 0.0;
  for (int64_t rk_s = 0; rk_s < rk_nsp; rk_s++)
  for (int64_t rk_g0 = rk_sp[2 * rk_s] >> 1, rk_e0 = rk_sp[2 * rk_s + 1] >> 1; rk_g0 < rk_e0; rk_g0++)
  {
    rk_v0_gid0 = rk_g0;
    rk_v1__cse0 = nB + rk_v0_gid0;
    rk_v2__cse1 = 2LL * nB + rk_v0_gid0;
    if (rk_v0_gid0 < nB) {
      rk_v3_idx = (bidx[rk_v0_gid0] >> 1);
      rk_v4_mi = (material[rk_v0_gid0] >> 1);
      rk_v5_nbr = ((int64_t)nbrs[rk_v3_idx]);
      rk_v6_cf1 = l * (double)(6LL - rk_v5_nbr);
      rk_v7_cf = 0.5 * rk_v6_cf1 * beta_fd[rk_v4_mi];
      rk_v8_pv = prev[rk_v3_idx];
      memset(rk_v9_priv, 0, sizeof(rk_v9_priv));
      rk_v9_priv[0LL] = g1[rk_v0_gid0];
      rk_v9_priv[1LL] = g1[rk_v1__cse0];
      rk_v9_priv[2LL] = g1[rk_v2__cse1];
      memset(rk_v10_priv, 0, sizeof(rk_v10_priv));
      rk_v10_priv[0LL] = v2[rk_v0_gid0];
      rk_v10_priv[1LL] = v2[rk_v1__cse0];
      rk_v10_priv[2LL] = v2[rk_v2__cse1];
      rk_v11_acc = next[rk_v3_idx];
      rk_v12__cse5 = rk_v4_mi * 3LL;
      rk_v11_acc = rk_v11_acc - rk_v6_cf1 * bi[rk_v12__cse5] * (2.0 * d[rk_v12__cse5] * rk_v10_priv[0LL] - f[rk_v12__cse5] * rk_v9_priv[0LL]);
      rk_v13__cse4 = rk_v12__cse5 + 1LL;
      rk_v11_acc = rk_v11_acc - rk_v6_cf1 * bi[rk_v13__cse4] * (2.0 * d[rk_v13__cse4] * rk_v10_priv[1LL] - f[rk_v13__cse4] * rk_v9_priv[1LL]);
      rk_v14__cse3 = rk_v12__cse5 + 2LL;
      rk_v11_acc = rk_v11_acc - rk_v6_cf1 * bi[rk_v14__cse3] * (2.0 * d[rk_v14__cse3] * rk_v10_priv[2LL] - f[rk_v14__cse3] * rk_v9_priv[2LL]);
      rk_v15_nvf = (rk_v11_acc + rk_v7_cf * rk_v8_pv) / (1.0 + rk_v7_cf);
      next[rk_v3_idx] = rk_v15_nvf;
      rk_v16__cse2 = rk_v15_nvf - rk_v8_pv;
      g1[rk_v0_gid0] = rk_v9_priv[0LL] + 0.5 * (bi[rk_v12__cse5] * (rk_v16__cse2 + di[rk_v12__cse5] * rk_v10_priv[0LL] - 2.0 * f[rk_v12__cse5] * rk_v9_priv[0LL]) + rk_v10_priv[0LL]);
      g1[rk_v1__cse0] = rk_v9_priv[1LL] + 0.5 * (bi[rk_v13__cse4] * (rk_v16__cse2 + di[rk_v13__cse4] * rk_v10_priv[1LL] - 2.0 * f[rk_v13__cse4] * rk_v9_priv[1LL]) + rk_v10_priv[1LL]);
      g1[rk_v2__cse1] = rk_v9_priv[2LL] + 0.5 * (bi[rk_v14__cse3] * (rk_v16__cse2 + di[rk_v14__cse3] * rk_v10_priv[2LL] - 2.0 * f[rk_v14__cse3] * rk_v9_priv[2LL]) + rk_v10_priv[2LL]);
      v1[rk_v0_gid0] = bi[rk_v12__cse5] * (rk_v16__cse2 + di[rk_v12__cse5] * rk_v10_priv[0LL] - 2.0 * f[rk_v12__cse5] * rk_v9_priv[0LL]);
      v1[rk_v1__cse0] = bi[rk_v13__cse4] * (rk_v16__cse2 + di[rk_v13__cse4] * rk_v10_priv[1LL] - 2.0 * f[rk_v13__cse4] * rk_v9_priv[1LL]);
      v1[rk_v2__cse1] = bi[rk_v14__cse3] * (rk_v16__cse2 + di[rk_v14__cse3] * rk_v10_priv[2LL] - 2.0 * f[rk_v14__cse3] * rk_v9_priv[2LL]);
    }
  }
}

__attribute__((visibility("default")))
void RK_ENTRY(double **fb, int64_t **ib, uint8_t **u8b,
                       const int64_t *isc, const double *fsc, const int64_t *gsz,
                       const int64_t *rk_sp, int64_t rk_nsp)
{
  (void)fb; (void)ib; (void)u8b; (void)isc; (void)fsc;
  RK_BODY(ib[0], u8b[0], ib[1], fb[0], fb[1], fb[2], fb[3], fb[4], fb[5], fb[6], fb[7], fb[8], fb[9], fsc[0], isc[0], isc[1], isc[2], gsz[0], gsz[1], gsz[2], rk_sp, rk_nsp);
}
|}
    (entry (lift "boundary_fd_mm" (Lift_acoustics.Programs.boundary_fd_mm ~mb:3 ())))

let test_simplify_examples () =
  let open Cast in
  let s e = Print.expr_to_string (simplify e) in
  Alcotest.(check string) "x+0" "x" (s (Binop (Add, Var "x", Int_lit 0)));
  Alcotest.(check string) "1*x" "x" (s (Binop (Mul, Int_lit 1, Var "x")));
  Alcotest.(check string) "0*x" "0" (s (Binop (Mul, Int_lit 0, Var "x")));
  Alcotest.(check string) "fold" "7" (s (Binop (Add, Int_lit 3, Int_lit 4)));
  Alcotest.(check string) "nested adds" "x + 5"
    (s (Binop (Add, Binop (Add, Var "x", Int_lit 2), Int_lit 3)));
  Alcotest.(check string) "true ternary" "a" (s (Ternary (Int_lit 1, Var "a", Var "b")));
  Alcotest.(check string) "and short circuit" "0" (s (Binop (And, Int_lit 0, Var "x")))

(* The standalone C emitter: structural invariants on the Listing 5
   program (the syntax was also checked against a compiler). *)
(* The FI-MM pipeline as a compiled host program (shared by the
   structural and the compile-the-artifact tests below). *)
let emit_c_compiled () =
  let dims = Acoustics.Geometry.dims ~nx:12 ~ny:10 ~nz:8 in
  let room = Acoustics.Geometry.build ~n_materials:4 Acoustics.Geometry.Box dims in
  let tables = Acoustics.Material.tables ~n_branches:3 Acoustics.Material.defaults in
  let p name ty = Lift.Ast.named_param name ty in
  let open Lift.Host in
  let open Lift_acoustics.Programs in
  let program =
    write_to
      (input (p "next" grid_ty))
      (ocl_kernel ~name:"boundary_fi_mm" (boundary_fi_mm ())
         [
           to_gpu (input (p "bidx" bidx_ty));
           to_gpu (input (p "nbrs" nbrs_ty));
           to_gpu (input (p "material" material_ty));
           to_gpu (input (p "beta" beta_ty));
           to_gpu (input (p "prev" grid_ty));
           to_gpu (input (p "next" grid_ty));
           H_real 0.57;
         ])
  in
  let sizes = function
    | "N" -> Some (Acoustics.Geometry.n_points dims)
    | "nB" -> Some (Acoustics.Geometry.n_boundary room)
    | "NM" -> Some (Array.length tables.Acoustics.Material.t_beta)
    | _ -> None
  in
  Lift.Host.compile ~sizes program

let test_emit_c () =
  let compiled = emit_c_compiled () in
  let c = Lift.Emit_c.host_program compiled in
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then
        Alcotest.failf "emitted C missing %S" needle)
    [
      "#include <CL/cl.h>";
      "clBuildProgram";
      "clCreateKernel(prog_0, \"boundary_fi_mm\"";
      "clEnqueueNDRangeKernel";
      "CL_PROFILING_COMMAND_END";
      "__kernel void boundary_fi_mm";
      "int main(void)";
    ];
  (* braces balance *)
  let count s ch = String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced braces" (count c '{') (count c '}');
  (* an iterated plan emits pointer swaps for the buffer rotation *)
  let plan2 = Lift.Host.iterate ~times:2 ~rotate:[ [ "prev"; "next" ] ] compiled in
  let c2 = Lift.Emit_c.host_program { compiled with Lift.Host.plan = plan2 } in
  Alcotest.(check bool) "swap emitted" true
    (Test_util.contains c2 "{ cl_mem t = d_prev; d_prev = d_next; d_next = t; }");
  Alcotest.(check int) "iterated braces balance" (count c2 '{') (count c2 '}')

let test_host_errors () =
  let open Lift.Host in
  let p = Lift.Ast.named_param "a" (Lift.Ty.array Lift.Ty.real (Lift.Size.var "N")) in
  (* kernel arity mismatch *)
  let f = { Lift.Ast.l_params = [ p ]; l_body = Lift.Ast.Param p } in
  (match compile ~sizes:(fun _ -> Some 4) (ocl_kernel ~name:"k" f []) with
  | exception Host_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted");
  (* unbound size variable *)
  let g =
    {
      Lift.Ast.l_params = [ p ];
      l_body =
        Lift.Ast.map_glb (Lift.Ast.lam1 Lift.Ty.real (fun x -> x)) (Lift.Ast.Param p);
    }
  in
  match compile ~sizes:(fun _ -> None) (ocl_kernel ~name:"k" g [ input p ]) with
  | exception Host_error _ -> ()
  | _ -> Alcotest.fail "unbound size accepted"

let test_harness_agreement () =
  let open Harness.Experiments in
  let row version model_s paper_ms =
    {
      platform = "X";
      version;
      size = 602;
      shape = Acoustics.Geometry.Box;
      precision = Kernel_ast.Cast.Double;
      model_s;
      paper_ms = Some paper_ms;
      throughput = 1.;
    }
  in
  (* model and paper agree that lift is slower: 1 agreement out of 1 *)
  let rows = [ row Hand 1e-3 1.0; row Lift_gen 1.5e-3 1.4 ] in
  let agree, total, _ = agreement rows in
  Alcotest.(check (pair int int)) "agrees" (1, 1) (agree, total);
  (* disagreement: model says lift faster, paper says slower *)
  let rows = [ row Hand 1e-3 1.0; row Lift_gen 0.5e-3 1.4 ] in
  let agree, total, _ = agreement rows in
  Alcotest.(check (pair int int)) "disagrees" (0, 1) (agree, total)


(* The emitted host program must be real, compilable C: render the
   Listing 5 pipeline, pair it with a stub <CL/cl.h> carrying the exact
   OpenCL 1.2 signatures it calls, and push it through the system C
   compiler in syntax-only mode.  Also pins emission determinism:
   buffers are declared in name order, so the same plan renders
   byte-identical C. *)
let cl_stub_header =
  {header|#ifndef RACS_CL_STUB_H
#define RACS_CL_STUB_H
#include <stddef.h>
typedef int cl_int;
typedef unsigned int cl_uint;
typedef unsigned long cl_ulong;
typedef float cl_float;
typedef double cl_double;
typedef cl_uint cl_bool;
typedef cl_ulong cl_bitfield;
typedef cl_bitfield cl_device_type;
typedef cl_bitfield cl_command_queue_properties;
typedef cl_bitfield cl_mem_flags;
typedef cl_uint cl_profiling_info;
typedef struct _cl_platform_id *cl_platform_id;
typedef struct _cl_device_id *cl_device_id;
typedef struct _cl_context *cl_context;
typedef struct _cl_command_queue *cl_command_queue;
typedef struct _cl_program *cl_program;
typedef struct _cl_kernel *cl_kernel;
typedef struct _cl_mem *cl_mem;
typedef struct _cl_event *cl_event;
#define CL_SUCCESS 0
#define CL_TRUE 1
#define CL_DEVICE_TYPE_GPU (1 << 2)
#define CL_QUEUE_PROFILING_ENABLE (1 << 1)
#define CL_MEM_READ_WRITE (1 << 0)
#define CL_PROFILING_COMMAND_START 0x1282
#define CL_PROFILING_COMMAND_END 0x1283
cl_int clGetPlatformIDs(cl_uint, cl_platform_id *, cl_uint *);
cl_int clGetDeviceIDs(cl_platform_id, cl_device_type, cl_uint, cl_device_id *, cl_uint *);
cl_context clCreateContext(const void *, cl_uint, const cl_device_id *,
                           void (*)(const char *, const void *, size_t, void *), void *,
                           cl_int *);
cl_command_queue clCreateCommandQueue(cl_context, cl_device_id, cl_command_queue_properties,
                                      cl_int *);
cl_program clCreateProgramWithSource(cl_context, cl_uint, const char **, const size_t *,
                                     cl_int *);
cl_int clBuildProgram(cl_program, cl_uint, const cl_device_id *, const char *,
                      void (*)(cl_program, void *), void *);
cl_kernel clCreateKernel(cl_program, const char *, cl_int *);
cl_mem clCreateBuffer(cl_context, cl_mem_flags, size_t, void *, cl_int *);
cl_int clSetKernelArg(cl_kernel, cl_uint, size_t, const void *);
cl_int clEnqueueWriteBuffer(cl_command_queue, cl_mem, cl_bool, size_t, size_t, const void *,
                            cl_uint, const cl_event *, cl_event *);
cl_int clEnqueueReadBuffer(cl_command_queue, cl_mem, cl_bool, size_t, size_t, void *, cl_uint,
                           const cl_event *, cl_event *);
cl_int clEnqueueCopyBuffer(cl_command_queue, cl_mem, cl_mem, size_t, size_t, size_t, cl_uint,
                           const cl_event *, cl_event *);
cl_int clEnqueueNDRangeKernel(cl_command_queue, cl_kernel, cl_uint, const size_t *,
                              const size_t *, const size_t *, cl_uint, const cl_event *,
                              cl_event *);
cl_int clWaitForEvents(cl_uint, const cl_event *);
cl_int clGetEventProfilingInfo(cl_event, cl_profiling_info, size_t, void *, size_t *);
#endif
|header}

let test_emit_c_compiles () =
  let compiled = emit_c_compiled () in
  let c = Lift.Emit_c.host_program compiled in
  (* determinism: a second render is byte-identical *)
  Alcotest.(check string) "deterministic emission" c (Lift.Emit_c.host_program compiled);
  let dir = Test_util.scratch_dir "emit-c" in
  (try Unix.mkdir (Filename.concat dir "CL") 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write (Filename.concat dir "CL/cl.h") cl_stub_header;
  let prog = Filename.concat dir "prog.c" in
  write prog c;
  let log = Filename.concat dir "cc.log" in
  let cmd =
    Printf.sprintf "cc -std=c99 -fsyntax-only -I %s %s 2> %s" (Filename.quote dir)
      (Filename.quote prog) (Filename.quote log)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then begin
    let ic = open_in log in
    let n = in_channel_length ic in
    let err = really_input_string ic n in
    close_in ic;
    Alcotest.failf "emitted host C does not compile (exit %d):\n%s" rc err
  end

let suite =
  [
    Alcotest.test_case "runtime plan execution" `Quick test_runtime_plan;
    Alcotest.test_case "alloc reuse validation" `Quick test_alloc_validation;
    Alcotest.test_case "precision-aware transfer accounting" `Quick test_transfer_precision;
    Alcotest.test_case "device-to-device sub-buffer copies" `Quick test_copy_buffer;
    Alcotest.test_case "multi-device plans and stats merging" `Quick test_multi_devices;
    Alcotest.test_case "per-kernel launch stats" `Quick test_launch_stats;
    Alcotest.test_case "stats are a snapshot" `Quick test_stats_snapshot;
    Alcotest.test_case "a refused launch is not counted" `Quick test_refused_launch_not_counted;
    Alcotest.test_case "OpenCL printer" `Quick test_printer;
    Alcotest.test_case "Lift volume and boundary_fd_mm: native C golden" `Quick
      test_lift_native_c_golden;
    Alcotest.test_case "expression simplifier" `Quick test_simplify_examples;
    Alcotest.test_case "standalone C emitter" `Quick test_emit_c;
    Alcotest.test_case "emitted host C compiles (stub OpenCL)" `Quick test_emit_c_compiles;
    Alcotest.test_case "host error handling" `Quick test_host_errors;
    Alcotest.test_case "harness agreement metric" `Quick test_harness_agreement;
  ]
