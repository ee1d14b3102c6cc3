(* The async-plan executor ([Vgpu.Multi.run_async]) and the overlapped
   (interior/frontier split) schedule.

   - Bit-identity: the [`Overlap] schedule and
     [Gpu_sim.step_overlap_with] under first-ready and last-ready picks
     reproduce the single-device native grid bit-for-bit, for the three
     schemes; a qcheck property drives the
     executor through *random* legal queue interleavings.  Sanitized,
     the schedule stays overlapped and reports no violation.

   - Hazard detection, both legs: dropping the frontier waits from an
     overlapped plan is caught statically by the flow verifier
     [Lift.Lint.verify_async] (unordered-ghost-read), and the same class
     of bug — a consumer launch scheduled before the halo exchange it
     needed — is caught dynamically by the shadow-memory sanitizer as an
     uninitialised read under [run_async].  A wait-drop property
     executes the mutants: every plan with dropped waits is rejected by
     the verifier or runs bit-identical to the intact plan.

   - Virtual time: signal→wait edges stall the waiting device's clock
     (the critical path is [max vclock], not the busy sum),
     [Multi.reset_stats] only ever advances a clock, an all-priced plan
     ends on the same clocks under any pick, a launch costs exactly its
     kernel window, and each simulation keeps its own clocks.  The
     executor rejects malformed plans.

   - The analytic model: [predict_overlapped] coincides with [predict]
     at one shard and never beats the sequential sharded prediction by
     more than the hidden halo/overlap terms allow.

   - The optimizer gate behind the trajectory bench: kernels the
     pipeline cannot improve come back physically identical ([==]), so
     raw and optimized runs share kernel caches; FD-MM still unrolls. *)

open Kernel_ast
open Acoustics

let params = Params.default
let dims = Geometry.dims ~nx:14 ~ny:12 ~nz:10
let steps = 8
let betas = (Material.tables ~n_branches:3 Material.defaults).Material.t_beta

let kernels_of scheme precision =
  match scheme with
  | `Fi -> [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi ~precision ]
  | `Fi_mm ->
      [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fi_mm ~precision ~betas ]
  | `Fd_mm ->
      [ Hand_kernels.volume ~precision; Hand_kernels.boundary_fd_mm ~precision ~mb:3 ]

let schemes = [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm) ]

let make ?shards ?schedule ?(precision = Cast.Double) () =
  let room = Geometry.build ~n_materials:4 Geometry.Box dims in
  let sim =
    Gpu_sim.create ~engine:`Native ?shards ?schedule ~precision ~fi_beta:0.2 ~n_branches:3
      params room
  in
  let cx, cy, cz = State.centre sim.Gpu_sim.state in
  State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
  sim

let check_state msg (a : State.t) (b : State.t) =
  Test_util.check_bits (msg ^ " curr") a.State.curr b.State.curr;
  Test_util.check_bits (msg ^ " prev") a.State.prev b.State.prev;
  Test_util.check_bits (msg ^ " g1") a.State.g1 b.State.g1;
  Test_util.check_bits (msg ^ " vel") a.State.vel_prev b.State.vel_prev

(* -- Bit-identity of the real pipelined schedule --------------------- *)

let test_overlap_bit_identical () =
  List.iter
    (fun (label, scheme) ->
      List.iter
        (fun precision ->
          let kernels = kernels_of scheme precision in
          let single = make ~precision () in
          for _ = 1 to steps do
            Gpu_sim.step single kernels
          done;
          List.iter
            (fun shards ->
              (* the replay at both extremes of the ready-queue choice *)
              List.iter
                (fun (pname, pick) ->
                  let rp = make ~shards ~schedule:`Seq ~precision () in
                  for _ = 1 to steps do
                    Gpu_sim.step_overlap_with ~pick rp kernels
                  done;
                  Gpu_sim.sync rp;
                  check_state
                    (Printf.sprintf "%s replay (%s) shards=%d" label pname shards)
                    single.Gpu_sim.state rp.Gpu_sim.state)
                [ ("first-ready", fun _ -> 0); ("last-ready", fun _ -> -1) ];
              let ov = make ~shards ~schedule:`Overlap ~precision () in
              for _ = 1 to steps do
                Gpu_sim.step ov kernels
              done;
              Gpu_sim.sync ov;
              check_state
                (Printf.sprintf "%s overlapped shards=%d" label shards)
                single.Gpu_sim.state ov.Gpu_sim.state;
              let o = Gpu_sim.overlap_stats ov in
              if o.Vgpu.Multi.o_span_ns <= 0. then
                Alcotest.failf "%s shards=%d: empty critical path" label shards;
              if o.Vgpu.Multi.o_busy_ns +. 1e-6 < o.Vgpu.Multi.o_span_ns then
                Alcotest.failf "%s shards=%d: critical path %.0f exceeds busy %.0f" label shards
                  o.Vgpu.Multi.o_span_ns o.Vgpu.Multi.o_busy_ns)
            [ 2; 3; 4 ])
        [ Cast.Double; Cast.Single ])
    schemes

(* -- Random legal interleavings via the deterministic replay --------- *)

let qcheck_interleavings_bit_identical =
  QCheck.Test.make ~name:"any legal queue interleaving is bit-identical to sequential"
    ~count:25
    QCheck.(pair (int_range 2 4) (list_of_size Gen.(return 31) small_nat))
    (fun (shards, picks) ->
      let picks = if picks = [] then [ 0 ] else picks in
      let n = List.length picks in
      let pick i = List.nth picks (i mod n) in
      List.for_all
        (fun (label, scheme) ->
          let kernels = kernels_of scheme Cast.Double in
          let seq = make ~shards ~schedule:`Seq () in
          let ov = make ~shards ~schedule:`Seq () in
          for s = 1 to 5 do
            Gpu_sim.step seq kernels;
            Gpu_sim.step_overlap_with ~pick:(fun k -> pick (k + s)) ov kernels
          done;
          Gpu_sim.sync seq;
          Gpu_sim.sync ov;
          let same =
            Array.for_all2
              (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
              seq.Gpu_sim.state.State.curr ov.Gpu_sim.state.State.curr
          in
          if not same then
            QCheck.Test.fail_reportf "%s: interleaving diverged (shards=%d)" label shards;
          true)
        schemes)

(* -- A dropped wait is caught statically ----------------------------- *)

let state_bufs = [ "g1"; "v1" ]

let verify sim plan =
  let nx, ny, planes = Gpu_sim.slab_geometry sim in
  Lift.Lint.verify_async ~halo:(Gpu_sim.tblock sim) ~state_bufs
    { Lift.Lint.sl_nx = nx; sl_ny = ny; sl_planes = planes }
    plan

let drop_waits ?only (plan : Vgpu.Multi.async_plan) =
  List.mapi
    (fun i (o : Vgpu.Multi.async_op) ->
      if only = None || only = Some i then { o with Vgpu.Multi.a_waits = [] } else o)
    plan

let test_missing_wait_caught_by_lint () =
  List.iter
    (fun (label, scheme) ->
      let kernels = kernels_of scheme Cast.Double in
      let sim = make ~shards:3 ~schedule:`Overlap () in
      let plan = Gpu_sim.plan sim kernels ~steps:3 in
      Alcotest.(check int)
        (label ^ ": correct overlapped plan verifies clean")
        0
        (List.length (Lift.Lint.errors (Lift.Lint.check_async plan @ verify sim plan)));
      let errs = Lift.Lint.errors (verify sim (drop_waits plan)) in
      Alcotest.(check bool)
        (label ^ ": the dropped frontier wait surfaces as an unordered ghost read")
        true
        (List.exists (fun (i : Lift.Lint.issue) -> i.Lift.Lint.code = "unordered-ghost-read") errs))
    schemes

(* -- Dropped waits: rejected, or harmless when executed --------------- *)

(* The mutation sweep's overlapped plans (every scheme on a 12x10x12
   dome, 3T steps at each (shards, T)) with waits dropped: all of them,
   or one op's.  A mutant the verifier accepts is executed through
   [Multi.run_async] from the same scattered state as the intact
   plan, under first-ready, last-ready and drawn picks, and must gather
   the same state bit for bit.  A fixed-stride subsample keeps the test
   fast while reaching every configuration: every other mutant is
   verified, and every fourth accepted one executed. *)
let test_wait_drops_rejected_or_harmless () =
  let room = Geometry.build ~n_materials:4 Geometry.Dome (Geometry.dims ~nx:12 ~ny:10 ~nz:12) in
  let picks =
    [ (fun _ -> 0); (fun _ -> -1); (fun k -> Hashtbl.hash (1, k)); (fun k -> Hashtbl.hash (2, k)) ]
  in
  let state_names = [ "prev"; "curr"; "next"; "g1"; "v2"; "v1" ] in
  let mutants = ref 0 and rejected = ref 0 and accepted = ref 0 and executed = ref 0 in
  List.iter
    (fun (label, scheme) ->
      let kernels = kernels_of scheme Cast.Double in
      List.iter
        (fun (shards, tblock) ->
          let sim =
            Gpu_sim.create ~engine:`Native ~shards ~schedule:`Overlap ~tblock ~fi_beta:0.1
              ~n_branches:3 params room
          in
          let cx, cy, cz = State.centre sim.Gpu_sim.state in
          State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
          let plan = Gpu_sim.plan sim kernels ~steps:(3 * Gpu_sim.tblock sim) in
          Gpu_sim.ensure_scattered sim;
          let multi = sim.Gpu_sim.multi in
          let initial =
            Array.init shards (fun i ->
                List.map
                  (fun name ->
                    (name, Vgpu.Buffer.copy (Vgpu.Runtime.buffer (Vgpu.Multi.device multi i) name)))
                  state_names)
          in
          let execute ~pick p =
            Array.iteri
              (fun i bufs ->
                List.iter (fun (name, b) -> Vgpu.Multi.bind multi i name (Vgpu.Buffer.copy b)) bufs)
              initial;
            ignore (Vgpu.Multi.run_async ~pick multi p);
            Gpu_sim.sync sim;
            let st = sim.Gpu_sim.state in
            List.map Array.copy
              [ st.State.prev; st.State.curr; st.State.next; st.State.g1; st.State.vel_prev;
                st.State.vel_next ]
          in
          let expected = execute ~pick:(fun _ -> 0) plan in
          let where = Printf.sprintf "%s shards=%d T=%d" label shards tblock in
          (* [None]: drop every wait; [Some i]: drop op [i]'s *)
          let drops =
            None
            :: List.concat
                 (List.mapi
                    (fun i (o : Vgpu.Multi.async_op) -> if o.Vgpu.Multi.a_waits = [] then [] else [ Some i ])
                    plan)
          in
          List.iter
            (fun only ->
              incr mutants;
              if !mutants mod 2 = 0 then begin
                let m = drop_waits ?only plan in
                if Lift.Lint.errors (verify sim m) <> [] then incr rejected
                else begin
                  incr accepted;
                  if !accepted mod 4 = 0 then begin
                    incr executed;
                    let what =
                      match only with
                      | None -> "all waits"
                      | Some i -> Printf.sprintf "op %d's waits" i
                    in
                    List.iteri
                      (fun k pick ->
                        List.iter2
                          (Test_util.check_bits
                             (Printf.sprintf "%s, accepted mutant dropping %s, pick %d" where
                                what k))
                          expected (execute ~pick m))
                      picks
                  end
                end
              end)
            drops)
        [ (2, 1); (3, 1); (4, 1); (2, 2); (3, 2); (2, 3); (3, 3) ])
    schemes;
  Alcotest.(check bool) "the sweep rejects mutants" true (!rejected > 0);
  Alcotest.(check bool) "the sweep executes accepted mutants" true (!executed > 0)

(* -- ... and dynamically, by the sanitizer --------------------------- *)

(* A two-device plan: device 0 owns a defined [src]; device 1 allocates
   [dst] (undefined device memory), receives it by exchange, and reads
   it back with a probe kernel.  With the wait in place every
   interleaving is clean; with the wait dropped, an interleaving that
   schedules the probe before the exchange reads uninitialised memory,
   which the shadow-memory sanitizer reports. *)
let probe_kernel =
  let open Cast in
  {
    name = "probe";
    params =
      [ param "dst" Real; param "out" Real; param ~kind:Scalar_param "n" Int ];
    body = [ Store ("out", Global_id 0, Load ("dst", Global_id 0)) ];
    precision = Double;
    global_size = [ Var "n" ];
    local_size = [];
  }

let exchange_probe_plan ~waits : Vgpu.Multi.async_plan =
  [
    {
      Vgpu.Multi.a_op = Vgpu.Multi.Dev (1, Vgpu.Runtime.Alloc { name = "dst"; ty = Cast.Real; elems = 8 });
      a_waits = [];
      a_signal = None;
    };
    {
      a_op =
        Vgpu.Multi.Exchange
          { src_dev = 0; src = "src"; src_off = 0; dst_dev = 1; dst = "dst"; dst_off = 0; elems = 8 };
      a_waits = [];
      a_signal = Some 0;
    };
    {
      a_op =
        Vgpu.Multi.Dev
          ( 1,
            Vgpu.Runtime.Launch
              {
                kernel = probe_kernel;
                args = [ Vgpu.Runtime.A_buf "dst"; Vgpu.Runtime.A_buf "out"; Vgpu.Runtime.A_int 8 ];
                global = [ 8 ];
                spans = None;
              } );
      a_waits = (if waits then [ 0 ] else []);
      a_signal = None;
    };
  ]

let run_exchange_probe ~waits ~pick =
  let m = Vgpu.Multi.create ~sanitize:true ~devices:2 () in
  Vgpu.Multi.bind m 0 "src" (Vgpu.Buffer.F (Array.init 8 float_of_int));
  Vgpu.Multi.bind m 1 "out" (Vgpu.Buffer.F (Array.make 8 0.));
  ignore (Vgpu.Multi.run_async ~pick m (exchange_probe_plan ~waits));
  match Vgpu.Runtime.sanitizer (Vgpu.Multi.device m 1) with
  | None -> Alcotest.fail "device 1 is not sanitized"
  | Some s -> Vgpu.Sanitizer.counts s

let test_missing_wait_caught_by_sanitizer () =
  (* probe first whenever both queue heads are ready *)
  let adversarial n = n - 1 in
  let clean = run_exchange_probe ~waits:true ~pick:adversarial in
  Alcotest.(check int) "with the wait, no uninitialised reads" 0
    clean.Vgpu.Sanitizer.n_uninit;
  let broken = run_exchange_probe ~waits:false ~pick:adversarial in
  Alcotest.(check bool) "without the wait, the probe reads uninitialised ghost cells"
    true
    (broken.Vgpu.Sanitizer.n_uninit > 0)

(* -- Virtual time ------------------------------------------------------ *)

(* Devices holding one 8-element real buffer each, and a priced
   exchange of it: 64 bytes cost 64/12 ns at the 12 GB/s link. *)
let exchange_devices n =
  let m = Vgpu.Multi.create ~devices:n () in
  for i = 0 to n - 1 do
    Vgpu.Multi.bind m i "buf" (Vgpu.Buffer.F (Array.make 8 (float_of_int i)))
  done;
  m

let exchange_op ?(waits = []) ?signal src_dev dst_dev =
  {
    Vgpu.Multi.a_op =
      Vgpu.Multi.Exchange
        { src_dev; src = "buf"; src_off = 0; dst_dev; dst = "buf"; dst_off = 0; elems = 8 };
    a_waits = waits;
    a_signal = signal;
  }

let exchange_cost = 64. /. Vgpu.Multi.default_link_gb_s

let clocks m =
  Array.map (fun c -> c.Vgpu.Multi.vclock) (Vgpu.Multi.overlap_stats m).Vgpu.Multi.o_clocks

let test_queue_critical_path () =
  let m = exchange_devices 2 in
  let plan = [ exchange_op ~signal:0 0 1; exchange_op ~waits:[ 0 ] 1 0 ] in
  let exports = Vgpu.Multi.run_async m plan in
  let c = exchange_cost in
  Alcotest.(check (list (pair int (float 1e-9)))) "the signal's stamp" [ (0, c) ] exports;
  let o = Vgpu.Multi.overlap_stats m in
  Alcotest.(check (array (float 1e-9)))
    "the waiter starts at the stamp" [| c; 2. *. c |] (clocks m);
  Array.iteri
    (fun i (k : Vgpu.Multi.clock) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "device %d busy" i) c k.Vgpu.Multi.busy_ns)
    o.Vgpu.Multi.o_clocks;
  Alcotest.(check (float 1e-9)) "critical path = max vclock > max busy" (2. *. c)
    o.Vgpu.Multi.o_span_ns;
  Alcotest.(check (float 1e-9)) "async_vclock" (2. *. c) (Vgpu.Multi.async_vclock m);
  Vgpu.Multi.reset_stats m;
  Alcotest.(check (array (float 1e-9)))
    "reset aligns both clocks to the horizon: d0 advances, d1 never rewinds"
    [| 2. *. c; 2. *. c |] (clocks m);
  let span () = (Vgpu.Multi.overlap_stats m).Vgpu.Multi.o_span_ns in
  Alcotest.(check (float 0.)) "reset zeroes the span" 0. (span ());
  ignore (Vgpu.Multi.run_async m plan);
  Alcotest.(check (array (float 1e-9)))
    "the next interval starts level" [| 3. *. c; 4. *. c |] (clocks m);
  Alcotest.(check (float 1e-9)) "its span" (2. *. c) (span ())

(* A random all-priced plan — exchanges between three devices, each
   signalling its own event and waiting on earlier ones — ends on the
   same device clocks under any [pick]: virtual time depends on the plan
   and the durations, not on the interleaving. *)
let qcheck_priced_clocks_pick_independent =
  QCheck.Test.make ~name:"an all-priced plan ends on the same clocks under any pick" ~count:50
    QCheck.(
      pair (list_of_size Gen.(1 -- 12) (triple small_nat small_nat (list small_nat))) (list small_nat))
    (fun (ops, picks) ->
      let plan =
        List.mapi
          (fun i (src, d, waits) ->
            let src = src mod 3 in
            let waits =
              if i = 0 then [] else List.sort_uniq compare (List.map (fun w -> w mod i) waits)
            in
            exchange_op ~waits ~signal:i src ((src + 1 + (d mod 2)) mod 3))
          ops
      in
      let run pick =
        let m = exchange_devices 3 in
        ignore (Vgpu.Multi.run_async ~pick m plan);
        clocks m
      in
      let n = max 1 (List.length picks) in
      let drawn k = match picks with [] -> 0 | _ -> List.nth picks (k mod n) in
      let first = run (fun _ -> 0) in
      first = run (fun _ -> -1) && first = run drawn)

(* The executor's guards: a wait on an unknown event, a second signal of
   one event, and a failing command. *)
let test_run_async_rejects () =
  let raises msg plan =
    match Vgpu.Multi.run_async (exchange_devices 2) plan with
    | _ -> Alcotest.failf "%s: accepted" msg
    | exception Failure _ -> ()
  in
  raises "a wait on an event nobody signalled" [ exchange_op ~waits:[ 7 ] 0 1 ];
  raises "a wait on an event signalled later"
    [ exchange_op ~waits:[ 0 ] 1 0; exchange_op ~signal:0 0 1 ];
  raises "an event signalled twice" [ exchange_op ~signal:0 0 1; exchange_op ~signal:0 1 0 ];
  let m = exchange_devices 2 in
  Vgpu.Multi.bind m 1 "buf" (Vgpu.Buffer.I (Array.make 8 0));
  match Vgpu.Multi.run_async m [ exchange_op 0 1 ] with
  | _ -> Alcotest.fail "a real-to-int exchange ran"
  | exception Failure _ -> ()

(* Two overlapped simulations in one process: stepping one leaves the
   other's virtual time untouched. *)
let test_overlap_stats_per_simulation () =
  let kernels = kernels_of `Fd_mm Cast.Double in
  let a = make ~shards:2 ~schedule:`Overlap () and b = make ~shards:2 ~schedule:`Overlap () in
  for _ = 1 to 10 do
    Gpu_sim.step a kernels
  done;
  let oa = Gpu_sim.overlap_stats a and ob = Gpu_sim.overlap_stats b in
  Alcotest.(check bool) "A's critical path is above 0" true (oa.Vgpu.Multi.o_span_ns > 0.);
  Alcotest.(check (float 0.)) "B is not busy" 0. ob.Vgpu.Multi.o_busy_ns;
  Alcotest.(check (float 0.)) "B has no critical path" 0. ob.Vgpu.Multi.o_span_ns;
  Alcotest.(check (float 0.)) "B's clock never moved" 0.
    (Vgpu.Multi.async_vclock b.Gpu_sim.multi)

(* On a fresh binary cache the first launches optimize and compile
   (cc + dlopen); none of that is device time.  From creation, the busy
   time is exactly the kernels' timed windows plus the priced exchanges. *)
let test_busy_is_kernel_window () =
  let saved = Vgpu.Native.cache_dir () in
  let dir = Test_util.scratch_dir "overlap" in
  Fun.protect
    ~finally:(fun () -> Vgpu.Native.set_cache_dir saved)
    (fun () ->
      Vgpu.Native.set_cache_dir dir;
      Vgpu.Native.reset_memo ();
      let sim = make ~shards:2 ~schedule:`Overlap () in
      let kernels = kernels_of `Fd_mm Cast.Double in
      for _ = 1 to 3 do
        Gpu_sim.step sim kernels
      done;
      let st = Gpu_sim.stats sim in
      let kernel_ns =
        List.fold_left
          (fun acc (_, (k : Vgpu.Runtime.kernel_stats)) -> acc +. (k.Vgpu.Runtime.total_s *. 1e9))
          0. st.Vgpu.Runtime.per_kernel
      in
      let expected =
        kernel_ns +. (float_of_int st.Vgpu.Runtime.s_d2d_bytes /. Vgpu.Multi.default_link_gb_s)
      in
      let busy = (Gpu_sim.overlap_stats sim).Vgpu.Multi.o_busy_ns in
      if Float.abs (busy -. expected) > 1e-9 *. expected then
        Alcotest.failf "busy %.0f ns, kernel windows + exchanges %.0f ns" busy expected)

(* Checked execution keeps the overlapped schedule: FD-MM sanitized and
   overlapped at 2 and 3 shards is bit-identical to one device, with no
   violation. *)
let test_sanitized_overlap () =
  let kernels = kernels_of `Fd_mm Cast.Double in
  let single = make () in
  for _ = 1 to steps do
    Gpu_sim.step single kernels
  done;
  List.iter
    (fun shards ->
      let room = Geometry.build ~n_materials:4 Geometry.Box dims in
      let sim =
        Gpu_sim.create ~engine:`Native ~shards ~schedule:`Overlap ~sanitize:true ~fi_beta:0.2
          ~n_branches:3 params room
      in
      let cx, cy, cz = State.centre sim.Gpu_sim.state in
      State.add_impulse sim.Gpu_sim.state ~x:cx ~y:cy ~z:cz;
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d: the schedule stays overlapped" shards)
        true
        (Gpu_sim.schedule sim = `Overlap);
      for _ = 1 to steps do
        Gpu_sim.step sim kernels
      done;
      Gpu_sim.sync sim;
      check_state (Printf.sprintf "sanitized overlapped shards=%d" shards) single.Gpu_sim.state
        sim.Gpu_sim.state;
      match Gpu_sim.violations sim with
      | Some c -> Alcotest.(check int) "no violations" 0 (Vgpu.Sanitizer.total c)
      | None -> Alcotest.fail "the simulation does not sanitize")
    [ 2; 3 ]

(* -- The analytic model of the overlapped schedule ------------------- *)

let test_predict_overlapped () =
  let d = Vgpu.Device.gtx780 in
  let pdims = Geometry.dims ~nx:48 ~ny:40 ~nz:32 in
  let plane_elems = pdims.Geometry.nx * pdims.Geometry.ny in
  let k = Hand_kernels.volume ~precision:Cast.Double in
  let w = Harness.Workloads.workload Harness.Workloads.Volume Geometry.Box pdims in
  Alcotest.(check (float 0.))
    "one shard: no split, no halo — same as predict"
    (Vgpu.Perf_model.predict d k w)
    (Vgpu.Perf_model.predict_overlapped d k w ~plane_elems ~shards:1);
  List.iter
    (fun shards ->
      let ov = Vgpu.Perf_model.predict_overlapped d k w ~plane_elems ~shards in
      let seq = Vgpu.Perf_model.predict_sharded d k w ~plane_elems ~shards in
      if not (ov > 0.) then Alcotest.failf "shards=%d: non-positive prediction" shards;
      (* the split costs at most one extra launch; everything else is
         hidden behind the longer of interior compute and halo *)
      if ov > seq +. d.Vgpu.Device.launch_overhead_s +. 1e-12 then
        Alcotest.failf "shards=%d: overlapped %.3e exceeds sequential %.3e + launch" shards
          ov seq)
    [ 2; 4 ]

(* -- The optimizer no-op gate behind the trajectory bench ------------ *)

let test_opt_noop_returns_input_physically () =
  let lift_raw name prog =
    (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision:Cast.Double prog)
      .Lift.Codegen.kernel
  in
  List.iter
    (fun (k : Cast.kernel) ->
      let k', (r : Opt.report) = Opt.optimize k in
      if k' != k then
        Alcotest.failf "%s: no-op optimization did not return the input kernel" k.Cast.name;
      Alcotest.(check int) (k.Cast.name ^ ": nothing unrolled") 0 r.Opt.unrolled)
    [
      Hand_kernels.volume ~precision:Cast.Double;
      lift_raw "lift_volume" (Lift_acoustics.Programs.volume ());
      lift_raw "lift_boundary_fi" (Lift_acoustics.Programs.boundary_fi ());
    ];
  (* FD-MM still transforms: the unroll-budget gate must not disable the
     pipeline's real wins *)
  let k = Hand_kernels.boundary_fd_mm ~precision:Cast.Double ~mb:3 in
  let k', (r : Opt.report) = Opt.optimize k in
  Alcotest.(check bool) "fd-mm boundary is transformed" true (k' != k);
  Alcotest.(check bool) "fd-mm branch loops still unroll" true (r.Opt.unrolled > 0)

(* -- Event rules and the emitted program --------------------------------- *)

let codes issues = List.map (fun (i : Lift.Lint.issue) -> i.Lift.Lint.code) issues

(* [Lint.check_async]'s two event rules on mutants of a real plan: two
   steps of the 2-shard FI plan at T = 1, whose exchanges signal events
   0-3 and whose second step's launches wait on the first step's.
   Dropping the exchange that signals event 1 leaves a wait on it
   (event 0 would not do: a wait below every signalled id counts as
   imported from an earlier plan), and re-signalling event 0 from a
   later exchange signals it twice. *)
let test_host_event_lint_rules () =
  let plan = Gpu_sim.plan (make ~shards:2 ()) (kernels_of `Fi Cast.Double) ~steps:2 in
  let signals =
    List.filter_map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_signal) plan
  in
  Alcotest.(check (list int)) "events 0-3" [ 0; 1; 2; 3 ] signals;
  Alcotest.(check (list string)) "the plan is clean" [] (codes (Lift.Lint.check_async plan));
  let dropped =
    List.filter (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_signal <> Some 1) plan
  in
  Alcotest.(check (list string)) "a wait on a dropped signal" [ "wait-unsignaled" ]
    (codes (Lift.Lint.errors (Lift.Lint.check_async dropped)));
  let resignalled =
    List.map
      (fun (o : Vgpu.Multi.async_op) ->
        if o.Vgpu.Multi.a_signal = Some 2 then { o with Vgpu.Multi.a_signal = Some 0 } else o)
      plan
  in
  Alcotest.(check (list string)) "an event signalled twice" [ "duplicate-event" ]
    (codes (Lift.Lint.errors (Lift.Lint.check_async resignalled)))

(* The 2-shard overlapped plan of every scheme verifies clean, events
   and halo dataflow, and its emitted program declares one cl_event per
   signal and one wait list per waiting op. *)
let test_overlap_host_program_lints_and_emits () =
  List.iter
    (fun (label, scheme) ->
      let sim = make ~shards:2 ~schedule:`Overlap () in
      let plan = Gpu_sim.plan sim (kernels_of scheme Cast.Double) ~steps:2 in
      Alcotest.(check (list string)) (label ^ ": lints clean") []
        (codes (Lift.Lint.errors (Lift.Lint.check_async plan @ verify sim plan)));
      let c = Test_util.emit_plan sim plan in
      let n p = List.length (List.filter p plan) in
      Alcotest.(check int) (label ^ ": one cl_event per signal")
        (n (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_signal <> None))
        (Test_util.count c "  cl_event ev_");
      Alcotest.(check int) (label ^ ": one wait list per waiting op")
        (n (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_waits <> []))
        (Test_util.count c "cl_event wl["))
    schemes

let suite =
  [
    Alcotest.test_case "overlapped schedule bit-identical (all schemes, both precisions)"
      `Slow test_overlap_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_interleavings_bit_identical;
    Alcotest.test_case "dropped frontier waits caught by the flow verifier" `Quick
      test_missing_wait_caught_by_lint;
    Alcotest.test_case "dropped waits rejected or harmless when executed" `Quick
      test_wait_drops_rejected_or_harmless;
    Alcotest.test_case "dropped wait caught dynamically by the sanitizer" `Quick
      test_missing_wait_caught_by_sanitizer;
    Alcotest.test_case "queue events stall the virtual clock" `Quick
      test_queue_critical_path;
    QCheck_alcotest.to_alcotest qcheck_priced_clocks_pick_independent;
    Alcotest.test_case "run_async rejects malformed plans and failing commands" `Quick
      test_run_async_rejects;
    Alcotest.test_case "overlap stats are per simulation" `Quick
      test_overlap_stats_per_simulation;
    Alcotest.test_case "a launch's virtual duration is its kernel window" `Quick
      test_busy_is_kernel_window;
    Alcotest.test_case "sanitized overlap stays overlapped and bit-identical" `Quick
      test_sanitized_overlap;
    Alcotest.test_case "predict_overlapped model properties" `Quick test_predict_overlapped;
    Alcotest.test_case "optimizer no-op returns the kernel physically" `Quick
      test_opt_noop_returns_input_physically;
    Alcotest.test_case "host-IR event lint rules" `Quick test_host_event_lint_rules;
    Alcotest.test_case "overlapped host program lints clean and emits events" `Quick
      test_overlap_host_program_lints_and_emits;
  ]
