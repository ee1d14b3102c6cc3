(* The asynchronous per-device command queues and the overlapped
   (interior/frontier split) schedule.

   - Bit-identity: the real pipelined [`Overlap] schedule and the
     deterministic replay ([Gpu_sim.step_overlap_with], first-ready and
     last-ready picks) both reproduce the single-device native grid
     bit-for-bit, for the three schemes and the 2.5D-tiled FI volume
     kernel (whose launches write the ghost planes an exchange fills); a
     qcheck property drives the replay through *random* legal queue
     interleavings, so any schedule the worker domains could exhibit is
     covered, not just the one the race happened to pick.

   - Hazard detection, both legs: dropping the frontier waits from an
     overlapped plan is caught statically by the flow verifier
     [Lift.Lint.verify_async] (unordered-ghost-read), and the same class
     of bug — a consumer launch scheduled before the halo exchange it
     needed — is caught dynamically by the shadow-memory sanitizer as an
     uninitialised read under [run_async_with].  A wait-drop property
     executes the mutants: every plan with dropped waits is rejected by
     the verifier or runs bit-identical to the intact plan.

   - Queue timing: signal→wait edges stall the virtual clock of the
     waiting queue (the critical path is [max vclock], not the busy
     sum), and [align] only ever advances a clock.

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
  | `Tiled_fi ->
      [
        Lift_acoustics.Programs.tiled_volume ~precision ~tile:(4, 4) ();
        Hand_kernels.boundary_fi ~precision;
      ]

let schemes = [ ("fi", `Fi); ("fi-mm", `Fi_mm); ("fd-mm", `Fd_mm); ("tiled fi", `Tiled_fi) ]

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
              match Gpu_sim.overlap_stats ov with
              | None -> Alcotest.fail "sharded sim reports no overlap stats"
              | Some o ->
                  if o.Vgpu.Multi.o_span_ns <= 0. then
                    Alcotest.failf "%s shards=%d: empty critical path" label shards;
                  if o.Vgpu.Multi.o_busy_ns +. 1e-6 < o.Vgpu.Multi.o_span_ns then
                    Alcotest.failf "%s shards=%d: critical path %.0f exceeds busy %.0f"
                      label shards o.Vgpu.Multi.o_span_ns o.Vgpu.Multi.o_busy_ns)
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
   [Multi.run_async_with] from the same scattered state as the intact
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
          let multi =
            match sim.Gpu_sim.backend with
            | Gpu_sim.Sharded s -> s.multi
            | Gpu_sim.Single _ -> Alcotest.fail "not sharded"
          in
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
            Vgpu.Multi.run_async_with ~pick multi p;
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
              } );
      a_waits = (if waits then [ 0 ] else []);
      a_signal = None;
    };
  ]

let run_exchange_probe ~waits ~pick =
  let m = Vgpu.Multi.create ~sanitize:true ~devices:2 () in
  Vgpu.Multi.bind m 0 "src" (Vgpu.Buffer.F (Array.init 8 float_of_int));
  Vgpu.Multi.bind m 1 "out" (Vgpu.Buffer.F (Array.make 8 0.));
  Vgpu.Multi.run_async_with ~pick m (exchange_probe_plan ~waits);
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

(* -- Queue timing: events stall the virtual clock -------------------- *)

let test_queue_critical_path () =
  let q0 = Vgpu.Queue.create () and q1 = Vgpu.Queue.create () in
  Fun.protect
    ~finally:(fun () ->
      Vgpu.Queue.shutdown q0;
      Vgpu.Queue.shutdown q1)
    (fun () ->
      let e = Vgpu.Queue.fresh_event () in
      Vgpu.Queue.enqueue q0
        {
          Vgpu.Queue.c_label = "a";
          c_waits = [];
          c_signal = Some e;
          c_vcost = Some 10.;
          c_run = (fun () -> ());
        };
      Vgpu.Queue.enqueue q1
        {
          Vgpu.Queue.c_label = "b";
          c_waits = [ e ];
          c_signal = None;
          c_vcost = Some 5.;
          c_run = (fun () -> ());
        };
      Vgpu.Queue.finish q0;
      Vgpu.Queue.finish q1;
      Alcotest.(check (float 1e-9)) "producer queue clock" 10. (Vgpu.Queue.vclock q0);
      Alcotest.(check (float 1e-9))
        "waiter starts at the signal's ready_at: 10 + 5" 15. (Vgpu.Queue.vclock q1);
      let s0 = Vgpu.Queue.stats q0 and s1 = Vgpu.Queue.stats q1 in
      Alcotest.(check (float 1e-9)) "busy is duration only" 5. s1.Vgpu.Queue.q_busy_ns;
      Alcotest.(check (float 1e-9))
        "critical path = max vclock > max busy" 15.
        (Float.max s0.Vgpu.Queue.q_vclock s1.Vgpu.Queue.q_vclock);
      Vgpu.Queue.align q1 ~at:100.;
      Alcotest.(check (float 1e-9)) "align advances" 100. (Vgpu.Queue.vclock q1);
      Vgpu.Queue.align q1 ~at:50.;
      Alcotest.(check (float 1e-9)) "align never rewinds" 100. (Vgpu.Queue.vclock q1))

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

(* -- Host-IR events: lint rules and C emission ----------------------- *)

let host_param name sz =
  Lift.Ast.named_param name (Lift.Ty.array Lift.Ty.real (Lift.Size.var sz))

let test_host_event_lint_rules () =
  let open Lift.Host in
  let unsignaled = wait [ "ghost" ] (to_host (to_gpu (input (host_param "a" "N")))) in
  let errs = Lift.Lint.errors (Lift.Lint.check_host unsignaled) in
  Alcotest.(check bool) "waiting on an unsignaled event is an error" true
    (List.exists (fun (i : Lift.Lint.issue) -> i.Lift.Lint.code = "wait-unsignaled") errs);
  let dup =
    H_tuple
      [
        event "e" (to_gpu (input (host_param "a" "N")));
        event "e" (to_gpu (input (host_param "b" "N")));
      ]
  in
  let errs = Lift.Lint.errors (Lift.Lint.check_host dup) in
  Alcotest.(check bool) "signaling an event twice is an error" true
    (List.exists (fun (i : Lift.Lint.issue) -> i.Lift.Lint.code = "duplicate-event") errs)

let test_overlap_host_program_lints_and_emits () =
  let nx = 8 and ny = 6 and slab_planes = 4 in
  let prog =
    Lift_acoustics.Programs.sharded_fi_step_host ~overlap:true ~nx ~ny ~slab_planes
      ~l:(Params.l params) ~l2:(Params.l2 params) ~beta:0.1 ()
  in
  Alcotest.(check int) "event-annotated sharded step lints clean" 0
    (List.length (Lift.Lint.errors (Lift.Lint.check_host prog)));
  let sizes = function
    | "N" -> Some ((slab_planes + 2) * nx * ny)
    | "nB" -> Some 16
    | _ -> None
  in
  let compiled = Lift.Host.compile ~precision:Cast.Double ~sizes prog in
  let c = Lift.Emit_c.host_program compiled in
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then
        Alcotest.failf "emitted C missing %s" needle)
    [ "cl_event ev_halo_up"; "cl_event ev_halo_dn"; "wl" ]

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
    Alcotest.test_case "predict_overlapped model properties" `Quick test_predict_overlapped;
    Alcotest.test_case "optimizer no-op returns the kernel physically" `Quick
      test_opt_noop_returns_input_physically;
    Alcotest.test_case "host-IR event lint rules" `Quick test_host_event_lint_rules;
    Alcotest.test_case "overlapped host program lints clean and emits events" `Quick
      test_overlap_host_program_lints_and_emits;
  ]
