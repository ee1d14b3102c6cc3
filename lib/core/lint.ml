(* Host-plan lint: static well-formedness checks on host programs,
   before (and independent of) compilation.

   Three families of diagnostics:

   - data movement on a single device ([check_host], over [Host.hexpr]):
     kernel/copy operands that were never transferred with ToGPU
     (use-before-ToGPU), and ToGPU transfers whose buffer is never
     consumed afterwards (dead transfer);
   - kernel calls ([check_host]): argument arity against the Lift
     lambda, and scalar/buffer kind mismatches per parameter;
   - sharded plans ([check_async], [verify_async], over
     [Vgpu.Multi.async_plan]s): event well-formedness, and ghost planes
     read before an exchange refreshed them or overwritten after — the
     bug class the paper's ghost-plane protocol exists to prevent. *)

type severity =
  | Error
  | Warning

type issue = {
  severity : severity;
  code : string;  (* stable machine-readable tag *)
  message : string;
}

let issue severity code fmt = Printf.ksprintf (fun message -> { severity; code; message }) fmt
let errors issues = List.filter (fun i -> i.severity = Error) issues

let pp_issue ppf i =
  Fmt.pf ppf "%s [%s] %s"
    (match i.severity with Error -> "error:" | Warning -> "warning:")
    i.code i.message

(* -- Single-device host programs -------------------------------------- *)

(* Approximate denotation of a host expression, mirroring
   [Host.compile_hexpr] without generating code. *)
type hkind =
  | K_scalar
  | K_buf of string
  | K_out  (* a kernel's freshly allocated (device-resident) output *)
  | K_tuple

type hstate = {
  mutable issues : issue list;  (* reversed *)
  on_device : (string, unit) Hashtbl.t;
  pending_to_gpu : (string, unit) Hashtbl.t;  (* transferred, not yet consumed *)
  signaled : (string, unit) Hashtbl.t;  (* events signaled so far *)
  venv : (int, hkind) Hashtbl.t;
}

let report st i = st.issues <- i :: st.issues

let consume st name =
  Hashtbl.remove st.pending_to_gpu name;
  Hashtbl.mem st.on_device name

let require_on_device st ~what name =
  if not (consume st name) then
    report st
      (issue Error "use-before-togpu" "%s uses buffer %s before any ToGPU transfer" what name)

let rec lint_hexpr st (e : Host.hexpr) : hkind =
  match e with
  | H_int _ | H_real _ -> K_scalar
  | H_input p -> (
      match Hashtbl.find_opt st.venv p.Ast.p_id with
      | Some k -> k
      | None -> if Ty.is_scalar p.Ast.p_ty then K_scalar else K_buf p.Ast.p_name)
  | H_to_gpu e -> (
      match lint_hexpr st e with
      | K_buf name ->
          if Hashtbl.mem st.pending_to_gpu name then
            report st
              (issue Warning "dead-transfer" "buffer %s is transferred to the GPU twice with no use in between" name);
          Hashtbl.replace st.on_device name ();
          Hashtbl.replace st.pending_to_gpu name ();
          K_buf name
      | k -> k)
  | H_to_host e -> (
      match lint_hexpr st e with
      | K_buf name ->
          if not (Hashtbl.mem st.on_device name) then
            report st
              (issue Warning "dead-transfer" "buffer %s is read back without ever living on the GPU" name);
          K_buf name
      | k -> k)
  | H_let (p, v, b) ->
      let k = lint_hexpr st v in
      Hashtbl.replace st.venv p.Ast.p_id k;
      lint_hexpr st b
  | H_tuple es ->
      List.iter (fun e -> ignore (lint_hexpr st e)) es;
      K_tuple
  | H_copy { src; dst; _ } -> (
      let sk = lint_hexpr st src in
      let dk = lint_hexpr st dst in
      (match sk with
      | K_buf name -> require_on_device st ~what:"a device copy" name
      | K_out -> ()
      | K_scalar | K_tuple ->
          report st (issue Error "kind-mismatch" "copy source is not a buffer"));
      (match dk with
      | K_buf name -> require_on_device st ~what:"a device copy" name
      | K_out -> ()
      | K_scalar | K_tuple ->
          report st (issue Error "kind-mismatch" "copy destination is not a buffer"));
      dk)
  | H_write_to (t, v) -> (
      let tk = lint_hexpr st t in
      (match tk with
      | K_buf name -> require_on_device st ~what:"WriteTo" name
      | K_out -> ()
      | K_scalar | K_tuple ->
          report st (issue Error "kind-mismatch" "WriteTo target is not a buffer"));
      let _ = lint_hexpr st v in
      match tk with K_buf _ | K_out -> tk | _ -> K_out)
  | H_event (name, e) ->
      let k = lint_hexpr st e in
      if Hashtbl.mem st.signaled name then
        report st (issue Error "duplicate-event" "event %s is signaled twice" name)
      else Hashtbl.replace st.signaled name ();
      k
  | H_wait (names, e) ->
      List.iter
        (fun n ->
          if not (Hashtbl.mem st.signaled n) then
            report st
              (issue Error "wait-unsignaled"
                 "wait on event %s, which no earlier enqueue signals" n))
        names;
      lint_hexpr st e
  | H_kernel { k_name; f; args } ->
      let params = f.Ast.l_params in
      if List.length args <> List.length params then begin
        report st
          (issue Error "arity-mismatch" "kernel %s expects %d arguments, got %d" k_name
             (List.length params) (List.length args));
        List.iter (fun a -> ignore (lint_hexpr st a)) args
      end
      else
        List.iter2
          (fun (p : Ast.param) a ->
            let k = lint_hexpr st a in
            let want_scalar = Ty.is_scalar p.Ast.p_ty in
            match (k, want_scalar) with
            | K_scalar, true -> ()
            | (K_buf _ | K_out), false -> (
                match k with
                | K_buf name ->
                    require_on_device st ~what:(Printf.sprintf "kernel %s" k_name) name
                | _ -> ())
            | K_scalar, false ->
                report st
                  (issue Error "kind-mismatch" "kernel %s: scalar passed for buffer parameter %s"
                     k_name p.Ast.p_name)
            | (K_buf _ | K_out), true ->
                report st
                  (issue Error "kind-mismatch" "kernel %s: buffer passed for scalar parameter %s"
                     k_name p.Ast.p_name)
            | K_tuple, _ ->
                report st
                  (issue Error "kind-mismatch" "kernel %s: tuple passed for parameter %s" k_name
                     p.Ast.p_name))
          params args;
      K_out

let check_host (e : Host.hexpr) : issue list =
  let st =
    {
      issues = [];
      on_device = Hashtbl.create 8;
      pending_to_gpu = Hashtbl.create 8;
      signaled = Hashtbl.create 8;
      venv = Hashtbl.create 8;
    }
  in
  ignore (lint_hexpr st e);
  Hashtbl.iter
    (fun name () ->
      report st
        (issue Warning "dead-transfer" "buffer %s is transferred to the GPU but never used" name))
    st.pending_to_gpu;
  List.rev st.issues

(* -- Asynchronous multi-device plans: event well-formedness ----------- *)

(* An async plan orders its ops by per-queue FIFO plus explicit
   signal->wait edges (an Exchange queues on its source device).  A wait
   must name an imported event or one signaled by an earlier op; an
   event may be signaled once.  Ordering *hazards* are the flow
   verifier's business below, which proves them per ghost plane. *)

(* Event ids are allocated monotonically across steps
   ([Gpu_sim.plan] continues the simulation's numbering), so the waits a
   plan can legitimately import from earlier submissions are exactly the
   waited ids below everything the plan itself signals. *)
let default_imports (plan : Vgpu.Multi.async_plan) =
  let min_signaled =
    List.fold_left
      (fun acc (o : Vgpu.Multi.async_op) ->
        match o.Vgpu.Multi.a_signal with Some e -> min acc e | None -> acc)
      max_int plan
  in
  List.concat_map
    (fun (o : Vgpu.Multi.async_op) ->
      List.filter (fun e -> e < min_signaled) o.Vgpu.Multi.a_waits)
    plan
  |> List.sort_uniq compare

(* FIFO + signal->wait order of an async plan: [reach i] marks every op
   strictly ordered after op [i] (memoized per source op). *)
let async_order (ops : Vgpu.Multi.async_op array) =
  let n = Array.length ops in
  let queue_of (o : Vgpu.Multi.async_op) =
    match o.Vgpu.Multi.a_op with
    | Vgpu.Multi.Dev (i, _) -> i
    | Vgpu.Multi.Exchange { src_dev; _ } -> src_dev
  in
  let next_on_queue = Array.make n (-1) in
  let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i o ->
      let q = queue_of o in
      (match Hashtbl.find_opt last q with
      | Some j -> next_on_queue.(j) <- i
      | None -> ());
      Hashtbl.replace last q i)
    ops;
  let waiters : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (o : Vgpu.Multi.async_op) ->
      List.iter
        (fun e ->
          Hashtbl.replace waiters e (i :: Option.value ~default:[] (Hashtbl.find_opt waiters e)))
        o.Vgpu.Multi.a_waits)
    ops;
  let memo : (int, bool array) Hashtbl.t = Hashtbl.create 64 in
  fun from ->
    match Hashtbl.find_opt memo from with
    | Some seen -> seen
    | None ->
        let seen = Array.make n false in
        let rec go i =
          if i >= 0 && i < n && not seen.(i) then begin
            seen.(i) <- true;
            go next_on_queue.(i);
            match ops.(i).Vgpu.Multi.a_signal with
            | Some e -> List.iter go (Option.value ~default:[] (Hashtbl.find_opt waiters e))
            | None -> ()
          end
        in
        (* successors of [from] only, not [from] itself *)
        (match ops.(from).Vgpu.Multi.a_signal with
        | Some e -> List.iter go (Option.value ~default:[] (Hashtbl.find_opt waiters e))
        | None -> ());
        go next_on_queue.(from);
        Hashtbl.replace memo from seen;
        seen

let check_async ?imports (plan : Vgpu.Multi.async_plan) : issue list =
  let imports = match imports with Some l -> l | None -> default_imports plan in
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let signal_idx : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (o : Vgpu.Multi.async_op) ->
      match o.Vgpu.Multi.a_signal with
      | Some e ->
          if Hashtbl.mem signal_idx e then
            add (issue Error "duplicate-event" "async op %d: event %d is signaled twice" i e)
          else Hashtbl.replace signal_idx e i
      | None -> ())
    plan;
  List.iteri
    (fun i (o : Vgpu.Multi.async_op) ->
      List.iter
        (fun e ->
          if not (List.mem e imports) then
            match Hashtbl.find_opt signal_idx e with
            | Some j when j < i -> ()
            | _ ->
                add
                  (issue Error "wait-unsignaled"
                     "async op %d waits on event %d, which no earlier op signals (and is not imported)"
                     i e))
        o.Vgpu.Multi.a_waits)
    plan;
  List.rev !issues

(* -- Whole-plan dataflow verification (footprint-driven) --------------- *)

(* The flow verifier walks a plan's launches with the statically
   inferred stencil footprint of each kernel ([Kernel_ast.Footprint]),
   under the plan's happens-before order (per-queue FIFO plus
   signal->wait edges; a plan run in list order states its barriers as
   events too), and proves, per ghost plane, that

   - every halo exchange is at least as wide as the consuming kernel's
     inferred read radius (halo-too-narrow);
   - no launch reads a ghost plane whose source frontier was rewritten
     after the exchange that filled it (stale-halo), or whose planes the
     device itself overwrote after the fill (clobbered-halo);
   - a ghost-reading launch is ordered after the exchange that filled
     the ghost (unordered-ghost-read) — the precise form of the
     dropped-frontier-wait race;
   - an exchange filling ghost planes is ordered after every earlier
     launch on the destination that writes those planes at an affine
     (known) range (unordered-ghost-write) — otherwise the launch can
     land last and overwrite the fresh halo;
   - no kernel reads a buffer that was allocated in the plan but never
     written or uploaded (uninit-read).

   Kernel footprints come straight from the launch ops: a [Launch]
   carries its kernel AST and resolved arguments, which give the
   parameter environment (concrete [goff]/[count] for interior/frontier
   range launches) under which [Footprint.infer] runs.  Plane ranges are
   derived from the inferred absolute linear index interval, clamped to
   the device's slab, so 1D and 3D launches are classified by the same
   arithmetic. *)

type slab = {
  sl_nx : int;
  sl_ny : int;
  sl_planes : int array;  (* planes per device, ghost planes included *)
}

(* A ghost zone's state carries *validity*, not just the fill width:
   under temporal blocking the in-block launches legitimately rewrite
   ghost planes from progressively staler inputs (redundant frontier
   recompute), so the number of cut-adjacent planes still holding
   correct data decays by the read radius at every recompute and is
   restored only by the next deep exchange.  [g_valid] is that live
   count; [g_fill] is the width of the originating exchange propagated
   through the aging chain, so a too-shallow exchange can be diagnosed
   with the width it *should* have had ([g_fill] + radius - [g_valid]). *)
type ghost = {
  g_op : int;  (* index of the op that last determined the ghost; -1 = host-seeded *)
  g_fill : int;  (* width of the originating exchange (diagnostic) *)
  g_valid : int;  (* cut-adjacent planes currently holding correct data *)
  g_clobbered : bool;  (* validity lost to a plain overwrite, not decay *)
  g_exch : int;  (* originating exchange op, carried through the aging
                    chain; -1 if no exchange backs this ghost's data *)
  g_src : int * string;  (* source device, physical buffer *)
  g_src_lo : int;
  g_src_hi : int;  (* source plane range backing the ghost; empty once recomputed locally *)
}

type flow = {
  fslab : slab;
  plane : int;
  ndev : int;
  fhalo_w : int;  (* ghost planes per side (the temporal block depth T) *)
  fissues : issue list ref;
  fphys : (int * string, string) Hashtbl.t;
  fwrites : (int * string, (int * int * int * bool) list ref) Hashtbl.t;
      (* (device, phys) -> (op index, plane lo, plane hi, affine launch
         write) writes *)
  fghosts : (int * string * [ `Lo | `Hi ], ghost) Hashtbl.t;
  funinit : (int * string, unit) Hashtbl.t;
  fwarned : (string, unit) Hashtbl.t;
  fhalo : (string, unit) Hashtbl.t;
      (* buffer names under the halo protocol: the endpoints of
         exchanges and of the Swap rotation.  Ghost-plane checks
         apply only to these — other buffers (boundary tables, branch
         state) are replicated or shard-local, not slab-shaped. *)
  fstate : (string, unit) Hashtbl.t;
      (* branch-state buffers: exchanged at block boundaries but not
         slab-shaped, so they are excluded from the ghost-plane model *)
}

let make_flow ?(halo = 1) ?(state_bufs = []) (slab : slab) =
  let fstate = Hashtbl.create 4 in
  List.iter (fun b -> Hashtbl.replace fstate b ()) state_bufs;
  {
    fslab = slab;
    plane = slab.sl_nx * slab.sl_ny;
    ndev = Array.length slab.sl_planes;
    fhalo_w = max 1 halo;
    fissues = ref [];
    fphys = Hashtbl.create 16;
    fwrites = Hashtbl.create 16;
    fghosts = Hashtbl.create 16;
    funinit = Hashtbl.create 8;
    fwarned = Hashtbl.create 8;
    fhalo = Hashtbl.create 8;
    fstate;
  }

(* Seed [fhalo] with the endpoints of exchanges and of the Swap
   rotation.  Swaps count too: a plan whose exchanges were all dropped
   still rotates its grids, and its ghost reads must still be checked. *)
let fl_seed_halo fl (raw_ops : Vgpu.Multi.op list) =
  let seed a b =
    if not (Hashtbl.mem fl.fstate a || Hashtbl.mem fl.fstate b) then begin
      Hashtbl.replace fl.fhalo a ();
      Hashtbl.replace fl.fhalo b ()
    end
  in
  List.iter
    (fun (op : Vgpu.Multi.op) ->
      match op with
      | Vgpu.Multi.Exchange { src; dst; _ } -> seed src dst
      | Vgpu.Multi.Dev (_, Vgpu.Runtime.Swap (a, b)) -> seed a b
      | Vgpu.Multi.Dev _ -> ())
    raw_ops

let fl_add fl i = fl.fissues := i :: !(fl.fissues)

let fl_warn_once fl key i =
  if not (Hashtbl.mem fl.fwarned key) then begin
    Hashtbl.replace fl.fwarned key ();
    fl_add fl i
  end

let fl_resolve fl d name = Option.value ~default:name (Hashtbl.find_opt fl.fphys (d, name))

let fl_writes fl d p =
  match Hashtbl.find_opt fl.fwrites (d, p) with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace fl.fwrites (d, p) r;
      r

(* Ghost state defaults to host-seeded: the simulation scatters state
   with coherent depth-[halo] ghosts before the first step. *)
let fl_ghost fl d p side =
  match Hashtbl.find_opt fl.fghosts (d, p, side) with
  | Some g -> g
  | None ->
      let h = fl.fhalo_w in
      let g =
        match side with
        | `Lo ->
            let sp = fl.fslab.sl_planes.(d - 1) in
            { g_op = -1; g_fill = h; g_valid = h; g_clobbered = false; g_exch = -1;
              g_src = (d - 1, p); g_src_lo = sp - (2 * h); g_src_hi = sp - h - 1 }
        | `Hi ->
            { g_op = -1; g_fill = h; g_valid = h; g_clobbered = false; g_exch = -1;
              g_src = (d + 1, p); g_src_lo = h; g_src_hi = (2 * h) - 1 }
      in
      Hashtbl.replace fl.fghosts (d, p, side) g;
      g

(* Age (or clobber) one side's ghost of a written buffer.  The write
   covers plane range [wrange] ([None] = data-dependent scatter that may
   touch any site) and confers validity [c] on the planes it rewrites
   (planes correct to depth < c from the cut).  A plain overwrite
   ([clobbering]: a copy) leaves the planes it skips as they were; a
   launch computes a new generation, so the ghost planes it skips fall a
   generation behind.  The new validity is the longest correct prefix
   from the cut outward.  A scatter that leaves validity intact keeps
   the old entry, whose neighbour-frontier provenance [stale-halo]
   still needs. *)
let fl_age_side fl d p side ~op ~wrange ~c ~cf ~cexch ~clobbering =
  let h = fl.fhalo_w in
  let planes_d = fl.fslab.sl_planes.(d) in
  let g_old = fl_ghost fl d p side in
  let depth_of plane =
    match side with `Lo -> h - 1 - plane | `Hi -> plane - (planes_d - h)
  in
  let dint =
    match wrange with
    | None -> Some (0, h - 1)
    | Some (wl, wh) ->
        let gl, gh =
          match side with
          | `Lo -> (max wl 0, min wh (h - 1))
          | `Hi -> (max wl (planes_d - h), min wh (planes_d - 1))
        in
        if gl > gh then None
        else
          let a = depth_of gl and b = depth_of gh in
          Some (min a b, max a b)
  in
  match dint with
  | None -> ()  (* the write stays clear of this side's ghost zone *)
  | Some (dlo, dhi) ->
      let sparse = wrange = None in
      let v = ref 0 and broke_on_write = ref false and stop = ref false in
      for k = 0 to h - 1 do
        if not !stop then begin
          let written = dlo <= k && k <= dhi in
          (* is plane k still correct, and if not, did this write break it? *)
          let ok, by_write =
            if written then (k < c && ((not sparse) || k < g_old.g_valid), not (k < c))
            else if clobbering then (k < g_old.g_valid, false)
            else (false, true)
          in
          if ok then incr v
          else begin
            stop := true;
            broke_on_write := by_write
          end
        end
      done;
      if not (sparse && !v = g_old.g_valid) then begin
        let fresh = !broke_on_write || not !stop in
        Hashtbl.replace fl.fghosts (d, p, side)
          {
            g_op = op;
            g_fill = (if fresh then cf else g_old.g_fill);
            g_exch = (if fresh then cexch else g_old.g_exch);
            g_valid = !v;
            g_clobbered = (if !broke_on_write then clobbering else g_old.g_clobbered);
            g_src = (d, p);
            g_src_lo = 1;
            g_src_hi = 0;  (* locally recomputed: no remote frontier backs it *)
          }
      end

let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* Plane range touched by a linear index interval, clamped to the
   device's slab (padded NDRanges overshoot; their guards keep execution
   inside). *)
let z_range fl d (lin : Kernel_ast.Domain.itv) =
  match (lin.Kernel_ast.Domain.lo, lin.Kernel_ast.Domain.hi) with
  | Some lo, Some hi ->
      Some
        ( max 0 (floor_div lo fl.plane),
          min (fl.fslab.sl_planes.(d) - 1) (floor_div hi fl.plane) )
  | _ -> None

(* Parameter environment and role->runtime-buffer binding of a launch. *)
let launch_env (k : Kernel_ast.Cast.kernel) (args : Vgpu.Runtime.arg list) ~global =
  let scalars : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let roles = ref [] in
  (try
     List.iter2
       (fun (p : Kernel_ast.Cast.param) (a : Vgpu.Runtime.arg) ->
         match (p.Kernel_ast.Cast.p_kind, a) with
         | Kernel_ast.Cast.Scalar_param, Vgpu.Runtime.A_int n ->
             Hashtbl.replace scalars p.Kernel_ast.Cast.p_name n
         | Kernel_ast.Cast.Global_buf, Vgpu.Runtime.A_buf rn ->
             roles := (p.Kernel_ast.Cast.p_name, rn) :: !roles
         | _ -> ())
       k.Kernel_ast.Cast.params args
   with Invalid_argument _ -> ());
  ( Kernel_ast.Check.env ~param_value:(fun v -> Hashtbl.find_opt scalars v) ~global (),
    List.rev !roles )

let flow_launch fl ~hb i d (kernel : Kernel_ast.Cast.kernel) args global =
  let open Kernel_ast in
  let env, roles = launch_env kernel args ~global in
  (* degenerate slabs (nx or ny of 1) collapse the axis strides; fall
     back to the linear layout — axis extents are lost but absolute
     intervals (and so the uninit/ghost z-ranges) survive *)
  let strides =
    if fl.fslab.sl_nx > 1 && fl.fslab.sl_ny > 1 then [| 1; fl.fslab.sl_nx; fl.plane |]
    else [| 1 |]
  in
  let fp = Footprint.infer ~strides env kernel in
  let planes_d = fl.fslab.sl_planes.(d) in
  let h = fl.fhalo_w in
  let side_exists = function `Lo -> d > 0 | `Hi -> d < fl.ndev - 1 in
  let reaches side (zl, zh) =
    match side with `Lo -> zl <= h - 1 | `Hi -> zh >= planes_d - h
  in
  (* Pass 1 over the roles: check every halo-protocol read against the
     ghost validity as it stands *before* this launch, and collect the
     read provenance (buffer, radius, range) the write pass ages with. *)
  let halo_reads = ref [] in
  List.iter
    (fun (role, rn) ->
      let p = fl_resolve fl d rn in
      match Footprint.find fp role with
      | None -> ()
      | Some fb ->
          if fb.Footprint.fb_read.Footprint.s_sites > 0 then begin
            if Hashtbl.mem fl.funinit (d, p) then
              fl_add fl
                (issue Error "uninit-read"
                   "op %d: kernel %s reads %s (device %d), which is allocated but never written or uploaded"
                   i kernel.Cast.name p d);
            if Hashtbl.mem fl.fhalo rn || Hashtbl.mem fl.fhalo p then begin
              let radius = Footprint.read_radius fp role in
              let zr = z_range fl d fb.Footprint.fb_read.Footprint.s_lin in
              halo_reads := (role, p, radius, zr) :: !halo_reads;
              match (radius, zr) with
              | Some radius, Some zrange ->
                  let check_side side =
                    let side_name = match side with `Lo -> "low" | `Hi -> "high" in
                    let g = fl_ghost fl d p side in
                    let sd, sp = g.g_src in
                    if
                      g.g_src_hi >= g.g_src_lo
                      && List.exists
                           (fun (wop, wl, wh, _) ->
                             wop > g.g_op && wop < i && wl <= g.g_src_hi
                             && wh >= g.g_src_lo)
                           !(fl_writes fl sd sp)
                    then
                      fl_add fl
                        (issue Error "stale-halo"
                           "op %d: kernel %s reads the %s ghost of %s on device %d, but device %d rewrote the source frontier after the exchange that filled it"
                           i kernel.Cast.name side_name p d sd)
                    else if g.g_valid < radius then
                      if g.g_clobbered then
                        fl_add fl
                          (issue Error "clobbered-halo"
                             "op %d: kernel %s reads the %s ghost of %s on device %d, which a launch on the same device overwrote after the exchange"
                             i kernel.Cast.name side_name p d)
                      else if
                        (* validity ran out and no exchange ever backed this
                           ghost's aging chain: if the neighbour meanwhile
                           rewrote the frontier an exchange would have copied,
                           the exchange is missing, not merely too shallow *)
                        g.g_exch < 0
                        &&
                        let nd = match side with `Lo -> d - 1 | `Hi -> d + 1 in
                        let fr_lo, fr_hi =
                          match side with
                          | `Lo ->
                              let sp = fl.fslab.sl_planes.(nd) in
                              (sp - (2 * h), sp - h - 1)
                          | `Hi -> (h, (2 * h) - 1)
                        in
                        List.exists
                          (fun (wop, wl, wh, _) -> wop < i && wl <= fr_hi && wh >= fr_lo)
                          !(fl_writes fl nd p)
                      then
                        fl_add fl
                          (issue Error "stale-halo"
                             "op %d: kernel %s reads the %s ghost of %s on device %d, but device %d rewrote the source frontier after the exchange that filled it"
                             i kernel.Cast.name side_name p d
                             (match side with `Lo -> d - 1 | `Hi -> d + 1))
                      else begin
                        let fill =
                          if g.g_op >= 0 then
                            Printf.sprintf "the exchange at op %d filled only %d" g.g_op
                              g.g_valid
                          else
                            Printf.sprintf "the host-seeded ghost holds only %d" g.g_valid
                        in
                        fl_add fl
                          (issue Error "halo-too-narrow"
                             "op %d: kernel %s on device %d reads %d plane(s) of %s across the %s z-cut, but %s — widen the exchange to %d plane(s)"
                             i kernel.Cast.name d radius p side_name fill
                             (g.g_fill + radius - g.g_valid))
                      end;
                    if g.g_op >= 0 && not (hb g.g_op i) then
                      fl_add fl
                        (issue Error "unordered-ghost-read"
                           "op %d: kernel %s reads the %s ghost of %s on device %d but is not ordered after the exchange at op %d that fills it — a dropped frontier wait"
                           i kernel.Cast.name side_name p d g.g_op)
                  in
                  if radius > 0 then begin
                    if side_exists `Lo && reaches `Lo zrange then check_side `Lo;
                    if side_exists `Hi && reaches `Hi zrange then check_side `Hi
                  end
              | _ ->
                  if fl.ndev > 1 then
                    fl_warn_once fl
                      (kernel.Cast.name ^ "/" ^ role)
                      (issue Warning "halo-unverified"
                         "kernel %s: reads of %s are data-dependent; halo coverage is left to the runtime sanitizer"
                         kernel.Cast.name role)
            end
          end)
    roles;
  (* Pass 2: writes.  A write into a ghost zone by a launch is the
     in-block redundant recompute: the validity it confers is what its
     deepest-decayed input supports (min over halo reads of validity
     minus read radius); a launch reading no halo buffer writes
     input-independent (fully valid) data. *)
  let confer side =
    List.fold_left
      (fun (c, cf, ce) (_, bp, radius, zr) ->
        let applies = match zr with Some r -> reaches side r | None -> true in
        if not applies then (c, cf, ce)
        else
          let r = Option.value ~default:0 radius in
          let g = fl_ghost fl d bp side in
          let v = g.g_valid - r in
          if v < c then (v, g.g_fill, g.g_exch) else (c, cf, ce))
      (h, h, -1) !halo_reads
  in
  List.iter
    (fun (role, rn) ->
      let p = fl_resolve fl d rn in
      match Footprint.find fp role with
      | None -> ()
      | Some fb ->
          if fb.Footprint.fb_write.Footprint.s_sites > 0 then begin
            Hashtbl.remove fl.funinit (d, p);
            let zr = z_range fl d fb.Footprint.fb_write.Footprint.s_lin in
            let zl, zh = match zr with Some r -> r | None -> (0, planes_d - 1) in
            let r = fl_writes fl d p in
            r := (i, zl, zh, zr <> None) :: !r;
            if Hashtbl.mem fl.fhalo rn || Hashtbl.mem fl.fhalo p then
              List.iter
                (fun side ->
                  if side_exists side then begin
                    let c, cf, ce = confer side in
                    fl_age_side fl d p side ~op:i ~wrange:zr ~c:(max 0 c) ~cf
                      ~cexch:ce ~clobbering:false
                  end)
                [ `Lo; `Hi ]
          end)
    roles

let flow_exchange fl ~hb i ~src_dev ~src ~src_off ~dst_dev ~dst ~dst_off ~elems =
  let sp = fl_resolve fl src_dev src and dp = fl_resolve fl dst_dev dst in
  if Hashtbl.mem fl.funinit (src_dev, sp) then
    fl_add fl
      (issue Error "uninit-read" "op %d: exchange reads %s on device %d before it is written" i
         sp src_dev);
  if Hashtbl.mem fl.fstate src || Hashtbl.mem fl.fstate dst then
    (* branch-state refresh: not slab-shaped, outside the ghost model *)
    Hashtbl.remove fl.funinit (dst_dev, dp)
  else begin
    if elems mod fl.plane <> 0 then
      fl_add fl
        (issue Warning "exchange-partial-plane"
           "op %d: exchange of %d elems is not a whole number of %d-element planes" i elems
           fl.plane);
    let h = fl.fhalo_w in
    let w = elems / fl.plane in
    let we = max w 1 in
    let d0 = dst_off / fl.plane in
    let planes_dst = fl.fslab.sl_planes.(dst_dev) in
    (* A ghost fill must end at the cut-adjacent plane: [w] planes up to
       depth 0.  A shallower-than-halo fill starts inside the ghost zone
       ([d0] > 0 on the low side), which is why classification is by the
       covered range, not by offset zero. *)
    let side =
      if d0 >= 0 && d0 + we - 1 = h - 1 then Some `Lo
      else if d0 = planes_dst - h then Some `Hi
      else None
    in
    match side with
    | Some side ->
        let expect_src = match side with `Lo -> dst_dev - 1 | `Hi -> dst_dev + 1 in
        if src_dev <> expect_src then
          fl_add fl
            (issue Error "exchange-wrong-source"
               "op %d: %s ghost of device %d filled from device %d, expected neighbour %d" i
               (match side with `Lo -> "low" | `Hi -> "high")
               dst_dev src_dev expect_src)
        else begin
          (match
             List.find_opt
               (fun (wop, wl, wh, affine) ->
                 affine && wl <= d0 + we - 1 && wh >= d0 && not (hb wop i))
               !(fl_writes fl dst_dev dp)
           with
          | Some (wop, _, _, _) ->
              fl_add fl
                (issue Error "unordered-ghost-write"
                   "op %d: exchange into the %s ghost of %s on device %d is not ordered after op %d, which writes those planes — the launch can overwrite the fresh halo"
                   i
                   (match side with `Lo -> "low" | `Hi -> "high")
                   dp dst_dev wop)
          | None -> ());
          let src_lo = src_off / fl.plane in
          Hashtbl.replace fl.fghosts (dst_dev, dp, side)
            { g_op = i; g_fill = w; g_valid = w; g_clobbered = false; g_exch = i;
              g_src = (src_dev, sp); g_src_lo = src_lo; g_src_hi = src_lo + we - 1 }
        end
    | None ->
        (* a general inter-device copy: a plain write into the target *)
        let wl = d0 and wh = (dst_off + max 0 (elems - 1)) / fl.plane in
        let r = fl_writes fl dst_dev dp in
        r := (i, wl, wh, false) :: !r;
        if Hashtbl.mem fl.fhalo dst || Hashtbl.mem fl.fhalo dp then
          List.iter
            (fun side ->
              let ok = match side with `Lo -> dst_dev > 0 | `Hi -> dst_dev < fl.ndev - 1 in
              if ok then
                fl_age_side fl dst_dev dp side ~op:i ~wrange:(Some (wl, wh)) ~c:0 ~cf:0
                  ~cexch:(-1) ~clobbering:true)
            [ `Lo; `Hi ]
  end

let flow_dev_op fl ~hb i d (op : Vgpu.Runtime.op) =
  match op with
  | Vgpu.Runtime.Swap (a, b) ->
      let pa = fl_resolve fl d a and pb = fl_resolve fl d b in
      Hashtbl.replace fl.fphys (d, a) pb;
      Hashtbl.replace fl.fphys (d, b) pa
  | Vgpu.Runtime.Alloc { name; _ } -> Hashtbl.replace fl.funinit (d, fl_resolve fl d name) ()
  | Vgpu.Runtime.Copy_to_gpu name -> Hashtbl.remove fl.funinit (d, fl_resolve fl d name)
  | Vgpu.Runtime.Copy_to_host name ->
      let p = fl_resolve fl d name in
      if Hashtbl.mem fl.funinit (d, p) then
        fl_add fl
          (issue Error "uninit-read"
             "op %d: readback of %s on device %d before it is written" i p d)
  | Vgpu.Runtime.Copy_buffer { src; dst; dst_off; elems; _ } ->
      let sp = fl_resolve fl d src and dp = fl_resolve fl d dst in
      if Hashtbl.mem fl.funinit (d, sp) then
        fl_add fl
          (issue Error "uninit-read"
             "op %d: device copy reads %s on device %d before it is written" i sp d);
      Hashtbl.remove fl.funinit (d, dp);
      let wl = dst_off / fl.plane and wh = (dst_off + max 0 (elems - 1)) / fl.plane in
      let r = fl_writes fl d dp in
      r := (i, wl, wh, false) :: !r;
      if Hashtbl.mem fl.fhalo dst || Hashtbl.mem fl.fhalo dp then
        List.iter
          (fun side ->
            let ok = match side with `Lo -> d > 0 | `Hi -> d < fl.ndev - 1 in
            if ok then
              fl_age_side fl d dp side ~op:i ~wrange:(Some (wl, wh)) ~c:0 ~cf:0
                ~cexch:(-1) ~clobbering:true)
          [ `Lo; `Hi ]
  | Vgpu.Runtime.Launch { kernel; args; global; _ } ->
      flow_launch fl ~hb i d kernel args global

let verify_async ?halo ?state_bufs (slab : slab) (plan : Vgpu.Multi.async_plan) : issue list =
  let fl = make_flow ?halo ?state_bufs slab in
  fl_seed_halo fl (List.map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_op) plan);
  let ops = Array.of_list plan in
  let reach = async_order ops in
  let hb a b = (reach a).(b) in
  List.iteri
    (fun i (o : Vgpu.Multi.async_op) ->
      match o.Vgpu.Multi.a_op with
      | Vgpu.Multi.Dev (d, rop) -> flow_dev_op fl ~hb i d rop
      | Vgpu.Multi.Exchange { src_dev; src; src_off; dst_dev; dst; dst_off; elems } ->
          flow_exchange fl ~hb i ~src_dev ~src ~src_off ~dst_dev ~dst ~dst_off ~elems)
    plan;
  List.rev !(fl.fissues)
