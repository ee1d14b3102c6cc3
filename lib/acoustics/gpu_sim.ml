(* Drive a room-acoustics simulation through the virtual GPU.

   Kernel arguments are resolved *by parameter name* against the live
   simulation state, so the same driver runs the hand-written kernels and
   the Lift-generated kernels (both follow the paper's naming convention:
   prev/curr/next grids, bidx/nbrs/material boundary data, beta/bi/d/f/di
   coefficient tables, g1/v1/v2 branch state).

   Launches go through a [Vgpu.Runtime] so the engine choice (reference
   interpreter or compiled C), the kernel caches and the per-kernel
   launch statistics are shared with host-program plans.

   The per-step kernel sequence is the paper's two-kernel structure:
   volume handling first, boundary handling second, then buffer rotation.

   Two backends:

   - [Single]: one virtual device holding the global arrays — the
     original driver.
   - [Sharded] ([create ~shards:n]): the grid is cut into Z slabs
     ({!Shard.plan}), each slab running on its own device of a
     {!Vgpu.Multi}.  Every shard buffer is bound into its device's table
     once, at [create]; scalars re-resolve per shard (N, Nz, nB become
     the local extents).  Each time step is one [Multi.async_plan] value
     built by [step_ops]: the launches, the block-end halo exchanges and
     the rotation as per-device [Swap]s.  [step] executes that value
     under the configured schedule, and [plan] returns the same values
     for static analysis.  The results are bit-for-bit identical to the
     single-device run; [sync] gathers the slabs back into [state].

   The schemes that shard are the nbrs-driven ones (volume +
   boundary_fi / boundary_fi_mm / boundary_fd_mm).  The fused Listing-1
   kernel derives its boundary mask from global coordinates and is only
   correct on the full grid.

   The device stores [nbrs] (0-6 per point) as bytes: [create] builds a
   byte copy of it per device, and every kernel runs in its device form,
   the same kernel with its [nbrs] parameter marked [Cast.U8].  Host-side
   data ([Geometry.room.nbrs], [Shard.shard.nbrs]) stays [int array]. *)

open Kernel_ast.Cast

type engine =
  [ `Interp  (** reference interpreter *)
  | `Native  (** compiled-C backend, loaded via [dlopen] *) ]

(* How a sharded step's plan is executed:
   - [`Seq]: in list order on the host thread;
   - [`Concurrent]: each device's launches through the domain pool,
     then the exchanges and swaps on the host — a per-step barrier;
   - [`Overlap]: per-device in-order queues with event dependencies,
     run by {!Vgpu.Multi.run_async} on the host thread — the volume
     kernel splits into interior + frontier launches so halo exchanges
     overlap interior compute on the virtual timeline, and steps
     pipeline there (a step's frontier waits on the previous step's
     exchange stamps).  All three are bit-for-bit identical. *)
type schedule = [ `Seq | `Concurrent | `Overlap ]

type backend =
  | Single of Vgpu.Runtime.t
  | Sharded of {
      multi : Vgpu.Multi.t;
      plan : Shard.plan;
      schedule : schedule;
      tblock : int;  (* temporal block depth T = the shards' halo *)
      mutable bpos : int;  (* position within the current block, 0..T-1 *)
      mutable scattered : bool;  (* state has been distributed to the shards *)
      eid : int ref;  (* next fresh event id *)
      incs : (int list * int list) array;
          (* per device: events of the previous block's exchanges into its
             (bottom, top) ghost zone — the block-start launches' waits *)
      mutable imports : (int * float) list;
          (* the events the last overlapped step signalled, with their
             virtual-time stamps, for the next step's waits *)
      mutable launch_ops :
        ((Kernel_ast.Cast.kernel * bool) * (Shard.range_kind option * Vgpu.Multi.op) list array)
        list;
          (* cache: (kernel, ranges) -> per device, its launch ops: the
             interior/frontier ranges of a split kernel, or one full-range
             launch *)
    }

type t = {
  params : Params.t;
  state : State.t;
  tables : Material.tables;
  fi_beta : float;  (* single-material admittance for the FI kernels *)
  engine : engine;
  precision : Kernel_ast.Cast.precision;
  req_tblock : int;  (* requested temporal block depth *)
  backend : backend;
  mutable launches : int;
  nbrs_dev : Vgpu.Buffer.t;
      (* single device: byte copy of the room's nbrs ([Buffer.I] of the
         host array when sharded, where only its length is used) *)
  mutable device_forms : (kernel * kernel) list;
      (* physical-equality memo of [device_form] *)
}

let runtime_engine : engine -> Vgpu.Runtime.engine = function
  | `Interp -> Vgpu.Runtime.Interp
  | `Native -> Vgpu.Runtime.Native

let table_buffer (tables : Material.tables) name : Vgpu.Buffer.t option =
  match name with
  | "beta" -> Some (Vgpu.Buffer.F tables.Material.t_beta)
  | "beta_fd" -> Some (Vgpu.Buffer.F tables.Material.t_beta_fd)
  | "bi" -> Some (Vgpu.Buffer.F tables.Material.t_bi)
  | "d" -> Some (Vgpu.Buffer.F tables.Material.t_d)
  | "f" -> Some (Vgpu.Buffer.F tables.Material.t_f)
  | "di" -> Some (Vgpu.Buffer.F tables.Material.t_di)
  | _ -> None

(* Bind every shard buffer into its device's table, once: grids and
   branch state (rotated from then on by the plans' [Swap]s), the
   shard's boundary data with its byte copy of [nbrs], and the read-only
   coefficient tables shared across devices. *)
let bind_shards multi (p : Shard.plan) tables =
  let states = Shard.create_states p in
  Array.iteri
    (fun i (sh : Shard.shard) ->
      let ss = states.(i) and bind = Vgpu.Multi.bind multi i in
      bind "prev" (Vgpu.Buffer.F ss.Shard.prev);
      bind "curr" (Vgpu.Buffer.F ss.Shard.curr);
      bind "next" (Vgpu.Buffer.F ss.Shard.next);
      bind "g1" (Vgpu.Buffer.F ss.Shard.g1);
      bind "v2" (Vgpu.Buffer.F ss.Shard.vel_prev);
      bind "v1" (Vgpu.Buffer.F ss.Shard.vel_next);
      bind "nbrs" (Vgpu.Buffer.u8_of_int_array sh.Shard.nbrs);
      bind "bidx" (Vgpu.Buffer.I sh.Shard.bidx);
      bind "material" (Vgpu.Buffer.I sh.Shard.material);
      List.iter
        (fun name -> Option.iter (bind name) (table_buffer tables name))
        [ "beta"; "beta_fd"; "bi"; "d"; "f"; "di" ])
    p.Shard.shards

let create ?(engine = `Native) ?(optimize = true) ?unroll_budget ?(fi_beta = 0.1)
    ?(materials = Material.defaults) ?(n_branches = 3) ?shards ?schedule ?(precision = Double)
    ?(tblock = 1) ?verify ?(sanitize = false) params room =
  let re = runtime_engine engine in
  let tables = Material.tables ~n_branches materials in
  let backend =
    match shards with
    | None ->
        Single
          (Vgpu.Runtime.create ~engine:re ~optimize ?unroll_budget ~precision
             ?verify ~sanitize ())
    | Some n ->
        let plan = Shard.plan ~n_branches ~halo:tblock ~shards:n room in
        let devices = Shard.n_shards plan in
        let schedule = Option.value schedule ~default:`Concurrent in
        let multi =
          Vgpu.Multi.create ~engine:re ~optimize ?unroll_budget ~precision ?verify ~sanitize
            ~devices ()
        in
        bind_shards multi plan tables;
        Sharded
          {
            multi;
            plan;
            schedule;
            (* effective block depth: Shard.plan clamps the halo to the
               thinnest slab, so re-read it from the shards *)
            tblock = plan.Shard.shards.(0).Shard.halo;
            bpos = 0;
            scattered = false;
            eid = ref 0;
            incs = Array.make devices ([], []);
            imports = [];
            launch_ops = [];
          }
  in
  let nbrs_dev =
    match backend with
    | Single _ -> Vgpu.Buffer.u8_of_int_array room.Geometry.nbrs
    | Sharded _ -> Vgpu.Buffer.I room.Geometry.nbrs
  in
  {
    params;
    state = State.create ~n_branches room;
    tables;
    fi_beta;
    engine;
    precision;
    req_tblock = max 1 tblock;
    backend;
    launches = 0;
    nbrs_dev;
    device_forms = [];
  }

(* The device form of a kernel: the same kernel with its [nbrs]
   parameter stored as bytes, which is how this driver binds [nbrs]
   (kernels without it are returned as they are).  A kernel that writes
   [nbrs] is refused: its writes would land in the device copy. *)
let device_form (k : kernel) =
  if not (List.exists (fun p -> p.p_name = "nbrs") k.params) then k
  else if stores_to "nbrs" k.body then
    invalid_arg
      (Printf.sprintf "gpu_sim: kernel %s writes nbrs, which the device stores as bytes" k.name)
  else with_u8 "nbrs" k

(* Memoized by physical equality, so every step launches one value per
   kernel and the runtime's digest memo keeps hitting.  Bounded like
   that memo, so a caller passing fresh kernel values cannot grow it. *)
let max_device_forms = 32

let device_kernel t (k : kernel) =
  match List.assq_opt k t.device_forms with
  | Some d -> d
  | None ->
      let d = device_form k in
      t.device_forms <-
        (k, d) :: List.filteri (fun i _ -> i < max_device_forms - 1) t.device_forms;
      d

let device_kernels t kernels = List.map (device_kernel t) kernels

(* Effective temporal block depth: the requested [tblock] clamped by the
   thinnest slab when sharded (the requested value on a single device,
   where no halo constrains it). *)
let tblock t =
  match t.backend with Single _ -> t.req_tblock | Sharded s -> s.tblock

let n_shards t =
  match t.backend with Single _ -> 1 | Sharded s -> Shard.n_shards s.plan

let scalar_int t name =
  let { Geometry.nx; ny; nz } = t.state.room.Geometry.dims in
  match name with
  | "Nx" -> nx
  | "Ny" -> ny
  | "Nz" -> nz
  | "NxNy" -> nx * ny
  | "N" -> nx * ny * nz
  | "nB" -> Geometry.n_boundary t.state.room
  | "MB" -> t.state.n_branches
  | "NM" -> Array.length t.tables.Material.t_beta
  | _ -> failwith (Printf.sprintf "gpu_sim: unknown int scalar %s" name)

(* Per-shard scalars: the grid extents become the local slab's (owned
   planes + 2 ghosts), the boundary count becomes the shard's range. *)
let scalar_int_shard t (sh : Shard.shard) name =
  match name with
  | "Nz" -> sh.Shard.planes
  | "NxNy" -> sh.Shard.plane
  | "N" -> sh.Shard.local_n
  | "nB" -> sh.Shard.n_b
  | _ -> scalar_int t name

let scalar_real t name =
  match name with
  | "l" -> Params.l t.params
  | "l2" -> Params.l2 t.params
  | "beta" -> t.fi_beta
  | _ -> failwith (Printf.sprintf "gpu_sim: unknown real scalar %s" name)

let buffer t name : Vgpu.Buffer.t =
  let st = t.state in
  let room = st.room in
  match table_buffer t.tables name with
  | Some b -> b
  | None -> (
      match name with
      | "prev" -> Vgpu.Buffer.F st.prev
      | "curr" -> Vgpu.Buffer.F st.curr
      | "next" -> Vgpu.Buffer.F st.next
      | "nbrs" -> t.nbrs_dev
      | "bidx" -> Vgpu.Buffer.I room.Geometry.boundary_indices
      | "material" -> Vgpu.Buffer.I room.Geometry.material
      | "g1" -> Vgpu.Buffer.F st.g1
      | "v2" -> Vgpu.Buffer.F st.vel_prev
      | "v1" -> Vgpu.Buffer.F st.vel_next
      | _ -> failwith (Printf.sprintf "gpu_sim: unknown buffer %s" name))

(* Launch arguments: buffers by parameter name ([buf] sees each name
   first — the single device binds its live arrays there), scalars
   resolved. *)
let launch_args ~buf ~int_scalar ~real_scalar (k : kernel) =
  List.map
    (fun p ->
      match (p.p_kind, p.p_ty) with
      | Global_buf, _ ->
          buf p.p_name;
          Vgpu.Runtime.A_buf p.p_name
      | Scalar_param, Int -> Vgpu.Runtime.A_int (int_scalar p.p_name)
      | Scalar_param, Real -> Vgpu.Runtime.A_real (real_scalar p.p_name))
    k.params

(* Resolve the kernel's symbolic global size against a scalar
   environment.  Tiled kernels round their NDRange up to the work-group
   size with [((Nx + tw - 1) / tw) * tw]-shaped expressions. *)
let global_size ~int_scalar (k : kernel) =
  List.map
    (fun e ->
      match eval_int (fun v -> Some (int_scalar v)) e with
      | Some n -> n
      | None -> failwith "gpu_sim: unsupported global size expression")
    k.global_size

(* Single device: the state arrays rotate host-side between steps, so
   the bindings refresh on every launch. *)
let launch_on rt ~int_scalar ~real_scalar ~buf (k : kernel) =
  let args =
    launch_args ~buf:(fun name -> Vgpu.Runtime.bind rt name (buf name)) ~int_scalar ~real_scalar k
  in
  let global = global_size ~int_scalar k in
  Vgpu.Runtime.run_op rt (Vgpu.Runtime.Launch { kernel = k; args; global })

(* A launch of [k] on shard [sh]: buffers by name (its device binds
   them), scalars per shard; [goff] and [global] set a ranged launch's
   element range. *)
let shard_launch t (sh : Shard.shard) ?(goff = 0) ?global (k : kernel) =
  let int_scalar name = if name = "goff" then goff else scalar_int_shard t sh name in
  let args = launch_args ~buf:ignore ~int_scalar ~real_scalar:(scalar_real t) k in
  let global = match global with Some g -> g | None -> global_size ~int_scalar k in
  Vgpu.Multi.Dev (sh.Shard.index, Vgpu.Runtime.Launch { kernel = k; args; global })

(* -- The sharded step plan -------------------------------------------- *)

(* A kernel is splittable into interior/frontier ranges when it sweeps
   the full local grid: the volume kernels launch over [Var "N"].  The
   boundary kernels ([Var "nB"]) touch owned points only, so plain FIFO
   order behind the volume launches already orders them correctly. *)
let splittable (k : kernel) =
  match k.global_size with [ Var "N" ] -> true | _ -> false

(* Does a full-range launch of [k] write ghost planes?  Grid kernels
   sweep the whole local slab, ghost planes included (flat over N, or
   3D padded to the tile); boundary kernels run over the shard's nB
   boundary points, which at T = 1 all lie in owned planes. *)
let sweeps_slab (k : kernel) = k.global_size <> [ Var "nB" ]

(* Does the kernel sequence carry persistent per-boundary-point branch
   state (the FD-MM scheme)?  If so, a block boundary must also refresh
   the ghost slices of [g1]/[v1]: a ghost boundary point at depth d only
   maintains its state to generation T-d locally. *)
let uses_branch_state (kernels : kernel list) =
  List.exists
    (fun (k : kernel) -> List.exists (fun p -> p.p_name = "g1") k.params)
    kernels

(* The exchanges of one block boundary: the freshly written [next] at
   full depth T (it becomes [curr], whose ghosts the next block reads to
   depth T); the previous generation [curr] at depth T-1 (it becomes
   [prev], read at radius 0 by writes of validity up to T-1) — skipped
   for T ≤ 2, where the redundant in-block recompute already left it
   valid to depth 1 locally; and the ghost branch-state slices for
   schemes that carry them.  At T = 1 this reduces to exactly the
   original per-step [next] exchange. *)
let block_exchange_plan (p : Shard.plan) ~tblock ~has_state : Vgpu.Multi.plan =
  Shard.exchange_ops ~depth:tblock p ~buffer:"next"
  @ (if tblock > 2 then Shard.exchange_ops ~depth:(tblock - 1) p ~buffer:"curr" else [])
  @ (if has_state && tblock > 1 then
       Shard.state_exchange_ops p ~buffer:"g1" @ Shard.state_exchange_ops p ~buffer:"v1"
     else [])

(* The ops of one sharded time step at block position [bpos] (0..T-1):
   the only place a sharded step is encoded.  Every schedule executes
   these values and {!plan} returns them for analysis.

   Per device, in queue order, the step's launches.  With [split] (the
   overlapped schedule), at a block start each splittable kernel becomes
   an interior range first (no waits — it starts immediately), then the
   halo-deep frontier ranges, each waiting on the events of the previous
   block's exchanges into the ghost zone its stencil reads.  Any other
   launch at a block start waits on both sides' events when it reads the
   exchanged [curr] ghosts (an unsplit volume kernel) or, at T ≥ 2,
   exchanged branch state; later launches follow by FIFO.  Mid-block
   launches wait on nothing: they touch no freshly exchanged data.

   At a block end (bpos = T-1) the block's halo exchanges follow, each
   on its source device's queue — FIFO puts it after the source's
   writes — and each signalling a fresh event that the next block start
   waits on ([incs], updated in place).  When an in-block launch writes
   the ghost planes the exchanges fill (any launch at T ≥ 2, and an
   unsplit slab sweep at T = 1), each exchange also waits on its
   destination's last launch, which then signals.  Split T = 1 steps
   write no ghost plane, so their exchanges overlap freely.

   Last, the rotation: per-device [Swap]s of prev/curr/next and v2/v1.
   A step's launches always precede its exchanges and swaps.  [eid]
   supplies fresh event ids, so ids never repeat across steps. *)
let step_ops t ~split ~eid ~incs ~bpos kernels : Vgpu.Multi.async_plan =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: step_ops on a single-device backend"
  | Sharded s ->
      let fresh () =
        let e = !eid in
        incr eid;
        e
      in
      (* every step launches the same values, so each kernel's launch
         ops are built once (bounded like the device-form memo) *)
      let launch_ops k ~ranges =
        match List.find_opt (fun ((k', r), _) -> k' == k && r = ranges) s.launch_ops with
        | Some (_, ops) -> ops
        | None ->
            let rk = if ranges then Kernel_ast.Cast.offset_global_id k else k in
            let ops =
              Array.map
                (fun sh ->
                  if ranges then
                    List.map
                      (fun (kind, goff, count) ->
                        (Some kind, shard_launch t sh ~goff ~global:[ count ] rk))
                      (Shard.split_ranges sh)
                  else [ (None, shard_launch t sh k) ])
                s.plan.Shard.shards
            in
            s.launch_ops <-
              ((k, ranges), ops) :: List.filteri (fun i _ -> i < max_device_forms - 1) s.launch_ops;
            ops
      in
      let ops = ref [] in
      let push ?(waits = []) ?signal a_op =
        ops := { Vgpu.Multi.a_op; a_waits = waits; a_signal = signal } :: !ops
      in
      let n = Shard.n_shards s.plan in
      let tb = s.tblock in
      let block_start = bpos = 0 in
      let block_end = bpos = tb - 1 in
      let reads_curr (k : kernel) = List.exists (fun p -> p.p_name = "curr") k.params in
      let ghost_writes =
        block_end && n > 1
        && List.exists (fun k -> tb > 1 || (sweeps_slab k && not (split && splittable k))) kernels
      in
      let last_sig = Array.make n None in
      for i = 0 to n - 1 do
        let lo, hi = incs.(i) in
        List.iter
          (fun k ->
            List.iter
              (fun (kind, op) ->
                let waits =
                  match kind with
                  | Some Shard.Interior -> []
                  | Some Shard.Frontier_lo -> lo
                  | Some Shard.Frontier_hi -> hi
                  | Some Shard.Frontier_both -> lo @ hi
                  | None -> if block_start && (tb > 1 || reads_curr k) then lo @ hi else []
                in
                push ~waits op)
              (launch_ops k ~ranges:(split && block_start && splittable k)).(i))
          kernels;
        (* the device's last launch signals the exchanges into it *)
        match !ops with
        | last :: rest when ghost_writes ->
            let e = fresh () in
            last_sig.(i) <- Some e;
            ops := { last with Vgpu.Multi.a_signal = Some e } :: rest
        | _ -> ()
      done;
      let next_incs = Array.make n ([], []) in
      if block_end then
        List.iter
          (fun x ->
            match x with
            | Vgpu.Multi.Exchange { dst_dev = j; dst; dst_off; _ } ->
                let ev = fresh () in
                let dsh = s.plan.Shard.shards.(j) and lo, hi = next_incs.(j) in
                (* grid-buffer exchanges land on one side of the slab;
                   branch-state slices order both sides conservatively *)
                next_incs.(j) <-
                  (match dst with
                  | "next" | "curr" | "prev" ->
                      if dst_off < dsh.Shard.halo * dsh.Shard.plane then (lo @ [ ev ], hi)
                      else (lo, hi @ [ ev ])
                  | _ -> (lo @ [ ev ], hi @ [ ev ]));
                push ~waits:(Option.to_list last_sig.(j)) ~signal:ev x
            | Vgpu.Multi.Dev _ -> push x)
          (block_exchange_plan s.plan ~tblock:tb ~has_state:(uses_branch_state kernels));
      Array.blit next_incs 0 incs 0 n;
      for i = 0 to n - 1 do
        push (Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap ("prev", "curr")));
        push (Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap ("curr", "next")));
        push (Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap ("v2", "v1")))
      done;
      List.rev !ops

let is_launch (o : Vgpu.Multi.async_op) =
  match o.Vgpu.Multi.a_op with Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch _) -> true | _ -> false

(* The ops of the simulation's next step, advancing its block position
   and event state. *)
let next_step_ops t ~split kernels =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: next_step_ops on a single-device backend"
  | Sharded s ->
      let ops = step_ops t ~split ~eid:s.eid ~incs:s.incs ~bpos:s.bpos kernels in
      s.bpos <- (s.bpos + 1) mod s.tblock;
      t.launches <- List.fold_left (fun acc o -> if is_launch o then acc + 1 else acc) t.launches ops;
      ops

(* The next [steps] steps' ops, built from copies of the simulation's
   event state so nothing advances. *)
let plan t (kernels : kernel list) ~steps : Vgpu.Multi.async_plan =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: plan needs a sharded backend"
  | Sharded s ->
      let kernels = device_kernels t kernels in
      let eid = ref !(s.eid) and incs = Array.copy s.incs in
      let acc = ref [] in
      for k = 0 to steps - 1 do
        let bpos = (s.bpos + k) mod s.tblock in
        acc := List.rev_append (step_ops t ~split:(s.schedule = `Overlap) ~eid ~incs ~bpos kernels) !acc
      done;
      List.rev !acc

(* The shard state a device's table binds right now: the plans' [Swap]s
   rotate the bindings, so this is where the live arrays are. *)
let bound multi i name =
  match Vgpu.Runtime.buffer (Vgpu.Multi.device multi i) name with
  | Vgpu.Buffer.F a -> a
  | _ -> invalid_arg (Printf.sprintf "gpu_sim: shard buffer %s is not real" name)

let bound_states multi (p : Shard.plan) =
  Array.map
    (fun (sh : Shard.shard) ->
      let f = bound multi sh.Shard.index in
      {
        Shard.prev = f "prev";
        curr = f "curr";
        next = f "next";
        g1 = f "g1";
        vel_prev = f "v2";
        vel_next = f "v1";
      })
    p.Shard.shards

(* Distribute the global state to the shards on first use, so impulses
   added through [State.add_impulse] before the first step are seen. *)
let ensure_scattered t =
  match t.backend with
  | Single _ -> ()
  | Sharded s ->
      if not s.scattered then begin
        Shard.scatter s.plan t.state (bound_states s.multi s.plan);
        s.scattered <- true
      end

(* Launch one kernel (on every shard, when sharded) without stepping. *)
let launch t (k : kernel) =
  let k = device_kernel t k in
  match t.backend with
  | Single rt ->
      t.launches <- t.launches + 1;
      launch_on rt ~int_scalar:(scalar_int t) ~real_scalar:(scalar_real t)
        ~buf:(buffer t) k
  | Sharded s ->
      ensure_scattered t;
      Array.iter (fun sh -> Vgpu.Multi.run_op s.multi (shard_launch t sh k)) s.plan.Shard.shards;
      t.launches <- t.launches + Shard.n_shards s.plan

(* One overlapped time step: the split plan, run by [Multi.run_async]
   in the interleaving [pick] chooses (first ready by default).  The
   block-start launches wait on the events in [incs], each stamped as
   the executor recorded it, or 0 when the step that signalled it ran
   under another schedule — that step completed, so its events count as
   fired. *)
let step_overlap_with ?pick t (kernels : kernel list) =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: step_overlap_with needs a sharded backend"
  | Sharded s ->
      let kernels = device_kernels t kernels in
      ensure_scattered t;
      let stamp id = (id, Option.value (List.assoc_opt id s.imports) ~default:0.) in
      let imports =
        Array.fold_left (fun acc (lo, hi) -> List.map stamp (lo @ hi) @ acc) [] s.incs
      in
      let ops = next_step_ops t ~split:true kernels in
      s.imports <- Vgpu.Multi.run_async ~imports ?pick s.multi ops

(* One time step.  Single device: run each kernel in order, then rotate
   the buffers.  Sharded: build the step's plan and execute it under the
   configured schedule. *)
let step t (kernels : kernel list) =
  match t.backend with
  | Single _ ->
      List.iter (launch t) kernels;
      State.rotate t.state
  | Sharded s -> (
      match s.schedule with
      | `Overlap -> step_overlap_with t kernels
      | (`Seq | `Concurrent) as schedule -> (
          (* device forms are resolved here, on the calling domain, before
             any shard runs *)
          let kernels = device_kernels t kernels in
          ensure_scattered t;
          let ops = next_step_ops t ~split:false kernels in
          let run (o : Vgpu.Multi.async_op) = Vgpu.Multi.run_op s.multi o.Vgpu.Multi.a_op in
          match schedule with
          | `Seq -> List.iter run ops
          | `Concurrent ->
              (* the step's launches precede its exchanges and swaps: run each
                 device's through the pool, then the rest on this domain *)
              let n = Shard.n_shards s.plan in
              let launches, rest = List.partition is_launch ops in
              let run_device i =
                List.iter
                  (fun (o : Vgpu.Multi.async_op) ->
                    match o.Vgpu.Multi.a_op with
                    | Vgpu.Multi.Dev (d, _) when d = i -> run o
                    | _ -> ())
                  launches
              in
              if n > 1 then Vgpu.Pool.run Vgpu.Pool.global ~n run_device else List.iter run launches;
              List.iter run rest))

(* Slab geometry of the sharded backend, for the flow verifier. *)
let slab_geometry t =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: slab_geometry needs a sharded backend"
  | Sharded s ->
      let d = t.state.room.Geometry.dims in
      ( d.Geometry.nx,
        d.Geometry.ny,
        Array.map (fun (sh : Shard.shard) -> sh.Shard.planes) s.plan.Shard.shards )

(* Copy the sharded slabs back into the global [state] arrays (no-op on
   a single device, where [state] is live, and before the first step,
   when [state] still holds the only copy). *)
let sync t =
  match t.backend with
  | Single _ -> ()
  | Sharded s -> if s.scattered then Shard.gather s.plan (bound_states s.multi s.plan) t.state

(* Read the current field at a grid point, wherever it lives.  A slab's
   local index is the (range-checked) global one shifted by the planes
   before the slab's first local plane. *)
let read t ~x ~y ~z =
  match t.backend with
  | Sharded s when s.scattered ->
      let idx = State.idx_of t.state ~x ~y ~z in
      let sh = Shard.owner s.plan ~z in
      (bound s.multi sh.Shard.index "curr").(idx - ((sh.Shard.z0 - sh.Shard.halo) * sh.Shard.plane))
  | Single _ | Sharded _ -> State.read t.state ~x ~y ~z

let stats t =
  match t.backend with
  | Single rt -> Vgpu.Runtime.stats rt
  | Sharded s -> Vgpu.Multi.stats s.multi

(* The live sanitizers, one per device (empty unless ~sanitize:true). *)
let sanitizers t =
  match t.backend with
  | Single rt -> Option.to_list (Vgpu.Runtime.sanitizer rt)
  | Sharded s ->
      Array.to_list s.multi.Vgpu.Multi.devices
      |> List.filter_map Vgpu.Runtime.sanitizer

let violations t = (stats t).Vgpu.Runtime.s_violations

(* Static-verification environment mirroring this simulation's argument
   resolution: scalars resolve like [scalar_int], buffer extents are the
   live arrays' lengths.  Lets [racs check] and tests run
   [Kernel_ast.Check] against exactly the values a launch would see. *)
let check_env t =
  let param_value name =
    match scalar_int t name with n -> Some n | exception Failure _ -> None
  in
  let buffer_elems name =
    match buffer t name with
    | b -> Some (Vgpu.Buffer.length b)
    | exception Failure _ -> None
  in
  Kernel_ast.Check.env ~param_value ~buffer_elems ()

let per_shard_stats t =
  match t.backend with
  | Single rt -> [ (0, Vgpu.Runtime.stats rt) ]
  | Sharded s -> Vgpu.Multi.per_device_stats s.multi

let pp_stats ppf t =
  match t.backend with
  | Single rt -> Vgpu.Runtime.pp_stats ppf (Vgpu.Runtime.stats rt)
  | Sharded s -> Vgpu.Multi.pp_stats ppf s.multi

(* Zero the launch/transfer counters and align the devices' virtual
   clocks, so a measurement interval starts clean. *)
let reset_stats t =
  match t.backend with
  | Single rt -> Vgpu.Runtime.reset_stats rt
  | Sharded s -> Vgpu.Multi.reset_stats s.multi

(* Sharded schedule of this simulation, if sharded. *)
let schedule t =
  match t.backend with Single _ -> None | Sharded s -> Some s.schedule

(* Virtual critical path (ns) across this simulation's devices: the
   latest device clock.  0 on a single device or when no overlapped step
   ran. *)
let overlap_vclock_ns t =
  match t.backend with
  | Single _ -> 0.
  | Sharded s -> Vgpu.Multi.async_vclock s.multi

(* Aggregate virtual-time statistics (busy vs critical path vs overlap
   saved); [None] on a single device. *)
let overlap_stats t =
  match t.backend with
  | Single _ -> None
  | Sharded s -> Some (Vgpu.Multi.overlap_stats s.multi)

(* Static per-step cost profile of the temporal-blocking tradeoff. *)
type blocked_stats = {
  bs_tblock : int;  (* effective block depth T *)
  bs_exchanges_per_step : float;  (* d2d copy ops per time step *)
  bs_halo_bytes_per_step : float;  (* d2d bytes per time step *)
  bs_redundant_points : int;
      (* ghost points with real geometry, recomputed redundantly on
         every in-block step across all shards *)
}

let blocked_stats t (kernels : kernel list) =
  match t.backend with
  | Single _ -> None
  | Sharded s ->
      let exs =
        block_exchange_plan s.plan ~tblock:s.tblock ~has_state:(uses_branch_state kernels)
      in
      let elem = match t.precision with Double -> 8 | Single -> 4 in
      let bytes =
        List.fold_left
          (fun acc op ->
            match op with
            | Vgpu.Multi.Exchange { elems; _ } -> acc + (elems * elem)
            | _ -> acc)
          0 exs
      in
      let redundant = ref 0 in
      Array.iter
        (fun (sh : Shard.shard) ->
          let h = sh.Shard.halo in
          let count_plane p =
            for q = p * sh.Shard.plane to ((p + 1) * sh.Shard.plane) - 1 do
              if sh.Shard.nbrs.(q) > 0 then incr redundant
            done
          in
          for p = 1 to h - 1 do
            count_plane p
          done;
          for p = sh.Shard.planes - h to sh.Shard.planes - 2 do
            if p > h - 1 then count_plane p
          done)
        s.plan.Shard.shards;
      let tb = float_of_int s.tblock in
      Some
        {
          bs_tblock = s.tblock;
          bs_exchanges_per_step = float_of_int (List.length exs) /. tb;
          bs_halo_bytes_per_step = float_of_int bytes /. tb;
          bs_redundant_points = !redundant;
        }

(* Run [steps] steps recording the field at the receiver after each. *)
let run t (kernels : kernel list) ~steps ~receiver:(rx, ry, rz) =
  let out = Array.make steps 0. in
  for n = 0 to steps - 1 do
    step t kernels;
    out.(n) <- read t ~x:rx ~y:ry ~z:rz
  done;
  out
