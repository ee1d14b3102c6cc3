(* Drive a room-acoustics simulation through the virtual GPU.

   Kernel arguments are resolved *by parameter name* against the live
   simulation state, so the same driver runs the hand-written kernels and
   the Lift-generated kernels (both follow the paper's naming convention:
   prev/curr/next grids, bidx/nbrs/material boundary data, beta/bi/d/f/di
   coefficient tables, g1/v1/v2 branch state).

   Launches go through [Vgpu.Runtime]s, so the engine choice (reference
   interpreter or compiled C), the kernel caches and the per-kernel
   launch statistics are shared with host-program plans.

   The per-step kernel sequence is the paper's two-kernel structure:
   volume handling first, boundary handling second, then buffer rotation.

   Every simulation runs a Z-slab plan ({!Shard.plan}), one device of a
   {!Vgpu.Multi} per slab.  Every buffer is bound into its device's table
   once, at [create]; scalars resolve per shard (N, Nz, nB become the
   local extents).  Each time step is one [Multi.async_plan] value built
   by [step_ops]: the launches, the block-end halo exchanges and the
   rotation as per-device [Swap]s.  [step] executes that value under the
   configured schedule, and [plan] returns the same values for static
   analysis.  A volume launch's hull is the planes that can hold a room
   point ({!Shard.live_planes}), in the offset form the overlapped
   schedule splits: no ghost plane and none of the room's shell.  Within
   it the launch visits only the room's row intervals, the span set it
   carries ({!Shard.launch_spans}, built once with the plan): every work
   item skipped has [nbrs] = 0, where the hand kernel writes nothing and
   the Lift kernel writes 0 into a cell that always holds 0 ([State] and
   the slabs start zeroed, [State.add_impulse] refuses such points, the
   boundary kernels write boundary points only, and exchanges copy zeros
   there).  The verifiers see the hull: a span launch's work items are a
   subset of it, each independent of the others.

   - One device runs the one-slab plan, whose shard is the room itself:
     no ghost planes and no exchanges.  Its device binds the room's byte
     grid and boundary data and [state]'s own arrays, so nothing is
     scattered or gathered, and every step leaves [state] naming the
     arrays bound.  Its step's ops carry no event, so they are built once
     and re-run.
   - [create ~shards:n] cuts the grid into n slabs with ghost planes,
     each with its own arrays; [sync] gathers the slabs back into
     [state].  The results are bit-for-bit identical to one device's.

   The schemes that shard are the nbrs-driven ones (volume +
   boundary_fi / boundary_fi_mm / boundary_fd_mm).  The fused Listing-1
   kernel derives its boundary mask from global coordinates and is only
   correct on the full grid, which one device holds.

   The device stores [nbrs] (0-6 per point) as bytes, and every kernel
   runs in its device form, the same kernel with its [nbrs] parameter
   marked [Cast.U8].  No byte grid is computed here: one device binds
   the room's own byte grid ([Geometry.room.nbrs_u8], which the geometry
   walker writes), and each of several shards binds its slab
   ([Shard.shard.nbrs], blitted from that grid).  [Geometry.room.nbrs]
   stays an [int array] for the host-side reference code. *)

open Kernel_ast.Cast

type engine =
  [ `Interp  (** reference interpreter *)
  | `Native  (** compiled-C backend, loaded via [dlopen] *) ]

(* How a step's plan is executed:
   - [`Seq]: in list order on the host thread;
   - [`Concurrent]: each device's launches through the domain pool,
     then the exchanges and swaps on the host — a per-step barrier;
   - [`Overlap]: per-device in-order queues with event dependencies,
     run by {!Vgpu.Multi.run_async} on the host thread — on several
     devices the volume kernel splits into interior + frontier launches
     so halo exchanges overlap interior compute on the virtual timeline,
     and steps pipeline there (a step's frontier waits on the previous
     step's exchange stamps).  All three are bit-for-bit identical. *)
type schedule = [ `Seq | `Concurrent | `Overlap ]

(* One device's state cells in its buffer table.  A runtime never
   replaces a cell ([bind] writes one, a [Swap] exchanges two cells'
   contents), so [create] looks them up once. *)
type cells = {
  c_prev : Vgpu.Buffer.t ref;
  c_curr : Vgpu.Buffer.t ref;
  c_next : Vgpu.Buffer.t ref;
  c_g1 : Vgpu.Buffer.t ref;
  c_v2 : Vgpu.Buffer.t ref;
  c_v1 : Vgpu.Buffer.t ref;
}

(* Per device, the launch ops of one kernel, each with its range kind
   ([None]: unsplit). *)
type launches = (Shard.range_kind option * Vgpu.Multi.op) list array

type t = {
  params : Params.t;
  state : State.t;
  tables : Material.tables;
  fi_beta : float;  (* single-material admittance for the FI kernels *)
  precision : Kernel_ast.Cast.precision;
  multi : Vgpu.Multi.t;  (* one device per shard *)
  cells : cells array;  (* per device *)
  plan : Shard.plan;
  schedule : schedule;
  tblock : int;  (* temporal block depth T = the shards' halo; 1 on one device *)
  mutable bpos : int;  (* position within the current block, 0..T-1 *)
  mutable scattered : bool;
      (* the devices' buffers hold the field: from the start on one
         device, which binds [state]'s arrays *)
  eid : int ref;  (* next fresh event id *)
  incs : (int list * int list) array;
      (* per device: events of the previous block's exchanges into its
         (bottom, top) ghost zone — the block-start launches' waits *)
  mutable imports : (int * float) list;
      (* the events the last overlapped step signalled, with their
         virtual-time stamps, for the next step's waits *)
  mutable launch_ops : (kernel * launches * launches) list;
      (* cache: kernel in device form -> its unsplit and its split
         launches *)
  mutable unprepared : bool;  (* [launch_ops] built ops since the last [Multi.prepare] *)
  mutable periodic : (kernel list * bool * Vgpu.Multi.async_plan) option;
      (* the last step's (kernels as passed, split, ops) when the ops
         carry no event (one device): the next step of those kernels is
         the same value *)
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

(* Bind one device's buffers into its table, once: grids and branch
   state (rotated from then on by [Swap]s), the shard's boundary data
   with its byte grid of [nbrs], and the read-only coefficient tables
   shared across devices. *)
let bind_device bind (ss : Shard.shard_state) (sh : Shard.shard) tables =
  bind "prev" (Vgpu.Buffer.F ss.Shard.prev);
  bind "curr" (Vgpu.Buffer.F ss.Shard.curr);
  bind "next" (Vgpu.Buffer.F ss.Shard.next);
  bind "g1" (Vgpu.Buffer.F ss.Shard.g1);
  bind "v2" (Vgpu.Buffer.F ss.Shard.vel_prev);
  bind "v1" (Vgpu.Buffer.F ss.Shard.vel_next);
  bind "nbrs" (Vgpu.Buffer.U8 sh.Shard.nbrs);
  bind "bidx" (Vgpu.Buffer.I sh.Shard.bidx);
  bind "material" (Vgpu.Buffer.I sh.Shard.material);
  List.iter
    (fun name -> Option.iter (bind name) (table_buffer tables name))
    [ "beta"; "beta_fd"; "bi"; "d"; "f"; "di" ]

let create ?(engine = `Native) ?(optimize = true) ?unroll_budget ?(fi_beta = 0.1)
    ?(materials = Material.defaults) ?(n_branches = 3) ?(shards = 1) ?(schedule = `Concurrent)
    ?(precision = Double) ?(tblock = 1) ?verify ?(sanitize = false) params room =
  let tables = Material.tables ~n_branches materials in
  let state = State.create ~n_branches room in
  let plan = Shard.plan ~n_branches ~halo:tblock ~shards room in
  let devices = Shard.n_shards plan in
  let multi =
    Vgpu.Multi.create ~engine:(runtime_engine engine) ~optimize ?unroll_budget ~precision ?verify
      ~sanitize ~devices ()
  in
  (* one device binds [state]'s own arrays: nothing to scatter or gather *)
  let states =
    if devices = 1 then
      [|
        {
          Shard.prev = state.prev;
          curr = state.curr;
          next = state.next;
          g1 = state.g1;
          vel_prev = state.vel_prev;
          vel_next = state.vel_next;
        };
      |]
    else Shard.create_states plan
  in
  Array.iteri
    (fun i sh -> bind_device (Vgpu.Multi.bind multi i) states.(i) sh tables)
    plan.Shard.shards;
  let cells =
    Array.init devices (fun i ->
        let c = Vgpu.Runtime.cell (Vgpu.Multi.device multi i) in
        {
          c_prev = c "prev";
          c_curr = c "curr";
          c_next = c "next";
          c_g1 = c "g1";
          c_v2 = c "v2";
          c_v1 = c "v1";
        })
  in
  {
    params;
    state;
    tables;
    fi_beta;
    precision;
    multi;
    cells;
    plan;
    schedule;
    (* effective block depth: Shard.plan clamps the halo to the thinnest
       slab, so re-read it from the shards; one slab has no halo, and
       its block is one step *)
    tblock = max 1 plan.Shard.shards.(0).Shard.halo;
    bpos = 0;
    scattered = devices = 1;
    eid = ref 0;
    incs = Array.make devices ([], []);
    imports = [];
    launch_ops = [];
    unprepared = false;
    periodic = None;
    device_forms = [];
  }

(* The device form of a kernel: the same kernel with its [nbrs]
   parameter stored as bytes, which is how this driver binds [nbrs]
   (kernels without it are returned as they are).  A kernel that writes
   [nbrs] is refused: its writes would land in the byte grid the device
   binds, on one device the room's own. *)
let device_form (k : kernel) =
  if not (List.exists (fun p -> p.p_name = "nbrs") k.params) then k
  else if stores_to "nbrs" k.body then
    invalid_arg
      (Printf.sprintf "gpu_sim: kernel %s writes nbrs, which the device stores as bytes" k.name)
  else with_u8 "nbrs" k

(* Memoized by physical equality, so every step launches one value per
   kernel and the runtime's prepared launches keep hitting.  Bounded like
   them, so a caller passing fresh kernel values cannot grow it. *)
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
   thinnest slab; 1 on one device, which has no halo to amortise. *)
let tblock t = t.tblock

let n_shards t = Shard.n_shards t.plan

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
   planes plus the ghosts), the boundary count becomes the shard's
   range. *)
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
      | "nbrs" -> Vgpu.Buffer.U8 room.Geometry.nbrs_u8
      | "bidx" -> Vgpu.Buffer.I room.Geometry.boundary_indices
      | "material" -> Vgpu.Buffer.I room.Geometry.material
      | "g1" -> Vgpu.Buffer.F st.g1
      | "v2" -> Vgpu.Buffer.F st.vel_prev
      | "v1" -> Vgpu.Buffer.F st.vel_next
      | _ -> failwith (Printf.sprintf "gpu_sim: unknown buffer %s" name))

(* Launch arguments: buffers by parameter name (the device's table
   binds them), scalars resolved. *)
let launch_args ~int_scalar ~real_scalar (k : kernel) =
  List.map
    (fun p ->
      match (p.p_kind, p.p_ty) with
      | Global_buf, _ -> Vgpu.Runtime.A_buf p.p_name
      | Scalar_param, Int -> Vgpu.Runtime.A_int (int_scalar p.p_name)
      | Scalar_param, Real -> Vgpu.Runtime.A_real (real_scalar p.p_name))
    k.params

(* Resolve the kernel's symbolic global size against a scalar
   environment. *)
let global_size ~int_scalar (k : kernel) =
  List.map
    (fun e ->
      match eval_int (fun v -> Some (int_scalar v)) e with
      | Some n -> n
      | None -> failwith "gpu_sim: unsupported global size expression")
    k.global_size

(* A launch of [k] on shard [sh]: buffers by name (its device binds
   them), scalars per shard; [goff] and [global] set a ranged launch's
   element range, and [spans] the work items in it that it visits. *)
let shard_launch t (sh : Shard.shard) ?(goff = 0) ?global ?spans (k : kernel) =
  let int_scalar name = if name = "goff" then goff else scalar_int_shard t sh name in
  let args = launch_args ~int_scalar ~real_scalar:(scalar_real t) k in
  let global = match global with Some g -> g | None -> global_size ~int_scalar k in
  Vgpu.Multi.Dev (sh.Shard.index, Vgpu.Runtime.Launch { kernel = k; args; global; spans })

(* -- The step plan ------------------------------------------------------ *)

(* A kernel is ranged when it sweeps the local grid flat ([Var "N"]) and
   takes [nbrs], the convention [device_form] keys on: the volume
   kernels, which update only points with [nbrs] > 0.  Their launches
   then cover only the planes that can hold a room point: every unsplit
   launch sweeps {!Shard.live_planes}, and a block start of the
   overlapped schedule splits into interior/frontier ranges.  Within
   its range, each launch visits only the room's row intervals
   ({!Shard.launch_spans}).  The boundary kernels ([Var "nB"]) touch
   boundary points only, so plain FIFO order behind the volume launches
   already orders them correctly. *)
let splittable (k : kernel) =
  k.global_size = [ Var "N" ] && List.exists (fun p -> p.p_name = "nbrs") k.params

(* Does a launch of [k] write ghost planes at T = 1?  A ranged kernel
   sweeps live planes only, and a boundary kernel the shard's boundary
   points, which at T = 1 all lie in owned planes; any other kernel
   launches over its full NDRange, ghost planes included. *)
let sweeps_slab (k : kernel) = not (splittable k) && k.global_size <> [ Var "nB" ]

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

(* The buffer rotation after a step, as every device runs it: prev <-
   curr <- next, and the branch velocities advance (v2 <- v1). *)
let rotation = Vgpu.Runtime.[ Swap ("prev", "curr"); Swap ("curr", "next"); Swap ("v2", "v1") ]

(* The launch ops of [k] (in device form) per device: [split] selects
   the overlapped schedule's block-start launches.  A ranged kernel runs
   in one offset form ({!Kernel_ast.Cast.offset_global_id}): unsplit
   over the shard's live planes (a zero-count launch where there are
   none), split into its interior and frontier ranges, each launch
   visiting only the shard's spans in its range (a frontier with none
   stays a zero-span launch, so every device keeps its ops and
   signals).  Any other kernel is one full-range launch either way.
   Every step launches the same values, so each kernel's are built once
   (bounded like the device-form memo). *)
let launch_ops t k ~split =
  let _, whole, parts =
    match List.find_opt (fun (k', _, _) -> k' == k) t.launch_ops with
    | Some e -> e
    | None ->
        let shards = t.plan.Shard.shards in
        let e =
          if not (splittable k) then
            let whole = Array.map (fun sh -> [ (None, shard_launch t sh k) ]) shards in
            (k, whole, whole)
          else
            let rk = offset_global_id k in
            let ranged sh kind goff count =
              let spans = Shard.launch_spans sh ~goff ~count in
              (kind, shard_launch t sh ~goff ~global:[ count ] ~spans rk)
            in
            let live (sh : Shard.shard) =
              let first, n = Shard.live_planes t.plan sh in
              [ ranged sh None (first * sh.Shard.plane) (n * sh.Shard.plane) ]
            in
            let split sh =
              List.map (fun (kind, goff, count) -> ranged sh (Some kind) goff count)
                (Shard.split_ranges sh)
            in
            (k, Array.map live shards, Array.map split shards)
        in
        t.launch_ops <- e :: List.filteri (fun i _ -> i < max_device_forms - 1) t.launch_ops;
        t.unprepared <- true;
        e
  in
  if split then parts else whole

(* The ops of one time step at block position [bpos] (0..T-1): the only
   place a step is encoded.  Every schedule executes these values and
   {!plan} returns them for analysis.

   Per device, in queue order, the step's launches: a volume kernel
   over its shard's live planes, visiting their spans.  With [split]
   (the overlapped schedule)
   on several devices, at a block start each splittable kernel becomes
   an interior range first (no waits — it starts immediately), then the
   halo-deep frontier ranges, each waiting on the events of the previous
   block's exchanges into the ghost zone its stencil reads.  One device
   never splits: its slab has no ghost zone, and a halo-0 split would
   add empty frontier launches.  Any other launch at a block start waits
   on both sides' events when it reads the exchanged [curr] ghosts (an
   unsplit volume kernel) or, at T ≥ 2, exchanged branch state; later
   launches follow by FIFO.  Mid-block launches wait on nothing: they
   touch no freshly exchanged data.

   At a block end (bpos = T-1) the block's halo exchanges follow, each
   on its source device's queue — FIFO puts it after the source's
   writes — and each signalling a fresh event that the next block start
   waits on ([incs], updated in place).  When an in-block launch writes
   the ghost planes the exchanges fill (any launch at T ≥ 2, which
   recomputes the inner ghost planes), each exchange also waits on its
   destination's last launch, which then signals.  At T = 1 the volume
   and boundary launches write no ghost plane, so the exchanges wait on
   nothing (only a kernel launched over its full NDRange, which is
   neither, would bring the wait back).

   Last, the rotation: per-device [Swap]s of prev/curr/next and v2/v1.
   A step's launches always precede its exchanges and swaps.  [eid]
   supplies fresh event ids, so ids never repeat across steps. *)
let step_ops t ~split ~eid ~incs ~bpos kernels : Vgpu.Multi.async_plan =
  let fresh () =
    let e = !eid in
    incr eid;
    e
  in
  let ops = ref [] in
  let push ?(waits = []) ?signal a_op =
    ops := { Vgpu.Multi.a_op; a_waits = waits; a_signal = signal } :: !ops
  in
  let n = Shard.n_shards t.plan in
  let split = split && n > 1 in
  let tb = t.tblock in
  let block_start = bpos = 0 in
  let block_end = bpos = tb - 1 in
  let reads_curr (k : kernel) = List.exists (fun p -> p.p_name = "curr") k.params in
  let ghost_writes = block_end && n > 1 && List.exists (fun k -> tb > 1 || sweeps_slab k) kernels in
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
          (launch_ops t k ~split:(split && block_start)).(i))
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
            let dsh = t.plan.Shard.shards.(j) and lo, hi = next_incs.(j) in
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
      (block_exchange_plan t.plan ~tblock:tb ~has_state:(uses_branch_state kernels));
  Array.blit next_incs 0 incs 0 n;
  for i = 0 to n - 1 do
    List.iter (fun op -> push (Vgpu.Multi.Dev (i, op))) rotation
  done;
  List.rev !ops

let is_launch (o : Vgpu.Multi.async_op) =
  match o.Vgpu.Multi.a_op with Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch _) -> true | _ -> false

let no_event (o : Vgpu.Multi.async_op) = o.Vgpu.Multi.a_waits = [] && o.Vgpu.Multi.a_signal = None

(* The next [steps] steps' ops of kernels in device form, built from
   copies of the simulation's event state so nothing advances. *)
let device_plan t (kernels : kernel list) ~steps : Vgpu.Multi.async_plan =
  let eid = ref !(t.eid) and incs = Array.copy t.incs in
  let acc = ref [] in
  for k = 0 to steps - 1 do
    let bpos = (t.bpos + k) mod t.tblock in
    acc := List.rev_append (step_ops t ~split:(t.schedule = `Overlap) ~eid ~incs ~bpos kernels) !acc
  done;
  List.rev !acc

let plan t kernels ~steps = device_plan t (device_kernels t kernels) ~steps

(* The array a state cell holds right now: the [Swap]s rotate the
   bindings, so this is where the live arrays are. *)
let bound cell =
  match !cell with
  | Vgpu.Buffer.F a -> a
  | _ -> invalid_arg "gpu_sim: a device's state buffer is not real"

let bound_states t =
  Array.map
    (fun c ->
      {
        Shard.prev = bound c.c_prev;
        curr = bound c.c_curr;
        next = bound c.c_next;
        g1 = bound c.c_g1;
        vel_prev = bound c.c_v2;
        vel_next = bound c.c_v1;
      })
    t.cells

(* Distribute the global state to the shards on first use, so impulses
   added through [State.add_impulse] before the first step are seen. *)
let ensure_scattered t =
  if not t.scattered then begin
    Shard.scatter t.plan t.state (bound_states t);
    t.scattered <- true
  end

(* One device binds [state]'s own arrays, and the plan's [Swap]s rotate
   the bindings: point [state]'s fields at the arrays bound now.
   Allocates nothing. *)
let point_state t =
  let c = t.cells.(0) and st = t.state in
  st.prev <- bound c.c_prev;
  st.curr <- bound c.c_curr;
  st.next <- bound c.c_next;
  st.vel_prev <- bound c.c_v2;
  st.vel_next <- bound c.c_v1

(* Copy the slabs back into the global [state] arrays (before the first
   step, [state] still holds the only copy); on one device, whose
   arrays [state] names, only re-point [state]'s fields. *)
let sync t =
  if n_shards t = 1 then point_state t
  else if t.scattered then Shard.gather t.plan (bound_states t) t.state

(* Launch one kernel on every device, in order, without stepping. *)
let launch t (k : kernel) =
  let ops = launch_ops t (device_kernel t k) ~split:false in
  ensure_scattered t;
  Array.iter (List.iter (fun (_, op) -> Vgpu.Multi.run_op t.multi op)) ops

(* Prepare a step's launches when its ops [ops] hold launch ops not
   prepared yet: one batch build across the devices before the first
   launch.  The rest of the temporal block comes along, since only a
   block's first step splits its launches (the overlapped schedule), so
   a cold block builds in one batch too.  [kernels] are in device
   form. *)
let prepare_step t kernels (ops : Vgpu.Multi.async_plan) =
  if t.unprepared then begin
    let rest = if t.bpos = 0 then [] else device_plan t kernels ~steps:(t.tblock - t.bpos) in
    Vgpu.Multi.prepare t.multi
      (List.map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_op) (ops @ rest));
    t.unprepared <- false
  end

(* The ops of the simulation's next step of [kernels] (as passed),
   prepared, advancing its block position and event state.  Device forms
   are resolved here, on the calling domain, before any shard runs.  A
   step whose ops carry no event at T = 1 (one device: there is no
   exchange) leaves that state as it found it, so the next step of the
   same kernels is the same value: it is built once and re-run. *)
let next_step_ops t ~split kernels =
  match t.periodic with
  | Some (ks, sp, ops) when sp = split && List.equal ( == ) ks kernels -> ops
  | _ ->
      let dks = device_kernels t kernels in
      let ops = step_ops t ~split ~eid:t.eid ~incs:t.incs ~bpos:t.bpos dks in
      t.bpos <- (t.bpos + 1) mod t.tblock;
      prepare_step t dks ops;
      t.periodic <-
        (if t.tblock = 1 && List.for_all no_event ops then Some (kernels, split, ops) else None);
      ops

(* One overlapped time step: the step's plan, run by [Multi.run_async]
   in the interleaving [pick] chooses (first ready by default).  The
   block-start launches wait on the events in [incs], each stamped as
   the executor recorded it, or 0 when the step that signalled it ran
   under another schedule — that step completed, so its events count as
   fired. *)
let step_overlap_with ?pick t (kernels : kernel list) =
  ensure_scattered t;
  let stamp id = (id, Option.value (List.assoc_opt id t.imports) ~default:0.) in
  let imports = Array.fold_left (fun acc (lo, hi) -> List.map stamp (lo @ hi) @ acc) [] t.incs in
  let ops = next_step_ops t ~split:true kernels in
  t.imports <- Vgpu.Multi.run_async ~imports ?pick t.multi ops;
  if n_shards t = 1 then point_state t

let rec run_ops multi = function
  | [] -> ()
  | (o : Vgpu.Multi.async_op) :: rest ->
      Vgpu.Multi.run_op multi o.Vgpu.Multi.a_op;
      run_ops multi rest

(* One time step: build the step's plan and execute it under the
   configured schedule.  A step with launches not seen before prepares
   them all first (optimized, verified, and built in one batch); a
   steady step skips that.  On one device [state] then names the arrays
   bound. *)
let step t (kernels : kernel list) =
  match t.schedule with
  | `Overlap -> step_overlap_with t kernels
  | (`Seq | `Concurrent) as schedule ->
      ensure_scattered t;
      let ops = next_step_ops t ~split:false kernels in
      let n = n_shards t in
      (match schedule with
      | `Concurrent when n > 1 ->
          (* the step's launches precede its exchanges and swaps: run each
             device's through the pool, then the rest on this domain *)
          let launches, rest = List.partition is_launch ops in
          let run_device i =
            List.iter
              (fun (o : Vgpu.Multi.async_op) ->
                match o.Vgpu.Multi.a_op with
                | Vgpu.Multi.Dev (d, _) when d = i -> Vgpu.Multi.run_op t.multi o.Vgpu.Multi.a_op
                | _ -> ())
              launches
          in
          Vgpu.Pool.run Vgpu.Pool.global ~n run_device;
          run_ops t.multi rest
      | _ -> run_ops t.multi ops);
      if n = 1 then point_state t

(* The slab geometry, for the flow verifier. *)
let slab_geometry t =
  let d = t.state.room.Geometry.dims in
  ( d.Geometry.nx,
    d.Geometry.ny,
    Array.map (fun (sh : Shard.shard) -> sh.Shard.planes) t.plan.Shard.shards )

(* Read the current field at a grid point, wherever it lives.  A slab's
   local index is the (range-checked) global one less the slab's base. *)
let read t ~x ~y ~z =
  if t.scattered then
    let idx = State.idx_of t.state ~x ~y ~z in
    let sh = Shard.owner t.plan ~z in
    (bound t.cells.(sh.Shard.index).c_curr).(idx - sh.Shard.base)
  else State.read t.state ~x ~y ~z

let stats t = Vgpu.Multi.stats t.multi

(* The live sanitizers, one per device (empty unless ~sanitize:true). *)
let sanitizers t =
  Array.to_list t.multi.Vgpu.Multi.devices |> List.filter_map Vgpu.Runtime.sanitizer

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

let per_shard_stats t = Vgpu.Multi.per_device_stats t.multi
let pp_stats ppf t = Vgpu.Multi.pp_stats ppf t.multi

(* Zero the launch/transfer counters and align the devices' virtual
   clocks, so a measurement interval starts clean. *)
let reset_stats t = Vgpu.Multi.reset_stats t.multi

let schedule t = t.schedule

(* Aggregate virtual-time statistics (busy vs critical path vs overlap
   saved). *)
let overlap_stats t = Vgpu.Multi.overlap_stats t.multi

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
  let exs = block_exchange_plan t.plan ~tblock:t.tblock ~has_state:(uses_branch_state kernels) in
  let elem = match t.precision with Double -> 8 | Single -> 4 in
  let bytes =
    List.fold_left
      (fun acc op ->
        match op with Vgpu.Multi.Exchange { elems; _ } -> acc + (elems * elem) | _ -> acc)
      0 exs
  in
  let redundant = ref 0 in
  Array.iter
    (fun (sh : Shard.shard) ->
      let h = sh.Shard.halo in
      let count_plane p =
        for q = p * sh.Shard.plane to ((p + 1) * sh.Shard.plane) - 1 do
          if Bytes.get sh.Shard.nbrs q <> '\000' then incr redundant
        done
      in
      for p = 1 to h - 1 do
        count_plane p
      done;
      for p = sh.Shard.planes - h to sh.Shard.planes - 2 do
        if p > h - 1 then count_plane p
      done)
    t.plan.Shard.shards;
  let tb = float_of_int t.tblock in
  {
    bs_tblock = t.tblock;
    bs_exchanges_per_step = float_of_int (List.length exs) /. tb;
    bs_halo_bytes_per_step = float_of_int bytes /. tb;
    bs_redundant_points = !redundant;
  }

(* The volume sweep of a step of [kernels]: the work items its ranged
   launches visit (their spans) and those of their hulls (their
   NDRanges), over every device, averaged over one temporal block, whose
   first step is split under the overlapped schedule. *)
let volume_sweep t kernels =
  let visited = ref 0 and hull = ref 0 in
  List.iter
    (fun (o : Vgpu.Multi.async_op) ->
      match o.Vgpu.Multi.a_op with
      | Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch { global = [ n ]; spans = Some s; _ }) ->
          visited := !visited + Vgpu.Spans.items s;
          hull := !hull + n
      | _ -> ())
    (plan t kernels ~steps:t.tblock);
  let per_step n = float_of_int n /. float_of_int t.tblock in
  (per_step !visited, per_step !hull)

(* Run [steps] steps recording the field at the receiver after each. *)
let run t (kernels : kernel list) ~steps ~receiver:(rx, ry, rz) =
  let out = Array.make steps 0. in
  for n = 0 to steps - 1 do
    step t kernels;
    out.(n) <- read t ~x:rx ~y:ry ~z:rz
  done;
  out
