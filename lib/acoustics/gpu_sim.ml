(* Drive a room-acoustics simulation through the virtual GPU.

   Kernel arguments are resolved *by parameter name* against the live
   simulation state, so the same driver runs the hand-written kernels and
   the Lift-generated kernels (both follow the paper's naming convention:
   prev/curr/next grids, bidx/nbrs/material boundary data, beta/bi/d/f/di
   coefficient tables, g1/v1/v2 branch state).

   Launches go through a [Vgpu.Runtime] so the engine choice (reference
   interpreter, sequential JIT, domain-parallel JIT), the JIT cache and
   the per-kernel launch statistics are shared with host-program plans.

   The per-step kernel sequence is the paper's two-kernel structure:
   volume handling first, boundary handling second, then buffer rotation
   on the host.

   Two backends:

   - [Single]: one virtual device holding the global arrays — the
     original driver.
   - [Sharded] ([create ~shards:n]): the grid is cut into Z slabs
     ({!Shard.plan}), each slab running on its own device of a
     {!Vgpu.Multi}.  Scalars re-resolve per shard (N, Nz, nB become the
     local extents) and the grid/boundary buffers come from the
     shard-local state; after the kernels of a step, adjacent shards
     exchange the freshly written ghost planes of [next], then each
     shard rotates locally.  Shards step concurrently through
     {!Vgpu.Pool} — except under the [`Jit_parallel] engine, which
     already occupies the pool inside each launch (its launch cycle is
     exclusive, so nesting would deadlock).  The results are bit-for-bit
     identical to the single-device run; [sync] gathers the slabs back
     into [state].

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
  | `Jit  (** sequential JIT *)
  | `Jit_parallel of int  (** JIT over this many OCaml domains *)
  | `Native  (** compiled-C backend, loaded via [dlopen] *) ]

(* How a sharded step is scheduled:
   - [`Seq]: devices run strictly one after another on the host thread;
   - [`Concurrent]: devices step through the domain pool (wall-clock
     parallel), still with a per-step barrier at the halo exchange;
   - [`Overlap]: per-device {!Vgpu.Queue} command queues with event
     dependencies — the volume kernel splits into interior + frontier
     launches so halo exchanges overlap interior compute, and steps
     pipeline (no per-step barrier; draining happens on [sync]/[read]/
     stats access).  All three are bit-for-bit identical. *)
type schedule = [ `Seq | `Concurrent | `Overlap ]

type backend =
  | Single of Vgpu.Runtime.t
  | Sharded of {
      multi : Vgpu.Multi.t;
      plan : Shard.plan;
      sstates : Shard.shard_state array;
      schedule : schedule;
      tblock : int;  (* temporal block depth T = the shards' halo *)
      mutable bpos : int;  (* position within the current block, 0..T-1 *)
      mutable scattered : bool;  (* state has been distributed to the shards *)
      mutable ov_eid : int;  (* next fresh overlap event id *)
      mutable ov_inc : (int list * int list) array;
          (* per device: events of the previous block's exchanges into its
             (bottom, top) ghost zone — the block-start launches' waits *)
      mutable ov_imports : (int * Vgpu.Queue.event) list;
          (* events exported by the last submit, imported by the next *)
      mutable ov_fired : int list;  (* fired ids for deterministic replay *)
      mutable ranged :
        (Kernel_ast.Cast.kernel * Kernel_ast.Cast.kernel) list;
          (* cache: volume kernel -> its goff ranged-launch variant *)
      snbrs : Vgpu.Buffer.t array;  (* per shard: byte copy of its nbrs *)
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
  | `Jit -> Vgpu.Runtime.Jit
  | `Jit_parallel domains -> Vgpu.Runtime.Jit_parallel { domains }
  | `Native -> Vgpu.Runtime.Native

let create ?(engine = `Jit) ?(optimize = true) ?unroll_budget ?(fi_beta = 0.1)
    ?(materials = Material.defaults) ?(n_branches = 3) ?shards ?schedule ?(precision = Double)
    ?(tblock = 1) ?verify ?(sanitize = false) params room =
  let re = runtime_engine engine in
  let backend =
    match shards with
    | None ->
        Single
          (Vgpu.Runtime.create ~engine:re ~optimize ?unroll_budget ~precision
             ?verify ~sanitize ())
    | Some n ->
        let plan = Shard.plan ~n_branches ~halo:tblock ~shards:n room in
        let devices = Shard.n_shards plan in
        let schedule =
          match schedule with
          | Some `Overlap when sanitize ->
              (* checked execution needs deterministic scheduling
                 (Multi.submit_async refuses sanitizers); fall back to
                 the sequential schedule, which sanitizes fine *)
              `Seq
          | Some s -> s
          | None -> (
              (* legacy default: concurrent, except under [`Jit_parallel]
                 whose launches already occupy the pool exclusively *)
              match engine with `Jit_parallel _ -> `Seq | _ -> `Concurrent)
        in
        Sharded
          {
            multi =
              Vgpu.Multi.create ~engine:re ~optimize ?unroll_budget ~precision
                ?verify ~sanitize ~devices ();
            plan;
            sstates = Shard.create_states plan;
            schedule;
            (* effective block depth: Shard.plan clamps the halo to the
               thinnest slab, so re-read it from the shards *)
            tblock = plan.Shard.shards.(0).Shard.halo;
            bpos = 0;
            scattered = false;
            ov_eid = 0;
            ov_inc = Array.make devices ([], []);
            ov_imports = [];
            ov_fired = [];
            ranged = [];
            snbrs =
              Array.map (fun (sh : Shard.shard) -> Vgpu.Buffer.u8_of_int_array sh.Shard.nbrs)
                plan.Shard.shards;
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
    tables = Material.tables ~n_branches materials;
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

let table_buffer t name : Vgpu.Buffer.t option =
  match name with
  | "beta" -> Some (Vgpu.Buffer.F t.tables.Material.t_beta)
  | "beta_fd" -> Some (Vgpu.Buffer.F t.tables.Material.t_beta_fd)
  | "bi" -> Some (Vgpu.Buffer.F t.tables.Material.t_bi)
  | "d" -> Some (Vgpu.Buffer.F t.tables.Material.t_d)
  | "f" -> Some (Vgpu.Buffer.F t.tables.Material.t_f)
  | "di" -> Some (Vgpu.Buffer.F t.tables.Material.t_di)
  | _ -> None

let buffer t name : Vgpu.Buffer.t =
  let st = t.state in
  let room = st.room in
  match table_buffer t name with
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

(* Shard-local buffer resolution: grids and branch state come from the
   shard's state, boundary data from the shard plan; the coefficient
   tables are read-only and shared across devices. *)
let buffer_shard t (sh : Shard.shard) (ss : Shard.shard_state) name : Vgpu.Buffer.t =
  match table_buffer t name with
  | Some b -> b
  | None -> (
      match name with
      | "prev" -> Vgpu.Buffer.F ss.Shard.prev
      | "curr" -> Vgpu.Buffer.F ss.Shard.curr
      | "next" -> Vgpu.Buffer.F ss.Shard.next
      | "nbrs" -> (
          match t.backend with
          | Sharded s -> s.snbrs.(sh.Shard.index)
          | Single _ -> invalid_arg "gpu_sim: buffer_shard on a single-device backend")
      | "bidx" -> Vgpu.Buffer.I sh.Shard.bidx
      | "material" -> Vgpu.Buffer.I sh.Shard.material
      | "g1" -> Vgpu.Buffer.F ss.Shard.g1
      | "v2" -> Vgpu.Buffer.F ss.Shard.vel_prev
      | "v1" -> Vgpu.Buffer.F ss.Shard.vel_next
      | _ -> failwith (Printf.sprintf "gpu_sim: unknown buffer %s" name))

(* Bind buffer params into a runtime (the state arrays rotate between
   steps, so bindings refresh on every launch) and resolve scalars. *)
let args_into rt ~int_scalar ~real_scalar ~buf (k : kernel) =
  List.map
    (fun p ->
      match (p.p_kind, p.p_ty) with
      | Global_buf, _ ->
          Vgpu.Runtime.bind rt p.p_name (buf p.p_name);
          Vgpu.Runtime.A_buf p.p_name
      | Scalar_param, Int -> Vgpu.Runtime.A_int (int_scalar p.p_name)
      | Scalar_param, Real -> Vgpu.Runtime.A_real (real_scalar p.p_name))
    k.params

(* Resolve the kernel's symbolic global size against a scalar
   environment.  Tiled kernels round their NDRange up to the work-group
   size with [((Nx + tw - 1) / tw) * tw]-shaped expressions, so the
   evaluator handles constant integer arithmetic, not just bare names. *)
let global_size ~int_scalar (k : kernel) =
  let rec ev e =
    match e with
    | Int_lit n -> n
    | Var name -> int_scalar name
    | Binop (op, a, b) -> (
        let a = ev a and b = ev b in
        match op with
        | Add -> a + b
        | Sub -> a - b
        | Mul -> a * b
        | Div -> a / b
        | Mod -> a mod b
        | _ -> failwith "gpu_sim: unsupported global size expression")
    | _ -> failwith "gpu_sim: unsupported global size expression"
  in
  List.map ev k.global_size

let launch_on rt ~int_scalar ~real_scalar ~buf (k : kernel) =
  let args = args_into rt ~int_scalar ~real_scalar ~buf k in
  let global = global_size ~int_scalar k in
  Vgpu.Runtime.run_op rt (Vgpu.Runtime.Launch { kernel = k; args; global })

let launch_shard t s i (k : kernel) =
  match s with
  | Single _ -> invalid_arg "gpu_sim: launch_shard on a single-device backend"
  | Sharded { multi; plan; sstates; _ } ->
      let sh = plan.Shard.shards.(i) and ss = sstates.(i) in
      launch_on
        (Vgpu.Multi.device multi i)
        ~int_scalar:(scalar_int_shard t sh) ~real_scalar:(scalar_real t)
        ~buf:(buffer_shard t sh ss) k

(* -- Overlapped scheduling ------------------------------------------ *)

(* A kernel is splittable into interior/frontier ranges when it sweeps
   the full local grid: the volume kernels launch over [Var "N"].  The
   boundary kernels ([Var "nB"]) touch owned points only, so plain FIFO
   order behind the volume launches already orders them correctly. *)
let splittable (k : kernel) =
  match k.global_size with [ Var "N" ] -> true | _ -> false

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

(* Drain this simulation's device queues (no-op when none were used);
   every host-side observation of sharded state goes through here. *)
let drain t =
  match t.backend with
  | Single _ -> ()
  | Sharded s -> Vgpu.Multi.finish_async s.multi

(* Build the async ops of one overlapped time step at block position
   [bpos] (0..T-1).

   Block start (bpos = 0) — per device, in queue order: the interior
   range of each splittable kernel first (no waits — it starts
   immediately), then the halo-deep frontier ranges, each waiting on the
   events of the previous block's exchanges into the ghost zone its
   stencil reads, then the unsplit boundary kernels (FIFO order after
   the volume parts is exactly the sequential kernel order; at T ≥ 2
   they carry both sides' waits themselves, since they read exchanged
   ghost branch state).  Mid-block steps (0 < bpos < T-1) launch
   full-range with no waits: per-queue FIFO already orders them after
   the same device's previous step, and they touch no freshly exchanged
   data.  At a block end (bpos = T-1) the block's halo exchanges run on
   their source device's queue — FIFO puts them after the source's
   writes — each waiting on the *destination* device's last in-block
   launch when T ≥ 2 (those launches redundantly write the very ghost
   planes the exchange overwrites), and each signalling a fresh event
   that becomes a block-start wait of the next block.  [eid] supplies fresh event ids;
   [incs] carries each device's (bottom, top) incoming-exchange events
   across steps and is updated in place.  Buffer params are (re)bound as
   a side effect, as in the sequential path. *)
let overlap_step_ops t ~(eid : int ref) ~(incs : (int list * int list) array)
    ~(bpos : int) kernels : Vgpu.Multi.async_plan =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: overlap_step_ops on a single-device backend"
  | Sharded s ->
      let fresh () =
        let e = !eid in
        incr eid;
        e
      in
      let ranged k =
        match List.find_opt (fun (src, _) -> src == k) s.ranged with
        | Some (_, r) -> r
        | None ->
            let r = Kernel_ast.Cast.offset_global_id k in
            s.ranged <- (k, r) :: s.ranged;
            r
      in
      let n = Shard.n_shards s.plan in
      let tb = s.tblock in
      let block_start = bpos = 0 in
      let block_end = bpos = tb - 1 in
      let ops = ref [] in
      let push op = ops := op :: !ops in
      (* at a deep block end, the last launch of each device signals so
         the incoming exchanges can anti-depend on its ghost writes *)
      let last_sig = Array.make n None in
      for i = 0 to n - 1 do
        let sh = s.plan.Shard.shards.(i) and ss = s.sstates.(i) in
        let rt = Vgpu.Multi.device s.multi i in
        let dev_ops = ref [] in
        let pushd op = dev_ops := op :: !dev_ops in
        List.iter
          (fun k ->
            if block_start && splittable k then begin
              let rk = ranged k in
              List.iter
                (fun (kind, off, count) ->
                  let int_scalar name =
                    if name = "goff" then off else scalar_int_shard t sh name
                  in
                  let args =
                    args_into rt ~int_scalar ~real_scalar:(scalar_real t)
                      ~buf:(buffer_shard t sh ss) rk
                  in
                  let waits =
                    match kind with
                    | Shard.Interior -> []
                    | Shard.Frontier_lo -> fst incs.(i)
                    | Shard.Frontier_hi -> snd incs.(i)
                    | Shard.Frontier_both -> fst incs.(i) @ snd incs.(i)
                  in
                  pushd
                    {
                      Vgpu.Multi.a_op =
                        Vgpu.Multi.Dev
                          (i, Vgpu.Runtime.Launch { kernel = rk; args; global = [ count ] });
                      a_waits = waits;
                      a_signal = None;
                    })
                (Shard.split_ranges sh)
            end
            else begin
              let int_scalar = scalar_int_shard t sh in
              let args =
                args_into rt ~int_scalar ~real_scalar:(scalar_real t)
                  ~buf:(buffer_shard t sh ss) k
              in
              let global = global_size ~int_scalar k in
              (* At a block start, a non-splittable volume kernel (the
                 2.5D-tiled stencil) reads the [curr] ghost planes without
                 a frontier launch before it on this queue, so it carries
                 the incoming-exchange waits itself; at T ≥ 2 the
                 boundary kernels read exchanged ghost branch state and
                 carry them too.  Mid-block launches wait on nothing —
                 FIFO order suffices. *)
              let waits =
                if
                  block_start
                  && (tb > 1 || List.exists (fun p -> p.p_name = "curr") k.params)
                then fst incs.(i) @ snd incs.(i)
                else []
              in
              pushd
                {
                  Vgpu.Multi.a_op =
                    Vgpu.Multi.Dev (i, Vgpu.Runtime.Launch { kernel = k; args; global });
                  a_waits = waits;
                  a_signal = None;
                }
            end)
          kernels;
        let dl =
          if block_end && tb > 1 && n > 1 then
            match !dev_ops with
            | last :: rest_rev ->
                let e = fresh () in
                last_sig.(i) <- Some e;
                List.rev ({ last with Vgpu.Multi.a_signal = Some e } :: rest_rev)
            | [] -> []
          else List.rev !dev_ops
        in
        List.iter push dl
      done;
      let next_incs = Array.make n ([], []) in
      if block_end then
        List.iter
          (fun op ->
            match op with
            | Vgpu.Multi.Exchange { dst_dev = j; dst; dst_off; _ } ->
                let ev = fresh () in
                push
                  {
                    Vgpu.Multi.a_op = op;
                    a_waits = Option.to_list last_sig.(j);
                    a_signal = Some ev;
                  };
                let dsh = s.plan.Shard.shards.(j) in
                let lo, hi = next_incs.(j) in
                (* grid-buffer exchanges land on one side of the slab;
                   branch-state slices order both sides conservatively *)
                let side =
                  match dst with
                  | "next" | "curr" | "prev" ->
                      if dst_off < dsh.Shard.halo * dsh.Shard.plane then `Lo else `Hi
                  | _ -> `Both
                in
                next_incs.(j) <-
                  (match side with
                  | `Lo -> (lo @ [ ev ], hi)
                  | `Hi -> (lo, hi @ [ ev ])
                  | `Both -> (lo @ [ ev ], hi @ [ ev ]))
            | _ -> ())
          (block_exchange_plan s.plan ~tblock:tb ~has_state:(uses_branch_state kernels));
      Array.blit next_incs 0 incs 0 n;
      List.rev !ops

let count_launches (ops : Vgpu.Multi.async_plan) =
  List.length
    (List.filter
       (fun (o : Vgpu.Multi.async_op) ->
         match o.Vgpu.Multi.a_op with
         | Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch _) -> true
         | _ -> false)
       ops)

(* Distribute the global state to the shards on first use, so impulses
   added through [State.add_impulse] before the first step are seen. *)
let ensure_scattered t =
  match t.backend with
  | Single _ -> ()
  | Sharded s ->
      if not s.scattered then begin
        Shard.scatter s.plan t.state s.sstates;
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
  | Sharded _ ->
      drain t;
      ensure_scattered t;
      let n = n_shards t in
      for i = 0 to n - 1 do
        launch_shard t t.backend i k
      done;
      t.launches <- t.launches + n

(* One time step: run each kernel in order, then rotate the buffers.
   Sharded: kernels per shard ([`Concurrent]: through the domain pool;
   [`Overlap]: submitted to the per-device command queues without a
   per-step barrier, steps pipelining through the event graph); at a
   block boundary (every step at T = 1), halo-exchange the deep ghost
   zones; rotate each shard every step. *)
let step t (kernels : kernel list) =
  match t.backend with
  | Single _ ->
      List.iter (launch t) kernels;
      State.rotate t.state
  | Sharded s ->
      (* device forms are resolved here, on the calling domain, before
         any shard runs *)
      let kernels = device_kernels t kernels in
      ensure_scattered t;
      let n = Shard.n_shards s.plan in
      let block_end = s.bpos = s.tblock - 1 in
      (match s.schedule with
      | `Overlap ->
          let eid = ref s.ov_eid in
          let ops = overlap_step_ops t ~eid ~incs:s.ov_inc ~bpos:s.bpos kernels in
          s.ov_eid <- !eid;
          (* only the latest exchange events are ever waited on, so the
             fresh exports replace the previous step's imports *)
          s.ov_imports <- Vgpu.Multi.submit_async ~imports:s.ov_imports s.multi ops;
          t.launches <- t.launches + count_launches ops
      | (`Seq | `Concurrent) as sched ->
          let run_shard i = List.iter (launch_shard t t.backend i) kernels in
          if sched = `Concurrent && n > 1 then Vgpu.Pool.run Vgpu.Pool.global ~n run_shard
          else
            for i = 0 to n - 1 do
              run_shard i
            done;
          t.launches <- t.launches + (n * List.length kernels);
          if block_end then begin
            Array.iteri
              (fun i (ss : Shard.shard_state) ->
                Vgpu.Multi.bind s.multi i "next" (Vgpu.Buffer.F ss.Shard.next);
                Vgpu.Multi.bind s.multi i "curr" (Vgpu.Buffer.F ss.Shard.curr);
                Vgpu.Multi.bind s.multi i "g1" (Vgpu.Buffer.F ss.Shard.g1);
                Vgpu.Multi.bind s.multi i "v1" (Vgpu.Buffer.F ss.Shard.vel_next))
              s.sstates;
            Vgpu.Multi.run s.multi
              (block_exchange_plan s.plan ~tblock:s.tblock
                 ~has_state:(uses_branch_state kernels))
          end);
      (* host-side rotation is safe while commands are still queued:
         every queued op resolved its buffers at submission *)
      Array.iter Shard.rotate_state s.sstates;
      s.bpos <- (s.bpos + 1) mod s.tblock

(* One overlapped time step replayed deterministically on the calling
   domain: the same event graph as [`Overlap], executed in the legal
   queue interleaving chosen by [pick] (see
   {!Vgpu.Multi.run_async_with}).  Works with sanitizers; independent of
   the simulation's configured schedule (do not mix with [`Overlap]
   steps on the same simulation). *)
let step_overlap_with ?pick t (kernels : kernel list) =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: step_overlap_with needs a sharded backend"
  | Sharded s ->
      let kernels = device_kernels t kernels in
      ensure_scattered t;
      let eid = ref s.ov_eid in
      let ops = overlap_step_ops t ~eid ~incs:s.ov_inc ~bpos:s.bpos kernels in
      s.ov_eid <- !eid;
      Vgpu.Multi.run_async_with ~imports:s.ov_fired ?pick s.multi ops;
      s.ov_fired <-
        List.filter_map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_signal) ops
        @ s.ov_fired;
      t.launches <- t.launches + count_launches ops;
      Array.iter Shard.rotate_state s.sstates;
      s.bpos <- (s.bpos + 1) mod s.tblock

(* The async plan of [steps] overlapped time steps, for static analysis
   ({!Lift.Lint.check_async} via [racs check]).  Buffer rotation appears
   as explicit per-device [Swap] pairs so a linter can track buffer
   identities across steps; the runtime path instead rotates host-side.
   Does not consume the simulation's event-id state (ids start at 0), so
   build it on a dedicated simulation rather than mid-run. *)
let overlap_plan t (kernels : kernel list) ~steps : Vgpu.Multi.async_plan =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: overlap_plan needs a sharded backend"
  | Sharded s ->
      let kernels = device_kernels t kernels in
      let n = Shard.n_shards s.plan in
      let eid = ref 0 and incs = Array.make n ([], []) in
      let acc = ref [] in
      let aswap i (a, b) =
        {
          Vgpu.Multi.a_op = Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap (a, b));
          a_waits = [];
          a_signal = None;
        }
      in
      for st = 0 to steps - 1 do
        let ops = overlap_step_ops t ~eid ~incs ~bpos:(st mod s.tblock) kernels in
        let rot =
          List.concat_map
            (fun i -> [ aswap i ("prev", "curr"); aswap i ("curr", "next") ])
            (List.init n Fun.id)
        in
        acc := !acc @ ops @ rot
      done;
      !acc

(* The synchronous Multi.plan of [steps] sequential sharded time steps,
   mirroring what [step] executes under [`Seq]/[`Concurrent]: per-device
   launches with resolved args, the halo exchange of [next], and the
   buffer rotation as explicit per-device [Swap] pairs (the runtime path
   rotates host-side).  For static analysis ([Lift.Lint.verify_plan] via
   [racs check]). *)
let step_plan t (kernels : kernel list) ~steps : Vgpu.Multi.plan =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: step_plan needs a sharded backend"
  | Sharded s ->
      let kernels = device_kernels t kernels in
      let n = Shard.n_shards s.plan in
      let acc = ref [] in
      let push op = acc := op :: !acc in
      for st = 0 to steps - 1 do
        for i = 0 to n - 1 do
          let sh = s.plan.Shard.shards.(i) and ss = s.sstates.(i) in
          let rt = Vgpu.Multi.device s.multi i in
          let int_scalar = scalar_int_shard t sh in
          List.iter
            (fun k ->
              let args =
                args_into rt ~int_scalar ~real_scalar:(scalar_real t)
                  ~buf:(buffer_shard t sh ss) k
              in
              let global = global_size ~int_scalar k in
              push (Vgpu.Multi.Dev (i, Vgpu.Runtime.Launch { kernel = k; args; global })))
            kernels
        done;
        if st mod s.tblock = s.tblock - 1 then
          List.iter push
            (block_exchange_plan s.plan ~tblock:s.tblock
               ~has_state:(uses_branch_state kernels));
        for i = 0 to n - 1 do
          push (Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap ("prev", "curr")));
          push (Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap ("curr", "next")))
        done
      done;
      List.rev !acc

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
   a single device, where [state] is live). *)
let sync t =
  drain t;
  match t.backend with
  | Single _ -> ()
  | Sharded s -> if s.scattered then Shard.gather s.plan s.sstates t.state

(* Read the current field at a grid point, wherever it lives. *)
let read t ~x ~y ~z =
  drain t;
  match t.backend with
  | Sharded s when s.scattered ->
      let sh = Shard.owner s.plan ~z in
      let ss = s.sstates.(sh.Shard.index) in
      ss.Shard.curr.(((z - sh.Shard.z0 + sh.Shard.halo) * sh.Shard.plane)
                     + (y * t.state.room.Geometry.dims.Geometry.nx) + x)
  | Single _ | Sharded _ -> State.read t.state ~x ~y ~z

let stats t =
  drain t;
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
  drain t;
  match t.backend with
  | Single rt -> [ (0, Vgpu.Runtime.stats rt) ]
  | Sharded s -> Vgpu.Multi.per_device_stats s.multi

let pp_stats ppf t =
  drain t;
  match t.backend with
  | Single rt -> Vgpu.Runtime.pp_stats ppf (Vgpu.Runtime.stats rt)
  | Sharded s -> Vgpu.Multi.pp_stats ppf s.multi

(* Drain, then zero the launch/transfer counters and re-align the queue
   clocks, so a measurement interval starts clean. *)
let reset_stats t =
  drain t;
  match t.backend with
  | Single rt -> Vgpu.Runtime.reset_stats rt
  | Sharded s -> Vgpu.Multi.reset_stats s.multi

(* Sharded schedule of this simulation, if sharded. *)
let schedule t =
  match t.backend with Single _ -> None | Sharded s -> Some s.schedule

(* Virtual critical path (ns) across this simulation's device queues:
   the longest per-queue virtual clock after draining.  0 on a single
   device or when the overlapped schedule was never used. *)
let overlap_vclock_ns t =
  drain t;
  match t.backend with
  | Single _ -> 0.
  | Sharded s -> Vgpu.Multi.async_vclock s.multi

(* Aggregate queue statistics (busy vs critical path vs overlap saved);
   [None] on a single device. *)
let overlap_stats t =
  drain t;
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
