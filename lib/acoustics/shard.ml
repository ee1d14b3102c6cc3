(* Z-axis domain decomposition of the acoustics grid across virtual
   devices.

   The Nx*Ny*Nz grid is cut into contiguous slabs of whole XY planes;
   shard [i] owns global planes [z0, z1) and holds a local grid of
   (z1-z0)+2*halo planes — its owned planes plus [halo] ghost planes on
   each side.  Ghost planes that fall outside the global grid stay zero
   (the same zero halo the stencil relies on at the grid edge); interior
   ghost planes are refreshed from the neighbouring shard's freshly
   written planes by a halo exchange after the kernels of each block of
   [halo] time steps.  A volume launch sweeps only the shard's live
   planes ([live_planes]), and within them visits only the room's row
   intervals ([spans]).

   Everything a kernel launch needs becomes shard-local at plan time:

   - [nbrs] is the room's byte grid restricted to the owned planes, with
     the ghost planes zeroed — so the volume kernel, which guards on
     [nbr > 0], never updates a ghost point;
   - the global [boundary_indices] array is ascending (built in linear
     index order), so a shard's boundary points are one contiguous range
     [b_off, b_off + n_b) of it; the indices re-base by subtracting the
     local base offset, and the branch-major FD state (ci = b*nB + i)
     re-bases per branch as contiguous slices;
   - the per-boundary-point [material] ids are the matching sub-array.

   Bit-for-bit equality with the one-device run, the one-slab plan,
   follows: every owned point is computed by exactly one shard, from
   inputs (owned planes scattered from the global grid, ghost planes
   exact copies of the neighbour's owned planes) identical to the
   unsharded arrays. *)

type slab = { z0 : int; z1 : int }

(* Cut [nz] planes into at most [shards] non-empty contiguous slabs. *)
let partition ~nz ~shards =
  let shards = max 1 (min shards nz) in
  Array.init shards (fun i -> { z0 = i * nz / shards; z1 = (i + 1) * nz / shards })

type shard = {
  index : int;
  z0 : int;  (* first owned global plane *)
  z1 : int;  (* one past the last owned global plane *)
  plane : int;  (* nx * ny *)
  halo : int;  (* ghost planes per side (the temporal block depth T) *)
  planes : int;  (* z1 - z0 + 2*halo: owned planes plus the ghosts *)
  base : int;  (* global linear index of local index 0, i.e. (z0-halo)*plane *)
  local_n : int;  (* planes * plane *)
  nbrs : Bytes.t;
  (* local neighbour counts, one byte each (the device's [Cast.U8]
     form): real values on local planes [1, planes-2]
     (owned planes plus the halo-1 ghost planes the blocked schedule
     recomputes redundantly), zero on the two extreme planes and
     outside the grid — the [nbr > 0] guard then keeps every stencil
     read in bounds *)
  bidx : int array;  (* boundary indices re-based to local coordinates *)
  material : int array;  (* material ids of this shard's boundary points *)
  b_off : int;  (* offset of this shard's range in the global boundary array *)
  n_b : int;  (* boundary points in this shard's extended (owned + ghost) range *)
  b_own0 : int;  (* offset of the first owned boundary point within [bidx] *)
  b_ownn : int;  (* boundary points actually owned by this shard *)
  spans : Vgpu.Spans.t;
      (* the room's row intervals in the live planes, as offsets from
         the first live plane's first point: the only points a volume
         launch updates, as the unsplit launch's work items *)
}

type plan = {
  room : Geometry.room;
  n_branches : int;
  shards : shard array;
}

(* First index in ascending [a] whose value is >= [v]. *)
let lower_bound (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The local planes that can hold a room point: planes 1 .. planes-2
   (the extreme two are ghosts, or on one slab the room's shell, and
   their [nbrs] are zero) clipped to the room's planes 1 .. nz-2, outside
   which [Geometry.inside] admits no point.  [(first, count)], [count]
   0 when the shard owns shell planes only; [first] does not depend on
   nz. *)
let first_live ~z0 ~halo = max 1 (1 - z0 + halo)

let live_range ~nz ~z0 ~halo ~planes =
  let first = first_live ~z0 ~halo and last = min (planes - 2) (nz - 2 - z0 + halo) in
  (first, max 0 (last - first + 1))

(* The room's row intervals in the live planes of a slab from global
   plane [z0 - halo], as offsets from the first live plane's first
   point: the walker's own intervals ([Geometry.row_spans]), so no byte
   of the grid is scanned.  Every nonzero [nbrs] byte of the live planes
   lies in one of them.  A plane's first and last rows are outside every
   room, so [ny - 2] rows a plane bound the count (exactly, for the box
   and the L-shape). *)
let live_spans (room : Geometry.room) ~z0 ~halo ~planes =
  let { Geometry.nx; ny; nz } = room.Geometry.dims in
  let first, count = live_range ~nz ~z0 ~halo ~planes in
  let gz = z0 - halo + first in
  let base = gz * nx * ny in
  let flat = Array.make (2 * count * (ny - 2)) 0 and n = ref 0 in
  Geometry.row_spans room.Geometry.shape room.Geometry.dims ~z0:gz ~z1:(gz + count) (fun i len ->
      flat.(2 * !n) <- i - base;
      flat.((2 * !n) + 1) <- i - base + len;
      incr n);
  Vgpu.Spans.of_flat flat ~n:!n

let make_shard ?(halo = 1) (room : Geometry.room) index (sl : slab) =
  let z0 = sl.z0 and z1 = sl.z1 in
  let { Geometry.nx; ny; nz } = room.Geometry.dims in
  let plane = nx * ny in
  let planes = z1 - z0 + (2 * halo) in
  let base = (z0 - halo) * plane in
  let local_n = planes * plane in
  let nbrs = Vgpu.Buffer.zeros_bytes local_n in
  (* real neighbour counts on every local plane except the two extreme
     ones, clamped to the grid: the halo-1 inner ghost planes carry real
     geometry so the blocked schedule can recompute them redundantly *)
  for p = 1 to planes - 2 do
    let z = z0 - halo + p in
    if z >= 0 && z < nz then
      Bytes.blit room.Geometry.nbrs_u8 (z * plane) nbrs (p * plane) plane
  done;
  let gb = room.Geometry.boundary_indices in
  (* boundary range extended by the halo-1 redundantly recomputed ghost
     planes on each side (empty extension at halo = 1) *)
  let ze_lo = max 0 (z0 - (halo - 1)) and ze_hi = min nz (z1 + (halo - 1)) in
  let b_off = lower_bound gb (ze_lo * plane) in
  let b_end = lower_bound gb (ze_hi * plane) in
  let n_b = b_end - b_off in
  let b_own0 = lower_bound gb (z0 * plane) - b_off in
  let b_ownn = lower_bound gb (z1 * plane) - lower_bound gb (z0 * plane) in
  let bidx = Array.init n_b (fun i -> gb.(b_off + i) - base) in
  let material = Array.sub room.Geometry.material b_off n_b in
  {
    index;
    z0;
    z1;
    plane;
    halo;
    planes;
    base;
    local_n;
    nbrs;
    bidx;
    material;
    b_off;
    n_b;
    b_own0;
    b_ownn;
    spans = live_spans room ~z0 ~halo ~planes;
  }

(* The one shard of a one-slab plan: the room itself.  It needs no
   ghost planes, since its extreme planes are the room's zero shell
   ([Geometry.inside] requires 1 <= z <= nz-2), and it shares the room's
   byte grid, boundary indices and material ids instead of copying
   them. *)
let whole (room : Geometry.room) =
  let { Geometry.nx; ny; nz } = room.Geometry.dims in
  let n_b = Geometry.n_boundary room in
  {
    index = 0;
    z0 = 0;
    z1 = nz;
    plane = nx * ny;
    halo = 0;
    planes = nz;
    base = 0;
    local_n = nx * ny * nz;
    nbrs = room.Geometry.nbrs_u8;
    bidx = room.Geometry.boundary_indices;
    material = room.Geometry.material;
    b_off = 0;
    n_b;
    b_own0 = 0;
    b_ownn = n_b;
    spans = live_spans room ~z0:0 ~halo:0 ~planes:nz;
  }

let plan ?(n_branches = 0) ?(halo = 1) ~shards room =
  match partition ~nz:room.Geometry.dims.Geometry.nz ~shards with
  | [| _ |] -> { room; n_branches; shards = [| whole room |] }
  | slabs ->
      (* the halo exchange sources [halo] owned planes and the redundant
         recompute reaches halo-1 planes past the cut, so the depth is
         capped by the thinnest slab *)
      let min_owned =
        Array.fold_left (fun acc (sl : slab) -> min acc (sl.z1 - sl.z0)) max_int slabs
      in
      let halo = max 1 (min halo min_owned) in
      { room; n_branches; shards = Array.mapi (make_shard ~halo room) slabs }

let n_shards p = Array.length p.shards

(* The shard owning global plane [z]. *)
let owner p ~z =
  match Array.find_opt (fun s -> s.z0 <= z && z < s.z1) p.shards with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Shard.owner: plane %d outside the grid" z)

(* -- Shard-local simulation state ----------------------------------- *)

type shard_state = {
  prev : float array;
  curr : float array;
  next : float array;
  g1 : float array;
  vel_prev : float array;  (* v2 *)
  vel_next : float array;  (* v1 *)
}

let create_state p (s : shard) =
  let grid () = Vgpu.Buffer.zeros_float s.local_n in
  let bstate () = Vgpu.Buffer.zeros_float (max 1 (p.n_branches * s.n_b)) in
  {
    prev = grid ();
    curr = grid ();
    next = grid ();
    g1 = bstate ();
    vel_prev = bstate ();
    vel_next = bstate ();
  }

let create_states p = Array.map (create_state p) p.shards

(* Global grid -> shard-local slab, plane by plane: owned and interior
   ghost planes copy from the global array, out-of-grid ghosts zero. *)
let scatter_slab (s : shard) ~(src : float array) ~(dst : float array) =
  let nz = Array.length src / s.plane in
  for p = 0 to s.planes - 1 do
    let z = s.z0 - s.halo + p in
    if z < 0 || z >= nz then Array.fill dst (p * s.plane) s.plane 0.
    else Array.blit src (z * s.plane) dst (p * s.plane) s.plane
  done

(* Shard-local slab -> global grid: owned planes only. *)
let gather_slab (s : shard) ~(src : float array) ~(dst : float array) =
  Array.blit src (s.halo * s.plane) dst (s.z0 * s.plane) ((s.z1 - s.z0) * s.plane)

(* Branch-major boundary state: global ci = b*nB_global + (b_off + i)
   maps to local ci = b*n_b + i, one contiguous slice per branch. *)
let scatter_bstate p (s : shard) ~(src : float array) ~(dst : float array) =
  let nb_global = Geometry.n_boundary p.room in
  for b = 0 to p.n_branches - 1 do
    Array.blit src ((b * nb_global) + s.b_off) dst (b * s.n_b) s.n_b
  done

(* Gather only the owned slice of each branch: the extended-range ghost
   boundary points belong to (and are gathered from) the neighbour. *)
let gather_bstate p (s : shard) ~(src : float array) ~(dst : float array) =
  let nb_global = Geometry.n_boundary p.room in
  for b = 0 to p.n_branches - 1 do
    Array.blit src
      ((b * s.n_b) + s.b_own0)
      dst
      ((b * nb_global) + s.b_off + s.b_own0)
      s.b_ownn
  done

let scatter p (st : State.t) (sstates : shard_state array) =
  Array.iteri
    (fun i (s : shard) ->
      let ss = sstates.(i) in
      scatter_slab s ~src:st.State.prev ~dst:ss.prev;
      scatter_slab s ~src:st.State.curr ~dst:ss.curr;
      scatter_slab s ~src:st.State.next ~dst:ss.next;
      scatter_bstate p s ~src:st.State.g1 ~dst:ss.g1;
      scatter_bstate p s ~src:st.State.vel_prev ~dst:ss.vel_prev;
      scatter_bstate p s ~src:st.State.vel_next ~dst:ss.vel_next)
    p.shards

let gather p (sstates : shard_state array) (st : State.t) =
  Array.iteri
    (fun i (s : shard) ->
      let ss = sstates.(i) in
      gather_slab s ~src:ss.prev ~dst:st.State.prev;
      gather_slab s ~src:ss.curr ~dst:st.State.curr;
      gather_slab s ~src:ss.next ~dst:st.State.next;
      gather_bstate p s ~src:ss.g1 ~dst:st.State.g1;
      gather_bstate p s ~src:ss.vel_prev ~dst:st.State.vel_prev;
      gather_bstate p s ~src:ss.vel_next ~dst:st.State.vel_next)
    p.shards

(* -- Interior/frontier decomposition -------------------------------- *)

type range_kind =
  | Interior  (* owned planes not adjacent to a ghost plane *)
  | Frontier_lo  (* first owned plane: stencil reads the bottom ghost *)
  | Frontier_hi  (* last owned plane: stencil reads the top ghost *)
  | Frontier_both  (* single owned plane adjacent to both ghosts *)

let live_planes p (s : shard) =
  live_range ~nz:p.room.Geometry.dims.Geometry.nz ~z0:s.z0 ~halo:s.halo ~planes:s.planes

(* The spans of a ranged launch over local elements [goff, goff +
   count): the shard's spans in that range, re-based to the launch's
   work items.  The unsplit launch over the live planes takes the
   shard's spans themselves. *)
let launch_spans (s : shard) ~goff ~count =
  let d = goff - (first_live ~z0:s.z0 ~halo:s.halo * s.plane) in
  Vgpu.Spans.shift (Vgpu.Spans.inter s.spans ~lo:d ~hi:(d + count)) (-d)

(* Cut a shard's flat local index range into the launches of the
   overlapped schedule: one (possibly empty) interior range covering
   owned planes whose stencils touch no ghost data, plus thin frontier
   ranges (one plane each) whose stencils read a ghost plane and must
   therefore wait on the previous step's halo exchange.  Offsets and
   counts are in elements of the local slab; the ghost planes themselves
   (local planes 0 and planes-1) are in no range — their [nbrs] entries
   are zero, so a volume kernel writes nothing or zeros there, and those
   cells are either rewritten by the exchange (interior cuts) or
   scattered as zero and never touched again (grid edges), which keeps
   the split bit-identical to a launch over every plane.  The ranges
   are not clipped to [live_planes]: they are the launches' hulls, and
   each launch visits only the shard's spans inside its range
   ([launch_spans]), which lie in the live planes. *)
let split_ranges (s : shard) : (range_kind * int * int) list =
  let owned = s.z1 - s.z0 and h = s.halo in
  if owned <= 1 then [ (Frontier_both, s.plane, (s.planes - 2) * s.plane) ]
  else if owned = 2 then
    [
      (Frontier_lo, s.plane, h * s.plane);
      (Frontier_hi, (h + 1) * s.plane, h * s.plane);
    ]
  else
    (* interior first: it carries no event wait, so an in-order queue
       starts it immediately while the frontiers wait on the halo *)
    [
      (Interior, (h + 1) * s.plane, (owned - 2) * s.plane);
      (Frontier_lo, s.plane, h * s.plane);
      (Frontier_hi, (s.planes - 1 - h) * s.plane, h * s.plane);
    ]

(* Halo exchange over buffer [name]: across each interior cut, the lower
   shard's top [depth] owned planes refresh the upper shard's bottom
   ghost planes nearest the cut, and vice versa.  [depth] defaults to the
   full halo; a shallower depth (e.g. halo-1 for the [curr] buffer at a
   block boundary) fills only the [depth] ghost planes nearest the owned
   region and leaves the farther ones stale on purpose. *)
let exchange_ops ?depth p ~buffer : Vgpu.Multi.plan =
  let ops = ref [] in
  for i = Array.length p.shards - 2 downto 0 do
    let lo = p.shards.(i) and hi = p.shards.(i + 1) in
    let h = lo.halo in
    let d = match depth with None -> h | Some d -> max 0 (min d h) in
    if d > 0 then
      ops :=
        Vgpu.Multi.Exchange
          {
            src_dev = lo.index;
            src = buffer;
            src_off = (lo.planes - h - d) * lo.plane;
            dst_dev = hi.index;
            dst = buffer;
            dst_off = (h - d) * hi.plane;
            elems = d * lo.plane;
          }
        :: Vgpu.Multi.Exchange
             {
               src_dev = hi.index;
               src = buffer;
               src_off = h * hi.plane;
               dst_dev = lo.index;
               dst = buffer;
               dst_off = (lo.planes - h) * lo.plane;
               elems = d * lo.plane;
             }
        :: !ops
  done;
  !ops

(* Refresh the ghost (redundantly recomputed, non-owned) slices of the
   branch-major boundary-state buffers across each interior cut.  A
   shard's extended boundary range is [owned-prefix ghosts][owned]
   [owned-suffix ghosts]; the prefix is owned by the lower neighbour and
   the suffix by the upper one, so at a block boundary each ghost slice
   is overwritten from its owner's (correct) copy.  Empty at halo = 1,
   where the extended range equals the owned range. *)
let state_exchange_ops p ~buffer : Vgpu.Multi.plan =
  let ops = ref [] in
  for i = Array.length p.shards - 2 downto 0 do
    let lo = p.shards.(i) and hi = p.shards.(i + 1) in
    for b = p.n_branches - 1 downto 0 do
      (* hi's ghost prefix, sourced from lo's owned points *)
      if hi.b_own0 > 0 then
        ops :=
          Vgpu.Multi.Exchange
            {
              src_dev = lo.index;
              src = buffer;
              src_off = (b * lo.n_b) + (hi.b_off - lo.b_off);
              dst_dev = hi.index;
              dst = buffer;
              dst_off = b * hi.n_b;
              elems = hi.b_own0;
            }
          :: !ops;
      (* lo's ghost suffix, sourced from hi's owned points *)
      let suffix = lo.n_b - lo.b_own0 - lo.b_ownn in
      if suffix > 0 then
        ops :=
          Vgpu.Multi.Exchange
            {
              src_dev = hi.index;
              src = buffer;
              src_off = (b * hi.n_b) + hi.b_own0;
              dst_dev = lo.index;
              dst = buffer;
              dst_off = (b * lo.n_b) + lo.b_own0 + lo.b_ownn;
              elems = suffix;
            }
          :: !ops
    done
  done;
  !ops
