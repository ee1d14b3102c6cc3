(* Shadow-memory sanitizer for the reference interpreter.

   Covers the cases the static verifier ([Kernel_ast.Check]) reports as
   Unproven — above all the indirect [next[bidx[i]]] boundary scatters —
   by observing every access through [Exec.access_hook]:

   - write-write races: per cell, the launch epoch and packed gid of the
     last writer; a second store in the same epoch from a different
     work-item is a race (sequential interpretation order would silently
     pick a winner that a real device does not guarantee);
   - out-of-bounds loads/stores, which are additionally suppressed
     (store skipped, load yields 0) so one bad index does not abort the
     run before the full violation picture is collected;
   - reads of never-written cells (neither host-initialised, copied
     into, nor stored by a kernel).

   Shadows are keyed on the physical identity of the underlying arrays,
   not on [Buffer.t] values: the runtime re-wraps arrays in fresh
   [Buffer.F]/[Buffer.I]/[Buffer.U8] constructors per resolution, but
   the storage — and therefore the write history — is the array (or
   byte string) itself. *)

type key =
  | KF of float array
  | KI of int array
  | KU8 of Bytes.t

let key_of_buffer : Buffer.t -> key = function
  | Buffer.F a -> KF a
  | Buffer.I a -> KI a
  | Buffer.U8 b -> KU8 b

let same_key a b =
  match (a, b) with
  | KF x, KF y -> x == y
  | KI x, KI y -> x == y
  | KU8 x, KU8 y -> x == y
  | _ -> false

type shadow = {
  last_epoch : int array;  (* launch epoch of the last store, 0 = never *)
  last_writer : int array;  (* packed gid of the last store *)
  written : Bytes.t;  (* has the cell ever held a defined value? *)
}

type kind =
  | Write_race of (int * int * int)  (* the earlier writer *)
  | Oob_store
  | Oob_load
  | Read_uninit

type violation = {
  v_kernel : string;
  v_buf : string;
  v_idx : int;
  v_gid : int * int * int;
  v_kind : kind;
}

type counts = {
  n_races : int;
  n_oob : int;
  n_uninit : int;
}

let no_violations = { n_races = 0; n_oob = 0; n_uninit = 0 }

let add_counts a b =
  {
    n_races = a.n_races + b.n_races;
    n_oob = a.n_oob + b.n_oob;
    n_uninit = a.n_uninit + b.n_uninit;
  }

let total c = c.n_races + c.n_oob + c.n_uninit

type t = {
  mutable shadows : (key * shadow) list;
  mutable epoch : int;
  mutable kernel : string;
  mutable gid : int * int * int;
  mutable counts : counts;
  mutable kept : violation list;  (* newest first, capped *)
  mutable n_kept : int;
  max_kept : int;
  extents : (string, extent) Hashtbl.t;
      (* per global-buffer argument name, observed linear index ranges *)
}

and extent = {
  mutable e_load : (int * int) option;  (* inclusive [min,max] of loads *)
  mutable e_store : (int * int) option;  (* inclusive [min,max] of stores *)
}

let create ?(max_kept = 64) () =
  {
    shadows = [];
    epoch = 0;
    kernel = "<none>";
    gid = (0, 0, 0);
    counts = no_violations;
    kept = [];
    n_kept = 0;
    max_kept;
    extents = Hashtbl.create 8;
  }

(* Observed-extent recording happens before the bounds check: a sound
   static footprint must cover every *attempted* access, including the
   out-of-bounds ones the sanitizer suppresses. *)
let record_extent t name idx ~store =
  let e =
    match Hashtbl.find_opt t.extents name with
    | Some e -> e
    | None ->
        let e = { e_load = None; e_store = None } in
        Hashtbl.replace t.extents name e;
        e
  in
  let widen = function
    | None -> Some (idx, idx)
    | Some (lo, hi) -> Some (min lo idx, max hi idx)
  in
  if store then e.e_store <- widen e.e_store else e.e_load <- widen e.e_load

let fresh_shadow ~len ~host_init =
  {
    last_epoch = Array.make len 0;
    last_writer = Array.make len 0;
    written = Bytes.make len (if host_init then '\001' else '\000');
  }

let find t key len ~host_init =
  match List.find_opt (fun (k, _) -> same_key k key) t.shadows with
  | Some (_, s) -> s
  | None ->
      let s = fresh_shadow ~len ~host_init in
      t.shadows <- (key, s) :: t.shadows;
      s

(* A buffer first seen mid-run is assumed host-initialised (no false
   uninit-read reports); [note_alloc] below opts fresh device
   allocations out of that assumption. *)
let shadow_of t buf =
  find t (key_of_buffer buf) (Buffer.length buf) ~host_init:true

let note_host_write t buf =
  let s = find t (key_of_buffer buf) (Buffer.length buf) ~host_init:true in
  Bytes.fill s.written 0 (Bytes.length s.written) '\001'

let note_alloc t buf =
  let key = key_of_buffer buf in
  t.shadows <- List.filter (fun (k, _) -> not (same_key k key)) t.shadows;
  ignore (find t key (Buffer.length buf) ~host_init:false)

let note_blit t buf ~off ~len =
  let s = shadow_of t buf in
  let n = Bytes.length s.written in
  let off = max 0 off in
  let len = min len (n - off) in
  if len > 0 then Bytes.fill s.written off len '\001'

let begin_launch t ~kernel =
  t.epoch <- t.epoch + 1;
  t.kernel <- kernel;
  t.gid <- (0, 0, 0)

let set_gid t gid = t.gid <- gid

let pack (x, y, z) = x lor (y lsl 20) lor (z lsl 40)
let unpack p = (p land 0xfffff, (p lsr 20) land 0xfffff, (p lsr 40) land 0xfffff)

let report t ~buf ~idx kind =
  t.counts <-
    add_counts t.counts
      (match kind with
      | Write_race _ -> { no_violations with n_races = 1 }
      | Oob_store | Oob_load -> { no_violations with n_oob = 1 }
      | Read_uninit -> { no_violations with n_uninit = 1 });
  if t.n_kept < t.max_kept then begin
    t.kept <-
      { v_kernel = t.kernel; v_buf = buf; v_idx = idx; v_gid = t.gid; v_kind = kind }
      :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

let on_store t ~name ~buf ~len ~idx =
  if buf <> None then record_extent t name idx ~store:true;
  if idx < 0 || idx >= len then begin
    report t ~buf:name ~idx Oob_store;
    false
  end
  else begin
    (match buf with
    | None -> () (* private arrays are per-work-item: no race/uninit state *)
    | Some b ->
        let s = shadow_of t b in
        let me = pack t.gid in
        if s.last_epoch.(idx) = t.epoch && s.last_writer.(idx) <> me then
          report t ~buf:name ~idx (Write_race (unpack s.last_writer.(idx)));
        s.last_epoch.(idx) <- t.epoch;
        s.last_writer.(idx) <- me;
        Bytes.set s.written idx '\001');
    true
  end

let on_load t ~name ~buf ~len ~idx =
  if buf <> None then record_extent t name idx ~store:false;
  if idx < 0 || idx >= len then begin
    report t ~buf:name ~idx Oob_load;
    false
  end
  else begin
    (match buf with
    | None -> ()
    | Some b ->
        let s = shadow_of t b in
        if Bytes.get s.written idx = '\000' then begin
          report t ~buf:name ~idx Read_uninit;
          (* report each uninitialised cell at most once *)
          Bytes.set s.written idx '\001'
        end);
    true
  end

let hook t : Exec.access_hook =
  {
    on_load = (fun ~name ~buf ~len ~idx -> on_load t ~name ~buf ~len ~idx);
    on_store = (fun ~name ~buf ~len ~idx -> on_store t ~name ~buf ~len ~idx);
  }

let counts t = t.counts
let violations t = List.rev t.kept

let access_extents t =
  Hashtbl.fold (fun name e acc -> (name, e.e_load, e.e_store) :: acc) t.extents []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let launch ?spans t (k : Kernel_ast.Cast.kernel) ~args ~global =
  Kernel_ast.Cast.check_ndrange k ~global;
  begin_launch t ~kernel:k.name;
  Exec.launch ~hook:(hook t) ~on_workitem:(set_gid t) ?spans k ~args ~global

(* -- Printing --------------------------------------------------------- *)

let pp_gid ppf (x, y, z) = Fmt.pf ppf "(%d,%d,%d)" x y z

let pp_violation ppf v =
  match v.v_kind with
  | Write_race other ->
      Fmt.pf ppf "write-write race: kernel %s, %s[%d] stored by work-items %a and %a"
        v.v_kernel v.v_buf v.v_idx pp_gid other pp_gid v.v_gid
  | Oob_store ->
      Fmt.pf ppf "out-of-bounds store: kernel %s, work-item %a, %s[%d]" v.v_kernel pp_gid
        v.v_gid v.v_buf v.v_idx
  | Oob_load ->
      Fmt.pf ppf "out-of-bounds load: kernel %s, work-item %a, %s[%d]" v.v_kernel pp_gid
        v.v_gid v.v_buf v.v_idx
  | Read_uninit ->
      Fmt.pf ppf "read of uninitialised cell: kernel %s, work-item %a, %s[%d]" v.v_kernel
        pp_gid v.v_gid v.v_buf v.v_idx

let pp_counts ppf c =
  Fmt.pf ppf "races: %d, out-of-bounds: %d, uninitialised reads: %d" c.n_races c.n_oob
    c.n_uninit

let pp ppf t =
  if total t.counts = 0 then Fmt.pf ppf "sanitizer: no violations@."
  else begin
    Fmt.pf ppf "sanitizer: %d violation(s) (%a)@." (total t.counts) pp_counts t.counts;
    List.iter (fun v -> Fmt.pf ppf "  %a@." pp_violation v) (violations t);
    if total t.counts > t.n_kept then
      Fmt.pf ppf "  ... %d more not shown@." (total t.counts - t.n_kept)
  end
