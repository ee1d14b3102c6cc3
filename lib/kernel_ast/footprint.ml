(* Stencil-footprint inference: provenance-carrying abstract
   interpretation.

   Values are abstracted by [Domain.eval], the transfer function Check
   uses too; through its [var] and [load] hooks every value also
   collects its *provenance* — the set of global-buffer cells (buffer
   name + affine index form) it was loaded from.  Provenance
   flows through arithmetic, scalar registers, private arrays, __local
   staging tiles and enclosing branch conditions, and reaches a global
   store as the store's read footprint.  Loop-carried registers are aged
   by one iteration per trip around a bounded fixpoint, which recovers
   the below-plane dependence of 2.5D-tiled kernels whose z-1 plane
   lives only in a register. *)

open Cast
open Domain
module SMap = Map.Make (String)

type axis = { ax_lo : int; ax_hi : int }

type side = {
  s_rel : axis array option;
  s_abs : itv array;
  s_lin : itv;
  s_indirect : bool;
  s_sites : int;
}

type buf = { fb_name : string; fb_read : side; fb_write : side; fb_exact : bool }

type t = {
  fp_kernel : string;
  fp_anchor : string option;
  fp_strides : int array;
  fp_bufs : buf list;
  fp_notes : string list;
}

(* -- Provenance-carrying values --------------------------------------- *)

type origin = { o_buf : string; o_form : aff option; o_exact : bool }
type fval = { fa : absval; fo : origin list }

let dedup_origins os = List.sort_uniq compare os
let union_origins a b = dedup_origins (List.rev_append a b)
let union_all oss = dedup_origins (List.concat oss)

(* A recorded access site on a global buffer. *)
type acc = { a_buf : string; a_store : bool; a_form : aff option; a_itv : itv }

type fenv = {
  l : Domain.launch;
  global_bufs : (string, unit) Hashtbl.t;
  arrays : (string, origin list ref) Hashtbl.t;
      (* private and __local arrays: union of origins ever stored; slots
         are not resolved, so a load sees every store's provenance *)
  loop_ranges : (int, itv) Hashtbl.t;
  mutable nloops : int;
  mutable locals : fval SMap.t;
  mutable accs : acc list;
  mutable flows : origin list;
      (* origins reaching a global store: value, index and enclosing
         branch conditions *)
  mutable track : (string * origin list ref) list;
      (* assignment interceptors for invariant-guarded loop-carried
         registers (see [scan_for]) *)
  mutable notes : string list;
}

let note fenv s = if not (List.mem s fenv.notes) then fenv.notes <- s :: fenv.notes

let record fenv b ~store (iv : absval) =
  if Hashtbl.mem fenv.global_bufs b then
    let form = if iv.v_tainted then None else iv.v_aff in
    fenv.accs <- { a_buf = b; a_store = store; a_form = form; a_itv = iv.v_itv } :: fenv.accs

(* -- Abstract evaluation with provenance ------------------------------ *)

let pure av = { fa = av; fo = [] }

(* A value's provenance is the union of its leaves': the registers it
   reads and the cells it loads (an array load sees every store into the
   array). *)
let eval fenv (expr : expr) : fval =
  let fo = ref [] in
  let add os = fo := List.rev_append os !fo in
  let var v =
    Option.map (fun fv -> add fv.fo; fv.fa) (SMap.find_opt v fenv.locals)
  in
  let load b (iv : absval) =
    record fenv b ~store:false iv;
    if Hashtbl.mem fenv.global_bufs b then
      add [ { o_buf = b; o_form = (if iv.v_tainted then None else iv.v_aff); o_exact = true } ]
    else Option.iter (fun r -> add !r) (Hashtbl.find_opt fenv.arrays b)
  in
  let fa = Domain.eval fenv.l ~var ~load expr in
  { fa; fo = dedup_origins !fo }

(* -- Statement scan ---------------------------------------------------- *)

(* Variables bound afresh inside a statement list (so not loop-carried):
   declarations and nested loop counters. *)
let rec decl_vars acc = function
  | [] -> acc
  | Decl (_, v, _) :: tl -> decl_vars (v :: acc) tl
  | If (_, t, f) :: tl -> decl_vars (decl_vars (decl_vars acc t) f) tl
  | For l :: tl -> decl_vars (l.var :: decl_vars acc l.body) tl
  | _ :: tl -> decl_vars acc tl

(* Every [Assign] site with its enclosing branch conditions and whether
   it sits inside a nested loop. *)
let rec assign_sites conds nested acc = function
  | [] -> acc
  | Assign (v, _) :: tl -> assign_sites conds nested ((v, conds, nested) :: acc) tl
  | If (c, t, f) :: tl ->
      let acc = assign_sites (c :: conds) nested acc t in
      let acc = assign_sites (c :: conds) nested acc f in
      assign_sites conds nested acc tl
  | For l :: tl ->
      let acc = assign_sites conds true acc l.body in
      assign_sites conds nested acc tl
  | _ :: tl -> assign_sites conds nested acc tl

let rec expr_has_load = function
  | Load _ -> true
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ | Group_id _ | Local_id _
  | Local_size _ ->
      false
  | Unop (_, a) -> expr_has_load a
  | Binop (_, a, b) -> expr_has_load a || expr_has_load b
  | Ternary (a, b, c) -> expr_has_load a || expr_has_load b || expr_has_load c
  | Call (_, args) -> List.exists expr_has_load args

let rec expr_vars acc = function
  | Var v -> v :: acc
  | Int_lit _ | Real_lit _ | Global_id _ | Global_size _ | Group_id _ | Local_id _
  | Local_size _ ->
      acc
  | Load (_, i) -> expr_vars acc i
  | Unop (_, a) -> expr_vars acc a
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Ternary (a, b, c) -> expr_vars (expr_vars (expr_vars acc a) b) c
  | Call (_, args) -> List.fold_left expr_vars acc args

let rec scan fenv ~ctx (s : stmt) =
  match s with
  | Comment _ | Barrier -> ()
  | Decl_local (_, v, _) | Decl_arr (_, v, _) ->
      (* [replace] would reset accumulated provenance on fixpoint
         re-scans; keep the existing cell *)
      if not (Hashtbl.mem fenv.arrays v) then Hashtbl.replace fenv.arrays v (ref [])
  | Decl (ty, v, init) ->
      let fv =
        match (ty, init) with
        | _, Some e -> eval fenv e
        | Int, None -> pure (known 0)
        | Real, None -> pure top
      in
      fenv.locals <- SMap.add v { fv with fo = union_origins fv.fo ctx } fenv.locals
  | Assign (v, e) ->
      let fv = eval fenv e in
      let os = union_origins fv.fo ctx in
      List.iter (fun (v', r) -> if v' = v then r := union_origins os !r) fenv.track;
      fenv.locals <- SMap.add v { fv with fo = os } fenv.locals
  | Store (b, i, e) ->
      let iv = eval fenv i in
      let ev = eval fenv e in
      record fenv b ~store:true iv.fa;
      let os = union_all [ ev.fo; iv.fo; ctx ] in
      if Hashtbl.mem fenv.global_bufs b then fenv.flows <- union_origins os fenv.flows
      else (
        match Hashtbl.find_opt fenv.arrays b with
        | Some r -> r := union_origins os !r
        | None -> ())
  | If (c, t, f) ->
      let cv = eval fenv c in
      let ctx' = union_origins ctx cv.fo in
      let saved = fenv.locals in
      List.iter (scan fenv ~ctx:ctx') t;
      let after_t = fenv.locals in
      fenv.locals <- saved;
      List.iter (scan fenv ~ctx:ctx') f;
      let after_f = fenv.locals in
      fenv.locals <-
        SMap.merge
          (fun _ a b ->
            match (a, b) with
            | Some x, Some y -> Some { fa = join x.fa y.fa; fo = union_origins x.fo y.fo }
            | Some x, None | None, Some x -> Some { x with fa = top }
            | None, None -> None)
          after_t after_f
  | For l -> scan_for fenv ~ctx l

and scan_for fenv ~ctx l =
  let init_v = eval fenv l.init in
  let bound_v = eval fenv l.bound in
  let step_v = eval fenv l.step in
  let id = fenv.nloops in
  fenv.nloops <- id + 1;
  let range =
    { lo = init_v.fa.v_itv.lo; hi = Option.map (fun h -> h - 1) bound_v.fa.v_itv.hi }
  in
  let range = if init_v.fa.v_tainted || bound_v.fa.v_tainted then top_itv else range in
  Hashtbl.replace fenv.loop_ranges id range;
  let step_const =
    match step_v.fa.v_aff with Some a when is_const a -> Some a.base | _ -> None
  in
  let ctx = union_all [ ctx; init_v.fo; bound_v.fo; step_v.fo ] in
  let assigned = List.sort_uniq compare (assigned_vars [] l.body) in
  let carried =
    let decls = decl_vars [] l.body in
    List.filter (fun v -> not (List.mem v decls)) assigned
  in
  (* A carried register whose every assignment sits directly in the loop
     body under loop-invariant guards is assigned either every iteration
     or never (per work-item), so its value is exactly one iteration
     old: one aging of the assigned value suffices.  Variant guards can
     skip iterations, which the general fixpoint models as repeated
     aging. *)
  let bound_vars = (l.var :: decl_vars [] l.body) @ assigned in
  let invariant_cond c =
    (not (expr_has_load c))
    && List.for_all (fun v -> not (List.mem v bound_vars)) (expr_vars [] c)
  in
  let sites = assign_sites [] false [] l.body in
  let invariant_var v =
    List.for_all
      (fun (v', conds, nested) ->
        v' <> v || ((not nested) && List.for_all invariant_cond conds))
      sites
  in
  let inv = List.filter invariant_var carried in
  (* Age a loop-carried value by one iteration: what was [var] when the
     value was produced is [var - step] at the next use. *)
  let age os =
    List.map
      (fun o ->
        match o.o_form with
        | Some f when aff_coeff (Tloop id) f = 0 -> o
        | Some f -> (
            match step_const with
            | Some st -> { o with o_form = Some (aff_shift (Tloop id) (-st) f) }
            | None -> { o with o_form = None; o_exact = false })
        | None -> o)
      os
  in
  let seed =
    List.map
      (fun v ->
        ( v,
          match SMap.find_opt v fenv.locals with
          | Some fv -> dedup_origins fv.fo
          | None -> [] ))
      carried
  in
  let loop_fv =
    pure { v_itv = range; v_aff = Some (aff_of_term (Tloop id)); v_tainted = false }
  in
  let run_body cand =
    (* re-scans must hand nested loops the same ids *)
    fenv.nloops <- id + 1;
    let trackers = List.map (fun v -> (v, ref [])) inv in
    let saved_track = fenv.track in
    fenv.track <- trackers @ fenv.track;
    List.iter
      (fun (v, os) -> fenv.locals <- SMap.add v { fa = top; fo = os } fenv.locals)
      cand;
    fenv.locals <- SMap.add l.var loop_fv fenv.locals;
    List.iter (scan fenv ~ctx) l.body;
    fenv.track <- saved_track;
    List.map
      (fun (v, os) ->
        match List.assoc_opt v trackers with
        | Some r ->
            (* invariant guards: entry value is seed (never assigned) or
               the once-aged assigned value — not an aged entry value *)
            (v, union_origins (List.assoc v seed) (age !r))
        | None ->
            let endos =
              match SMap.find_opt v fenv.locals with Some fv -> fv.fo | None -> []
            in
            (v, union_origins os (age endos)))
      cand
  in
  let rec fix cand n =
    let cand' = run_body cand in
    if cand' = cand then cand'
    else if n = 0 then begin
      (* Did not stabilise (e.g. a register aged under a loop-varying
         condition): collapse the unstable provenance to "somewhere in
         the buffer" — sound, gives up on relative extents. *)
      let unstable =
        List.filter_map
          (fun (v, os) -> if List.assoc v cand <> os then Some v else None)
          cand'
      in
      note fenv
        (Fmt.str "loop-carried provenance through %s did not stabilise"
           (String.concat ", " unstable));
      List.map
        (fun (v, os) ->
          if List.mem v unstable then
            (v, dedup_origins (List.map (fun o -> { o with o_form = None; o_exact = false }) os))
          else (v, os))
        cand'
    end
    else fix cand' (n - 1)
  in
  let final = fix seed 4 in
  ignore (run_body final);
  (* Post-loop state: the counter may sit anywhere in its range; carried
     values keep both their last-iteration and accumulated provenance
     (trip count may be zero). *)
  List.iter
    (fun (v, os) ->
      let endos = match SMap.find_opt v fenv.locals with Some fv -> fv.fo | None -> [] in
      fenv.locals <- SMap.add v { fa = top; fo = union_origins os endos } fenv.locals)
    final;
  fenv.locals <-
    SMap.add l.var (pure { v_itv = range; v_aff = None; v_tainted = false }) fenv.locals

(* -- Offset decomposition ---------------------------------------------- *)

let check_strides strides =
  let n = Array.length strides in
  if n = 0 || strides.(0) <> 1 then
    invalid_arg "Footprint.infer: strides must start at 1";
  for a = 1 to n - 1 do
    if strides.(a) <= strides.(a - 1) then
      invalid_arg "Footprint.infer: strides must be strictly increasing"
  done

(* Balanced mixed-radix decomposition of a linear offset: nearest
   multiple at the highest stride first, remainder downwards, so [-Nx]
   reads as one step along y rather than Nx steps along x. *)
let decompose strides o =
  let n = Array.length strides in
  let res = Array.make n 0 in
  let rem = ref o in
  for a = n - 1 downto 1 do
    let s = strides.(a) in
    let q = if !rem >= 0 then (!rem + (s / 2)) / s else -((- !rem + (s / 2)) / s) in
    res.(a) <- q;
    rem := !rem - (q * s)
  done;
  res.(0) <- !rem;
  res

(* Split an affine index form into per-axis forms by decomposing its
   base and every coefficient. *)
let axis_forms strides (f : aff) =
  let n = Array.length strides in
  let bases = decompose strides f.base in
  let forms = Array.init n (fun a -> aff_const bases.(a)) in
  List.iter
    (fun (t, c) ->
      let cs = decompose strides c in
      Array.iteri
        (fun a ca ->
          if ca <> 0 then forms.(a) <- aff_add forms.(a) (aff_scale ca (aff_of_term t)))
        cs)
    f.coeffs;
  forms

let term_itv fenv = function
  | Tloop id -> Option.value ~default:top_itv (Hashtbl.find_opt fenv.loop_ranges id)
  | t -> Domain.term_itv fenv.l t

let aff_itv fenv (f : aff) =
  List.fold_left
    (fun acc (t, c) -> itv_add acc (itv_mul (point c) (term_itv fenv t)))
    (point f.base) f.coeffs

(* -- Summarisation ----------------------------------------------------- *)

(* Build one side (reads or writes) of a buffer's footprint.  Returns the
   side plus whether inexact provenance contributed to its extents. *)
let side_of fenv strides ~anchors ~origin_forms accesses =
  let n = Array.length strides in
  let sites = List.length accesses in
  let indirect =
    List.exists (fun a -> a.a_form = None) accesses
    || List.exists (fun (f, _) -> f = None) origin_forms
  in
  let lin =
    match accesses with
    | [] -> top_itv
    | a0 :: tl -> List.fold_left (fun acc a -> itv_join acc a.a_itv) a0.a_itv tl
  in
  let abs =
    let per a =
      match a.a_form with
      | Some f -> Array.map (aff_itv fenv) (axis_forms strides f)
      | None -> Array.make n top_itv
    in
    match accesses with
    | [] -> Array.make n top_itv
    | a0 :: tl -> List.fold_left (fun acc a -> Array.map2 itv_join acc (per a)) (per a0) tl
  in
  let inexact = ref false in
  let rel =
    match anchors with
    | [] -> None
    | _ ->
        let forms =
          List.map (fun a -> (a.a_form, true)) accesses @ origin_forms
        in
        if List.exists (fun (f, _) -> f = None) forms then None
        else
          let offsets =
            List.concat_map
              (fun (f, ex) ->
                let f = Option.get f in
                List.map (fun anch -> (aff_sub f anch, ex)) anchors)
              forms
          in
          if List.exists (fun (d, _) -> not (is_const d)) offsets then None
          else begin
            let ext = Array.make n { ax_lo = 0; ax_hi = 0 } in
            List.iter
              (fun (d, ex) ->
                if not ex then inexact := true;
                let per = decompose strides d.base in
                Array.iteri
                  (fun a o ->
                    ext.(a) <- { ax_lo = min ext.(a).ax_lo o; ax_hi = max ext.(a).ax_hi o })
                  per)
              offsets;
            Some ext
          end
  in
  ( { s_rel = rel; s_abs = abs; s_lin = lin; s_indirect = indirect; s_sites = sites },
    !inexact )

let infer ?anchor ?(strides = [| 1 |]) (e : Check.env) (k : kernel) : t =
  check_strides strides;
  let fenv =
    {
      l = Check.launch e k;
      global_bufs = Hashtbl.create 8;
      arrays = Hashtbl.create 4;
      loop_ranges = Hashtbl.create 4;
      nloops = 0;
      locals = SMap.empty;
      accs = [];
      flows = [];
      track = [];
      notes = [];
    }
  in
  List.iter
    (fun p -> if p.p_kind = Global_buf then Hashtbl.replace fenv.global_bufs p.p_name ())
    k.params;
  List.iter (scan fenv ~ctx:[]) k.body;
  let accs = List.sort_uniq compare fenv.accs in
  let flows = dedup_origins fenv.flows in
  let stores_of b = List.filter (fun a -> a.a_store && a.a_buf = b) accs in
  (* the anchor must have stores and all of them affine, otherwise the
     "work-item's cell" is not well defined *)
  let qualifies b =
    match stores_of b with [] -> false | ss -> List.for_all (fun a -> a.a_form <> None) ss
  in
  let anchor_buf =
    match anchor with
    | Some b ->
        if qualifies b then Some b
        else begin
          note fenv (Fmt.str "requested anchor %s has no affine stores" b);
          None
        end
    | None ->
        if qualifies "next" then Some "next"
        else
          let stored =
            List.sort_uniq compare
              (List.filter_map (fun a -> if a.a_store then Some a.a_buf else None) accs)
          in
          (match List.filter qualifies stored with [ b ] -> Some b | _ -> None)
  in
  if anchor_buf = None then note fenv "no anchor buffer: relative extents unavailable";
  let anchors =
    match anchor_buf with
    | Some b -> List.sort_uniq compare (List.filter_map (fun a -> a.a_form) (stores_of b))
    | None -> []
  in
  let touched =
    List.sort_uniq compare
      (List.map (fun a -> a.a_buf) accs @ List.map (fun o -> o.o_buf) flows)
  in
  let bufs =
    List.map
      (fun b ->
        let reads = List.filter (fun a -> (not a.a_store) && a.a_buf = b) accs in
        let writes = stores_of b in
        let origin_forms =
          List.filter_map
            (fun o -> if o.o_buf = b then Some (o.o_form, o.o_exact) else None)
            flows
        in
        let r, rinex = side_of fenv strides ~anchors ~origin_forms reads in
        let w, winex = side_of fenv strides ~anchors ~origin_forms:[] writes in
        let exact =
          match (r.s_rel, w.s_rel) with
          | Some _, Some _ -> not (rinex || winex)
          | _ -> false
        in
        { fb_name = b; fb_read = r; fb_write = w; fb_exact = exact })
      touched
  in
  {
    fp_kernel = k.name;
    fp_anchor = anchor_buf;
    fp_strides = strides;
    fp_bufs = bufs;
    fp_notes = List.rev fenv.notes;
  }

(* -- Accessors --------------------------------------------------------- *)

let find t b = List.find_opt (fun fb -> fb.fb_name = b) t.fp_bufs
let read_rel t b = Option.bind (find t b) (fun fb -> fb.fb_read.s_rel)
let write_rel t b = Option.bind (find t b) (fun fb -> fb.fb_write.s_rel)

let read_radius t b =
  Option.map
    (fun ext ->
      let a = ext.(Array.length ext - 1) in
      max (-a.ax_lo) a.ax_hi)
    (read_rel t b)

(* -- Printing ---------------------------------------------------------- *)

let pp_axis ppf a = Fmt.pf ppf "[%d,%d]" a.ax_lo a.ax_hi

let pp_side ppf s =
  if s.s_sites = 0 then Fmt.string ppf "-"
  else
    match s.s_rel with
    | Some ext ->
        Array.iter (pp_axis ppf) ext;
        if s.s_indirect then Fmt.string ppf " +indirect"
    | None -> Fmt.pf ppf "%a%s" pp_itv s.s_lin (if s.s_indirect then " indirect" else "")

let pp ppf t =
  Fmt.pf ppf "@[<v>%s (anchor %s)"
    t.fp_kernel
    (Option.value ~default:"-" t.fp_anchor);
  List.iter
    (fun fb ->
      Fmt.pf ppf "@,  %-8s R %a  W %a%s" fb.fb_name pp_side fb.fb_read pp_side fb.fb_write
        (if fb.fb_exact then "" else " (approx)"))
    t.fp_bufs;
  List.iter (fun n -> Fmt.pf ppf "@,  note: %s" n) t.fp_notes;
  Fmt.pf ppf "@]"
