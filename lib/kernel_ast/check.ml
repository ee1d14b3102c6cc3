(* Static race/bounds verifier over kernel ASTs.

   Two analyses run over one abstract traversal of the kernel body:

   - every integer expression is abstracted, by [Domain.eval] (the
     transfer function Footprint shares), to an interval (from NDRange
     extents, scalar-parameter values and loop ranges) and, when
     possible, a symbolic affine form [base + sum coeff_i * var_i] whose
     variables are [get_global_id] dimensions and loop counters;
   - every load/store records its abstracted index against the accessed
     buffer, loads through [Domain.eval]'s [load] hook.

   Race freedom of a buffer's stores is then an injectivity question on
   the affine forms: if the combined form over (gid dims + loop
   counters) is injective on its box — proved by a mixed-radix stride
   argument — no two distinct work-items can write the same cell.
   Bounds safety is interval containment in [0, extent).

   [Unsafe] is deliberately harder to earn than [Unproven]: a candidate
   violation is only reported as [Unsafe] after a concrete partial
   evaluator (loads opaque, guards must evaluate) re-executes the
   kernel for the candidate work-items and reproduces the collision or
   out-of-bounds access.  Everything the analysis cannot decide — in
   particular the indirect [next[bidx[i]]] scatters of the boundary
   kernels — is [Unproven] and covered at runtime by the shadow-memory
   sanitizer. *)

open Cast
open Domain
module SMap = Map.Make (String)

(* -- Public report types ---------------------------------------------- *)

type witness = {
  w_buf : string;
  w_index : int;
  w_gids : (int * int * int) list;
  w_detail : string;
}

type verdict =
  | Safe
  | Unsafe of witness
  | Unproven of string

type buf_report = {
  b_name : string;
  b_kind : [ `Global | `Private ];
  b_elems : int option;
  b_race : verdict;
  b_bounds : verdict;
}

type report = {
  r_kernel : string;
  r_global : int option array;
  r_bufs : buf_report list;
}

type env = {
  param_value : string -> int option;
  buffer_elems : string -> int option;
  global : int list option;
}

let env ?(param_value = fun _ -> None) ?(buffer_elems = fun _ -> None) ?global () =
  { param_value; buffer_elems; global }

(* -- Analysis state --------------------------------------------------- *)

type access = { ac_store : bool; ac_v : absval }

type cenv = {
  e : env;
  l : Domain.launch;
  global_bufs : (string, unit) Hashtbl.t;
  private_arrs : (string, int) Hashtbl.t;
  accesses : (string, access list ref) Hashtbl.t;
  loop_ranges : (int, itv) Hashtbl.t;
  mutable nloops : int;
  mutable locals : absval SMap.t;
}

let record cenv buf ~store v =
  match Hashtbl.find_opt cenv.accesses buf with
  | Some r -> r := { ac_store = store; ac_v = v } :: !r
  | None ->
      (* a name that is neither a global buffer nor a declared private
         array: malformed kernel; the interpreter reports it *)
      ()

(* -- Abstract evaluation ---------------------------------------------- *)

let eval cenv expr =
  Domain.eval cenv.l
    ~var:(fun v -> SMap.find_opt v cenv.locals)
    ~load:(fun b iv -> record cenv b ~store:false iv)
    expr

let rec scan cenv (s : stmt) =
  match s with
  | Comment _ -> ()
  | Decl_arr (_, v, n) ->
      Hashtbl.replace cenv.private_arrs v n;
      if not (Hashtbl.mem cenv.accesses v) then Hashtbl.replace cenv.accesses v (ref [])
  | Decl (ty, v, init) ->
      let av =
        match (ty, init) with
        | _, Some e -> eval cenv e
        | Int, None -> known 0
        | Real, None -> top
      in
      cenv.locals <- SMap.add v av cenv.locals
  | Assign (v, e) -> cenv.locals <- SMap.add v (eval cenv e) cenv.locals
  | Store (b, i, e) ->
      let iv = eval cenv i in
      let _ = eval cenv e in
      record cenv b ~store:true iv
  | If (c, t, f) ->
      let _ = eval cenv c in
      let saved = cenv.locals in
      List.iter (scan cenv) t;
      let after_t = cenv.locals in
      cenv.locals <- saved;
      List.iter (scan cenv) f;
      let after_f = cenv.locals in
      (* join the branch environments *)
      cenv.locals <-
        SMap.merge
          (fun _ a b ->
            match (a, b) with Some x, Some y -> Some (join x y) | _ -> Some top)
          after_t after_f
  | For l ->
      let init_v = eval cenv l.init in
      let bound_v = eval cenv l.bound in
      let _ = eval cenv l.step in
      let id = cenv.nloops in
      cenv.nloops <- id + 1;
      let range =
        {
          lo = init_v.v_itv.lo;
          hi = Option.map (fun h -> h - 1) bound_v.v_itv.hi;
        }
      in
      Hashtbl.replace cenv.loop_ranges id
        (if init_v.v_tainted || bound_v.v_tainted then top_itv else range);
      (* widen every variable assigned in the body before analysing it,
         so the single abstract pass is sound for all iterations *)
      List.iter
        (fun v -> cenv.locals <- SMap.add v top cenv.locals)
        (assigned_vars [] l.body);
      cenv.locals <-
        SMap.add l.var
          { v_itv = range; v_aff = Some (aff_of_term (Tloop id)); v_tainted = false }
          cenv.locals;
      List.iter (scan cenv) l.body

(* -- Concrete partial evaluation (witness confirmation) --------------- *)

(* Re-execute the kernel for one concrete work-item with loads opaque:
   scalar parameters resolve through the environment, private arrays
   hold concrete values, global loads return Unknown.  Every global
   access with a computable index is recorded.  [Bail] aborts witness
   confirmation whenever control flow or a tracked index depends on an
   unknown value — the result is only ever used to *confirm* a
   violation, so bailing out is sound (the verdict stays [Unproven]). *)

exception Bail

type cval =
  | Ki of int
  | Kr of float
  | Kunknown

type caccess = { c_buf : string; c_idx : int; c_store : bool }

let builtin_c (f : builtin) (args : float list) =
  match (f, args) with
  | Sqrt, [ x ] -> sqrt x
  | Fabs, [ x ] -> Float.abs x
  | Exp, [ x ] -> exp x
  | Log, [ x ] -> log x
  | Sin, [ x ] -> sin x
  | Cos, [ x ] -> cos x
  | Floor, [ x ] -> Float.floor x
  | Fmin, [ x; y ] -> Float.min x y
  | Fmax, [ x; y ] -> Float.max x y
  | _ -> raise Bail

type crun = {
  ce : env;
  cgsize : int array;
  cgid : int array;
  scalars : (string, cval) Hashtbl.t;
  arrays : (string, cval array) Hashtbl.t;
  cglobals : (string, unit) Hashtbl.t;
  mutable recorded : caccess list;
  mutable budget : int;
}

let as_int_c = function Ki i -> Some i | Kr r -> Some (int_of_float r) | Kunknown -> None
let as_real_c = function Kr r -> Some r | Ki i -> Some (float_of_int i) | Kunknown -> None

let rec ceval r (expr : expr) : cval =
  match expr with
  | Int_lit n -> Ki n
  | Real_lit x -> Kr x
  | Global_id d -> Ki r.cgid.(d)
  | Global_size d -> Ki r.cgsize.(d)
  | Var v -> (
      match Hashtbl.find_opt r.scalars v with
      | Some c -> c
      | None -> ( match r.ce.param_value v with Some n -> Ki n | None -> Kunknown))
  | Load (b, i) -> (
      let idx = as_int_c (ceval r i) in
      match Hashtbl.find_opt r.arrays b with
      | Some a -> (
          match idx with
          | Some k when k >= 0 && k < Array.length a -> a.(k)
          | Some k ->
              r.recorded <- { c_buf = b; c_idx = k; c_store = false } :: r.recorded;
              Kunknown
          | None -> raise Bail)
      | None ->
          (if Hashtbl.mem r.cglobals b then
             match idx with
             | Some k -> r.recorded <- { c_buf = b; c_idx = k; c_store = false } :: r.recorded
             | None -> raise Bail);
          Kunknown)
  | Unop (op, a) -> (
      let v = ceval r a in
      match (op, v) with
      | _, Kunknown -> Kunknown
      | Neg, Ki i -> Ki (-i)
      | Neg, Kr x -> Kr (-.x)
      | Not, _ -> ( match as_int_c v with Some i -> Ki (if i = 0 then 1 else 0) | None -> Kunknown)
      | To_real, _ -> ( match as_real_c v with Some x -> Kr x | None -> Kunknown)
      | To_int, _ -> ( match as_int_c v with Some i -> Ki i | None -> Kunknown))
  | Ternary (c, a, b) -> (
      match as_int_c (ceval r c) with
      | Some 0 -> ceval r b
      | Some _ -> ceval r a
      | None -> raise Bail)
  | Call (f, args) -> (
      let vs = List.map (fun a -> as_real_c (ceval r a)) args in
      if List.exists Option.is_none vs then Kunknown
      else Kr (builtin_c f (List.map Option.get vs)))
  | Binop (op, a, b) -> cbinop op (ceval r a) (ceval r b)

and cbinop op va vb =
  let arith fi fr =
    match (va, vb) with
    | Ki x, Ki y -> Ki (fi x y)
    | Kunknown, _ | _, Kunknown -> Kunknown
    | _ -> (
        match (as_real_c va, as_real_c vb) with
        | Some x, Some y -> Kr (fr x y)
        | _ -> Kunknown)
  in
  let compare cmp =
    match (as_real_c va, as_real_c vb) with
    | Some x, Some y -> Ki (if cmp (Stdlib.compare x y) 0 then 1 else 0)
    | _ -> Kunknown
  in
  match op with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
  | Div -> ( match vb with Ki 0 -> Kunknown | _ -> arith ( / ) ( /. ))
  | Mod -> ( match vb with Ki 0 -> Kunknown | _ -> arith (fun x y -> x mod y) Float.rem)
  | Eq -> compare ( = )
  | Ne -> compare ( <> )
  | Lt -> compare ( < )
  | Le -> compare ( <= )
  | Gt -> compare ( > )
  | Ge -> compare ( >= )
  | And -> (
      match (as_int_c va, as_int_c vb) with
      | Some 0, _ | _, Some 0 -> Ki 0
      | Some _, Some _ -> Ki 1
      | _ -> Kunknown)
  | Or -> (
      match (as_int_c va, as_int_c vb) with
      | Some x, Some y when x = 0 && y = 0 -> Ki 0
      | Some x, _ when x <> 0 -> Ki 1
      | _, Some y when y <> 0 -> Ki 1
      | _ -> Kunknown)
  | Shr -> ( match (va, vb) with Ki x, Ki y -> Ki (x asr y) | _ -> Kunknown)
  | BAnd -> ( match (va, vb) with Ki x, Ki y -> Ki (x land y) | _ -> Kunknown)

let rec cexec r (s : stmt) =
  match s with
  | Comment _ -> ()
  | Decl (ty, v, init) ->
      let value =
        match init with
        | Some e -> ceval r e
        | None -> ( match ty with Int -> Ki 0 | Real -> Kr 0.)
      in
      Hashtbl.replace r.scalars v value
  | Decl_arr (ty, v, n) ->
      Hashtbl.replace r.arrays v
        (Array.make n (match ty with Int -> Ki 0 | Real -> Kr 0.))
  | Assign (v, e) -> Hashtbl.replace r.scalars v (ceval r e)
  | Store (b, i, e) -> (
      let idx = as_int_c (ceval r i) in
      let v = ceval r e in
      match Hashtbl.find_opt r.arrays b with
      | Some a -> (
          match idx with
          | Some k when k >= 0 && k < Array.length a -> a.(k) <- v
          | Some k -> r.recorded <- { c_buf = b; c_idx = k; c_store = true } :: r.recorded
          | None -> raise Bail)
      | None -> (
          if Hashtbl.mem r.cglobals b then
            match idx with
            | Some k -> r.recorded <- { c_buf = b; c_idx = k; c_store = true } :: r.recorded
            | None -> raise Bail))
  | If (c, t, f) -> (
      match as_int_c (ceval r c) with
      | Some 0 -> List.iter (cexec r) f
      | Some _ -> List.iter (cexec r) t
      | None -> raise Bail)
  | For l ->
      let get e = match as_int_c (ceval r e) with Some n -> n | None -> raise Bail in
      let i = ref (get l.init) in
      Hashtbl.replace r.scalars l.var (Ki !i);
      while !i < get l.bound do
        r.budget <- r.budget - 1;
        if r.budget <= 0 then raise Bail;
        Hashtbl.replace r.scalars l.var (Ki !i);
        List.iter (cexec r) l.body;
        i := !i + get l.step
      done

(* Run [k]'s body for one work-item and return its recorded accesses;
   [None] when the execution depends on unknown data. *)
let crun_workitem e (k : kernel) ~gsize ~gid : caccess list option =
  let r =
    {
      ce = e;
      cgsize = gsize;
      cgid = gid;
      scalars = Hashtbl.create 16;
      arrays = Hashtbl.create 4;
      cglobals = Hashtbl.create 8;
      recorded = [];
      budget = 4096;
    }
  in
  List.iter (fun p -> if p.p_kind = Global_buf then Hashtbl.replace r.cglobals p.p_name ()) k.params;
  match List.iter (cexec r) k.body with
  | () -> Some (List.rev r.recorded)
  | exception Bail -> None

(* -- Race analysis ---------------------------------------------------- *)

type dim = { d_coeff : int; d_extent : int; d_gid : int option }
(* one injectivity dimension: |coefficient|, index range (max - min),
   and the gid dimension it came from (None for loop counters) *)

(* The NDRange, when every extent is statically known. *)
let known_global cenv =
  if Array.exists Option.is_none cenv.l.l_global then None
  else Some (Array.map Option.get cenv.l.l_global)

(* The loop-counter dimensions of a store form ([Exit] on a loop range
   that is not statically known).  Parameters are launch-uniform: the
   same value for every work-item, irrelevant to injectivity. *)
let loop_dims cenv (form : aff) =
  List.filter_map
    (fun (t, c) ->
      match t with
      | Tgid _ | Tparam _ -> None
      | Tloop id -> (
          match Hashtbl.find_opt cenv.loop_ranges id with
          | Some { lo = Some l; hi = Some h } ->
              Some { d_coeff = abs c; d_extent = max 0 (h - l); d_gid = None }
          | _ -> raise Exit))
    form.coeffs

(* Mixed-radix injectivity: in ascending coefficient order, every
   coefficient exceeds the reach of all smaller dimensions. *)
let radix_ok dims =
  List.sort (fun a b -> compare a.d_coeff b.d_coeff) dims
  |> List.fold_left
       (fun acc d ->
         match acc with
         | Some reach when d.d_coeff > reach -> Some (reach + (d.d_coeff * d.d_extent))
         | _ -> None)
       (Some 0)
  |> Option.is_some

let confirm_race e k ~gsize buf (g1 : int array) (g2 : int array) : witness option =
  match (crun_workitem e k ~gsize ~gid:g1, crun_workitem e k ~gsize ~gid:g2) with
  | Some a1, Some a2 ->
      let stores l =
        List.filter_map (fun a -> if a.c_store && a.c_buf = buf then Some a.c_idx else None) l
      in
      let s2 = stores a2 in
      (match List.filter (fun i -> List.mem i s2) (stores a1) with
      | idx :: _ ->
          let t a = (a.(0), a.(1), a.(2)) in
          Some
            {
              w_buf = buf;
              w_index = idx;
              w_gids = [ t g1; t g2 ];
              w_detail =
                Printf.sprintf "work-items %s and %s both store %s[%d]"
                  (Printf.sprintf "(%d,%d,%d)" g1.(0) g1.(1) g1.(2))
                  (Printf.sprintf "(%d,%d,%d)" g2.(0) g2.(1) g2.(2))
                  buf idx;
            }
      | [] -> None)
  | _ -> None

(* Candidate work-item pairs worth testing for a collision on [form]:
   pairs differing only in a gid dimension the form ignores, plus a
   greedy attempt at realising one coefficient as a combination of
   lower-significance gid coefficients. *)
let candidate_pairs ~gsize (form : aff) =
  let unit d = Array.init 3 (fun i -> if i = d then 1 else 0) in
  let zeros = Array.make 3 0 in
  let coeff d = Option.value ~default:0 (List.assoc_opt (Tgid d) form.coeffs) in
  let active d = gsize.(d) > 1 in
  let ignored =
    List.filter_map
      (fun d -> if active d && coeff d = 0 then Some (zeros, unit d) else None)
      [ 0; 1; 2 ]
  in
  let greedy =
    (* realise coeff(k) = sum over lower dims: gid pair (unit k, delta) *)
    List.filter_map
      (fun kd ->
        let ck = coeff kd in
        if not (active kd) || ck = 0 then None
        else
          let lower =
            List.filter (fun d -> d <> kd && active d && coeff d <> 0) [ 0; 1; 2 ]
            |> List.sort (fun a b -> compare (abs (coeff b)) (abs (coeff a)))
          in
          let delta = Array.make 3 0 in
          let target = ref (abs ck) in
          List.iter
            (fun d ->
              let c = abs (coeff d) in
              let steps = min (!target / c) (gsize.(d) - 1) in
              delta.(d) <- steps;
              target := !target - (steps * c))
            lower;
          if !target = 0 && Array.exists (fun x -> x > 0) delta then Some (unit kd, delta)
          else None)
      [ 0; 1; 2 ]
  in
  ignored @ greedy

let race_verdict cenv e (k : kernel) buf (stores : absval list) : verdict =
  if stores = [] then Safe
  else if List.exists (fun s -> s.v_tainted) stores then
    Unproven "store index depends on loaded data (indirect scatter)"
  else if List.exists (fun s -> s.v_aff = None) stores then
    Unproven "store index is not affine in work-item ids"
  else
    let forms = List.sort_uniq compare (List.map (fun s -> Option.get s.v_aff) stores) in
    (* Several store forms sharing the same gid/loop coefficients and
       uniformly spaced bases (the shape loop unrolling produces from a
       single [b*MB+i] store) merge into one form plus a pseudo loop
       dimension ranging over the bases: injectivity over the combined
       box is stronger than race-freedom, which only needs distinct
       work-items to stay disjoint. *)
    let merged =
      match forms with
      | [] | [ _ ] -> None
      | f0 :: rest when List.for_all (fun f -> f.coeffs = f0.coeffs) rest ->
          let bases = List.map (fun f -> f.base) forms |> List.sort compare in
          let spacings =
            List.map2 (fun a b -> b - a)
              (List.filteri (fun i _ -> i < List.length bases - 1) bases)
              (List.tl bases)
          in
          (match spacings with
          | s :: _ when s > 0 && List.for_all (( = ) s) spacings ->
              Some (f0, [ { d_coeff = s; d_extent = List.length bases - 1; d_gid = None } ])
          | _ -> None)
      | _ -> None
    in
    let single =
      match (forms, merged) with
      | [ form ], _ -> Some (form, [])
      | _, Some (form, extra) -> Some (form, extra)
      | _ -> None
    in
    match single with
    | None -> Unproven "multiple distinct store index shapes"
    | Some (form, extra_dims) -> (
        match known_global cenv with
        | None -> Unproven "NDRange extent not statically known"
        | Some gsize ->
            (* every dimension of the combined (gid + loop) box; an
               active NDRange dimension the index ignores keeps a
               zero-coefficient marker, so the radix argument fails and
               the candidate path runs *)
            let dims_exn () =
              let gid_dims =
                List.filter_map
                  (fun d ->
                    if gsize.(d) <= 1 then None
                    else
                      Some
                        {
                          d_coeff = abs (aff_coeff (Tgid d) form);
                          d_extent = gsize.(d) - 1;
                          d_gid = Some d;
                        })
                  [ 0; 1; 2 ]
              in
              gid_dims @ loop_dims cenv form @ extra_dims
            in
            (match dims_exn () with
            | exception Exit -> Unproven "loop range not statically known"
            | dims ->
                let zero_gid = List.find_opt (fun d -> d.d_gid <> None && d.d_coeff = 0) dims in
                if zero_gid = None && radix_ok dims then Safe
                else
                  (* candidate collision: only claim Unsafe when a pair of
                     work-items is concretely confirmed to collide *)
                  let pairs = candidate_pairs ~gsize form in
                  let rec try_pairs = function
                    | [] ->
                        Unproven
                          (if zero_gid <> None then
                             "store index ignores an active NDRange dimension \
                              (collision not concretely confirmed)"
                           else "store index strides may collide across work-items")
                    | (g1, g2) :: rest -> (
                        match confirm_race e k ~gsize buf g1 g2 with
                        | Some w -> Unsafe w
                        | None -> try_pairs rest)
                  in
                  try_pairs pairs))

(* -- Bounds analysis -------------------------------------------------- *)

(* The gid that drives an affine index to its maximum (resp. minimum). *)
let extremal_gid ~gsize (form : aff) ~maximise =
  Array.init 3 (fun d ->
      match List.assoc_opt (Tgid d) form.coeffs with
      | Some c when (c > 0) = maximise && gsize.(d) > 0 -> gsize.(d) - 1
      | _ -> 0)

let confirm_oob e k ~gsize buf ~elems (gid : int array) : witness option =
  match crun_workitem e k ~gsize ~gid with
  | None -> None
  | Some accs -> (
      match
        List.find_opt (fun a -> a.c_buf = buf && (a.c_idx < 0 || a.c_idx >= elems)) accs
      with
      | Some a ->
          Some
            {
              w_buf = buf;
              w_index = a.c_idx;
              w_gids = [ (gid.(0), gid.(1), gid.(2)) ];
              w_detail =
                Printf.sprintf "work-item (%d,%d,%d) accesses %s[%d], extent %d" gid.(0)
                  gid.(1) gid.(2) buf a.c_idx elems;
            }
      | None -> None)

let bounds_verdict cenv e (k : kernel) buf ~elems (accs : access list) : verdict =
  match elems with
  | None -> if accs = [] then Safe else Unproven "buffer extent not known"
  | Some n ->
      let bad =
        List.filter (fun a -> not (itv_within a.ac_v.v_itv ~lo:0 ~hi:(n - 1))) accs
      in
      match known_global cenv with
      | _ when bad = [] -> Safe
      | None -> Unproven "NDRange extent not statically known"
      | Some gsize ->
          (* try to concretely realise a violation at the work-items that
             extremise some affine out-of-range index *)
          let candidates =
            List.concat_map
              (fun a ->
                match a.ac_v.v_aff with
                | Some f ->
                    [
                      extremal_gid ~gsize f ~maximise:true;
                      extremal_gid ~gsize f ~maximise:false;
                    ]
                | None -> [])
              bad
            @ [ Array.make 3 0 ]
          in
          let rec try_gids = function
            | [] ->
                let a = List.hd bad in
                Unproven
                  (if a.ac_v.v_tainted then
                     "index depends on loaded data; extent not statically checkable"
                   else
                     Fmt.str "index interval %a not contained in [0, %d)" pp_itv a.ac_v.v_itv
                       n)
            | gid :: rest -> (
                match confirm_oob e k ~gsize buf ~elems:n gid with
                | Some w -> Unsafe w
                | None -> try_gids rest)
          in
          try_gids candidates

(* -- Driver ----------------------------------------------------------- *)

let launch (e : env) (k : kernel) : Domain.launch =
  let gs = Array.make 3 (Some 1) in
  (match e.global with
  | Some l ->
      check_ndrange k ~global:l;
      List.iteri (fun d n -> if d < 3 then gs.(d) <- Some n) l
  | None ->
      let dims = launch_dims k in
      List.iteri
        (fun d expr ->
          if d < dims then gs.(d) <- Cast.eval_int e.param_value (Cast.simplify expr))
        k.global_size);
  { l_global = gs; l_param = e.param_value }

let analyse (e : env) (k : kernel) =
  let cenv =
    {
      e;
      l = launch e k;
      global_bufs = Hashtbl.create 8;
      private_arrs = Hashtbl.create 4;
      accesses = Hashtbl.create 16;
      loop_ranges = Hashtbl.create 4;
      nloops = 0;
      locals = SMap.empty;
    }
  in
  List.iter
    (fun p ->
      if p.p_kind = Global_buf then begin
        Hashtbl.replace cenv.global_bufs p.p_name ();
        Hashtbl.replace cenv.accesses p.p_name (ref [])
      end)
    k.params;
  List.iter (scan cenv) k.body;
  cenv

let check (e : env) (k : kernel) : report =
  let cenv = analyse e k in
  let buf_names =
    Hashtbl.fold (fun n _ acc -> n :: acc) cenv.accesses [] |> List.sort compare
  in
  let bufs =
    List.map
      (fun name ->
        let accs = List.rev !(Hashtbl.find cenv.accesses name) in
        let is_global = Hashtbl.mem cenv.global_bufs name in
        let elems =
          if is_global then e.buffer_elems name else Hashtbl.find_opt cenv.private_arrs name
        in
        let stores = List.filter_map (fun a -> if a.ac_store then Some a.ac_v else None) accs in
        let race =
          if is_global then race_verdict cenv e k name stores
          else Safe (* private arrays are per-work-item: no cross-item races *)
        in
        {
          b_name = name;
          b_kind = (if is_global then `Global else `Private);
          b_elems = elems;
          b_race = race;
          b_bounds = bounds_verdict cenv e k name ~elems accs;
        })
      buf_names
  in
  { r_kernel = k.name; r_global = cenv.l.l_global; r_bufs = bufs }

let ok r =
  List.for_all
       (fun b ->
         (match b.b_race with Unsafe _ -> false | _ -> true)
         && match b.b_bounds with Unsafe _ -> false | _ -> true)
       r.r_bufs

let fully_proven r =
  List.for_all (fun b -> b.b_race = Safe && b.b_bounds = Safe) r.r_bufs

let unsafe_bufs r =
  List.filter
    (fun b ->
      (match b.b_race with Unsafe _ -> true | _ -> false)
      || match b.b_bounds with Unsafe _ -> true | _ -> false)
    r.r_bufs

(* -- Printing --------------------------------------------------------- *)

let pp_verdict ppf = function
  | Safe -> Fmt.string ppf "safe"
  | Unproven reason -> Fmt.pf ppf "unproven (%s)" reason
  | Unsafe w -> Fmt.pf ppf "UNSAFE: %s" w.w_detail

let pp_report ppf (r : report) =
  let gs =
    String.concat "x"
      (Array.to_list
         (Array.map (function Some n -> string_of_int n | None -> "?") r.r_global))
  in
  Fmt.pf ppf "kernel %s (NDRange %s)@." r.r_kernel gs;
  List.iter
    (fun b ->
      Fmt.pf ppf "  %-10s %-7s %-12s race: %a@.  %-10s %-7s %-12s bounds: %a@." b.b_name
        (match b.b_kind with `Global -> "global" | `Private -> "private")
        (match b.b_elems with Some n -> Printf.sprintf "[%d]" n | None -> "[?]")
        pp_verdict b.b_race "" "" "" pp_verdict b.b_bounds)
    r.r_bufs
