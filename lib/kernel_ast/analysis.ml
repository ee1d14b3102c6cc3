(* Static per-work-item resource analysis of a kernel AST.

   The virtual-GPU performance model is a roofline: it needs, per update,
   the global-memory traffic and the floating-point work.  Both are
   extracted from the AST itself (never hard-coded): loops multiply their
   body by the trip count; conditionals count the then-branch, i.e. the
   guarded fast path that active work-items execute (the model scales by
   the number of *active* points separately).

   Accesses are recorded per buffer, with an [indirect] flag set when the
   index expression depends on a value loaded from memory (the
   [idx = boundaryIndices[i]] gather/scatter idiom of boundary kernels).
   The performance model derates indirect traffic by a coalescing factor
   computed from the actual boundary layout, and treats small coefficient
   tables as cache-resident.

   The paper reports 45 memory accesses and 98 flops per FD-MM update and
   6 accesses / 7 flops for FI-MM (§VII-B2); the counts here are recomputed
   from the actual kernels so the model stays mechanistic. *)

open Cast

type access = {
  mutable loads : float;
  mutable stores : float;
  mutable indirect : bool;
  buf_ty : ty;
}

type t = {
  per_buffer : (string, access) Hashtbl.t;
  mutable flops : float;
  mutable iops : float;
}

type local_info = { l_ty : ty; l_tainted : bool }

type env = {
  buffer_ty : string -> ty option;
  param_value : string -> int option;
  locals : (string, local_info) Hashtbl.t;
  acc : t;
}

let create () = { per_buffer = Hashtbl.create 16; flops = 0.; iops = 0. }

let access_of env buf =
  match Hashtbl.find_opt env.acc.per_buffer buf with
  | Some a -> Some a
  | None -> (
      match env.buffer_ty buf with
      | None -> None (* private array: register traffic, not global memory *)
      | Some buf_ty ->
          let a = { loads = 0.; stores = 0.; indirect = false; buf_ty } in
          Hashtbl.replace env.acc.per_buffer buf a;
          Some a)

let env_of_kernel ?(param_value = fun _ -> None) (k : kernel) =
  let buffers =
    List.filter_map
      (fun p -> if p.p_kind = Global_buf then Some (p.p_name, p.p_ty) else None)
      k.params
  in
  let locals = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if p.p_kind = Scalar_param then
        Hashtbl.replace locals p.p_name { l_ty = p.p_ty; l_tainted = false })
    k.params;
  {
    buffer_ty = (fun n -> List.assoc_opt n buffers);
    param_value;
    locals;
    acc = create ();
  }

let eval_const env e = Cast.eval_int env.param_value (Cast.simplify e)

(* An expression is tainted when its value depends on data loaded from
   global memory; a tainted index means a gather/scatter access. *)
let rec tainted env = function
  | Int_lit _ | Real_lit _ | Global_id _ | Global_size _ -> false
  | Var v -> (
      match Hashtbl.find_opt env.locals v with Some l -> l.l_tainted | None -> false)
  | Load (_, _) -> true
  | Unop (_, a) -> tainted env a
  | Ternary (c, a, b) -> tainted env c || tainted env a || tainted env b
  | Call (_, args) -> List.exists (tainted env) args
  | Binop (_, a, b) -> tainted env a || tainted env b

let rec expr_is_real env = function
  | Real_lit _ -> true
  | Int_lit _ | Global_id _ | Global_size _ -> false
  | Var v -> (
      match Hashtbl.find_opt env.locals v with Some l -> l.l_ty = Real | None -> false)
  | Load (b, _) -> (
      match env.buffer_ty b with
      | Some t -> t = Real
      | None -> (
          match Hashtbl.find_opt env.locals b with
          | Some l -> l.l_ty = Real
          | None -> true))
  | Unop (To_real, _) -> true
  | Unop (To_int, _) -> false
  | Unop (_, a) -> expr_is_real env a
  | Ternary (_, a, b) -> expr_is_real env a || expr_is_real env b
  | Call (_, _) -> true
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> expr_is_real env a || expr_is_real env b
  | Binop (_, _, _) -> false

(* [mult] is the product of the trip counts of enclosing loops. *)
let rec count_expr env ~mult e =
  match e with
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> ()
  | Load (b, i) ->
      count_expr env ~mult i;
      (match access_of env b with
      | None -> ()
      | Some a ->
          a.loads <- a.loads +. mult;
          if tainted env i then a.indirect <- true)
  | Unop (_, a) -> count_expr env ~mult a
  | Ternary (c, a, b) ->
      (* A select executes both sides on a GPU; count both. *)
      count_expr env ~mult c;
      count_expr env ~mult a;
      count_expr env ~mult b
  | Call (_, args) ->
      env.acc.flops <- env.acc.flops +. mult;
      List.iter (count_expr env ~mult) args
  | Binop (op, a, b) ->
      count_expr env ~mult a;
      count_expr env ~mult b;
      let is_real =
        match op with
        | Add | Sub | Mul | Div -> expr_is_real env a || expr_is_real env b
        | _ -> false
      in
      if is_real then env.acc.flops <- env.acc.flops +. mult
      else env.acc.iops <- env.acc.iops +. mult

let rec count_stmt env ~mult s =
  match s with
  | Comment _ -> ()
  | Decl_arr (t, v, _) -> Hashtbl.replace env.locals v { l_ty = t; l_tainted = false }
  | Decl (t, v, body) ->
      let l_tainted = match body with None -> false | Some e -> tainted env e in
      Hashtbl.replace env.locals v { l_ty = t; l_tainted };
      (match body with None -> () | Some e -> count_expr env ~mult e)
  | Assign (v, e) ->
      (match Hashtbl.find_opt env.locals v with
      | Some l when not l.l_tainted ->
          if tainted env e then Hashtbl.replace env.locals v { l with l_tainted = true }
      | _ -> ());
      count_expr env ~mult e
  | Store (b, i, e) ->
      count_expr env ~mult i;
      count_expr env ~mult e;
      (match access_of env b with
      | None -> ()
      | Some a ->
          a.stores <- a.stores +. mult;
          if tainted env i then a.indirect <- true)
  | If (c, t, _f) ->
      count_expr env ~mult c;
      List.iter (count_stmt env ~mult) t
  | For l -> (
      count_expr env ~mult l.init;
      count_expr env ~mult l.bound;
      let trip =
        match (eval_const env l.init, eval_const env l.bound, eval_const env l.step) with
        | Some i, Some b, Some s when s > 0 -> max 0 ((b - i + s - 1) / s)
        | _ -> 1 (* unknown bound: assume one iteration *)
      in
      (* The loop variable itself is never tainted. *)
      Hashtbl.replace env.locals l.var { l_ty = Int; l_tainted = false };
      List.iter (count_stmt env ~mult:(mult *. float_of_int trip)) l.body)

(* Per-work-item resource usage of [k].  [param_value] resolves scalar
   parameters that appear as loop bounds (e.g. the number of ODE branches
   when it is not baked in as a literal). *)
let kernel_counts ?param_value (k : kernel) =
  let env = env_of_kernel ?param_value k in
  List.iter (count_stmt env ~mult:1.) k.body;
  env.acc

(* Aggregate helpers over a per-buffer analysis. *)

let fold_buffers t f init =
  Hashtbl.fold (fun name a acc -> f acc name a) t.per_buffer init

let total_loads t = fold_buffers t (fun acc _ a -> acc +. a.loads) 0.
let total_stores t = fold_buffers t (fun acc _ a -> acc +. a.stores) 0.
let global_accesses t = total_loads t +. total_stores t

let elem_bytes ~precision = function
  | Real -> ( match precision with Single -> 4. | Double -> 8.)
  | Int -> 4.

(* Total bytes of global traffic per work-item, ignoring caching effects
   (the performance model refines this per buffer). *)
let bytes ~precision t =
  fold_buffers t
    (fun acc _ a -> acc +. ((a.loads +. a.stores) *. elem_bytes ~precision a.buf_ty))
    0.

let pp ppf t =
  Fmt.pf ppf "flops=%.0f iops=%.0f accesses=%.0f" t.flops t.iops (global_accesses t);
  fold_buffers t
    (fun () name a ->
      Fmt.pf ppf "@ %s: loads=%.1f stores=%.1f%s" name a.loads a.stores
        (if a.indirect then " (indirect)" else ""))
    ()
