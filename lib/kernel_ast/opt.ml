(* Kernel-AST optimizer pipeline.

   Runs after code generation and before interpretation / C emission.
   The interpreter pays for every AST node on the hot path; for compiled
   C, as for a GPU driver compiler, the same rewrites reduce the work
   the compiler must rediscover per build.

   Pass order (see ARCHITECTURE.md):

     1. fold      — [Cast.simplify_kernel]: constant folding, algebraic
                    identities, bit-exact strength reduction.  Running it
                    first canonicalises expressions so structurally equal
                    computations actually compare equal for CSE.
     2. unroll    — full unrolling of constant-trip loops of at most
                    [unroll_limit] iterations (the FD-MM per-branch ODE
                    loops, trip count MB): removes the per-iteration
                    bound/step/update overhead and turns the loop index
                    into a literal, exposing more folding and CSE.  Body
                    locals are alpha-renamed per copy so the splice stays
                    a valid C block.
     3. cse       — per-block common-subexpression elimination: repeated
                    pure expressions (above all the linearised stencil
                    index arithmetic) are hoisted into fresh scalar
                    declarations before their first use.
     4. licm      — loop-invariant code motion: pure expressions whose
                    free variables are untouched by a [For] body move in
                    front of the loop (innermost loops first, so an
                    expression invariant at several depths migrates all
                    the way out).  CSE runs before LICM so that a
                    subexpression shared by several loop iterations is
                    already a single named computation when LICM looks
                    for invariants.
     5. fold      — again, to clean up constants exposed by the rewrites.
     6. dce       — dead-store/dead-declaration elimination to fixpoint:
                    locals that are never read disappear together with
                    their assignments.

   Purity rules that gate hoisting (CSE and LICM share them):
   - no [Load]: memory may be written between occurrences (and between
     a loop entry and a use), so loads never move;
   - no [Div]/[Mod] whose divisor is not a non-zero literal: hoisting
     evaluates the expression unconditionally, and a division that was
     guarded by an [If] (or by a zero-trip loop) must not start
     trapping;
   - every free variable must be in scope at the insertion point and
     never assigned inside the region the expression moves over.

   Every pass is semantics-preserving bit-for-bit; the test suite
   validates optimized kernels differentially against the unoptimized
   ones, on the interpreter for random kernels and on both engines for
   the acoustics schemes. *)

open Cast

type report = {
  nodes_before : int;
  nodes_after : int;
  cse_fired : int;        (* expressions hoisted into CSE temporaries *)
  licm_hoisted : int;     (* expressions moved out of loops *)
  unrolled : int;         (* constant-trip loops fully unrolled *)
  strength_reduced : int; (* shift/mask ops standing in for div/mod *)
  dead_removed : int;     (* dead declarations and assignments deleted *)
}

let pp_report ppf r =
  Fmt.pf ppf "nodes %d->%d, cse %d, licm %d, unroll %d, strength %d, dce %d" r.nodes_before
    r.nodes_after r.cse_fired r.licm_hoisted r.unrolled r.strength_reduced r.dead_removed

module StrMap = Map.Make (String)
module StrSet = Set.Make (String)

(* -- Structural measures -------------------------------------------- *)

let rec expr_nodes = function
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> 1
  | Load (_, i) -> 1 + expr_nodes i
  | Unop (_, a) -> 1 + expr_nodes a
  | Binop (_, a, b) -> 1 + expr_nodes a + expr_nodes b
  | Ternary (c, a, b) -> 1 + expr_nodes c + expr_nodes a + expr_nodes b
  | Call (_, args) -> List.fold_left (fun n a -> n + expr_nodes a) 1 args

let rec stmt_nodes = function
  | Comment _ | Decl (_, _, None) | Decl_arr _ -> 1
  | Decl (_, _, Some e) | Assign (_, e) -> 1 + expr_nodes e
  | Store (_, i, e) -> 1 + expr_nodes i + expr_nodes e
  | If (c, t, f) -> 1 + expr_nodes c + body_nodes t + body_nodes f
  | For l ->
      1 + expr_nodes l.init + expr_nodes l.bound + expr_nodes l.step + body_nodes l.body

and body_nodes b = List.fold_left (fun n s -> n + stmt_nodes s) 0 b

let kernel_nodes (k : kernel) =
  body_nodes k.body + List.fold_left (fun n e -> n + expr_nodes e) 0 k.global_size

(* -- Expression predicates ------------------------------------------ *)

let rec iter_sub f e =
  f e;
  match e with
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> ()
  | Load (_, i) -> iter_sub f i
  | Unop (_, a) -> iter_sub f a
  | Binop (_, a, b) ->
      iter_sub f a;
      iter_sub f b
  | Ternary (c, a, b) ->
      iter_sub f c;
      iter_sub f a;
      iter_sub f b
  | Call (_, args) -> List.iter (iter_sub f) args

let rec expr_vars acc = function
  | Var v -> StrSet.add v acc
  | Int_lit _ | Real_lit _ | Global_id _ | Global_size _ -> acc
  | Load (b, i) -> expr_vars (StrSet.add b acc) i
  | Unop (_, a) -> expr_vars acc a
  | Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Ternary (c, a, b) -> expr_vars (expr_vars (expr_vars acc c) a) b
  | Call (_, args) -> List.fold_left expr_vars acc args

(* Safe to evaluate earlier (and possibly unconditionally) than where it
   occurs: no loads, and no division that could start trapping. *)
let rec hoistable = function
  | Load _ -> false
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> true
  | Unop (_, a) -> hoistable a
  | Binop ((Div | Mod), a, b) ->
      hoistable a && hoistable b
      && (match b with Int_lit n -> n <> 0 | Real_lit r -> r <> 0. | _ -> false)
  | Binop (_, a, b) -> hoistable a && hoistable b
  | Ternary (c, a, b) -> hoistable c && hoistable a && hoistable b
  | Call (_, args) -> List.for_all hoistable args

(* Worth naming: a compound expression of at least three nodes.  Leaves
   and loads are never candidates. *)
let candidate = function
  | (Binop _ | Unop _ | Ternary _ | Call _) as e -> expr_nodes e >= 3 && hoistable e
  | _ -> false

(* Static type of a hoistable expression under [tenv] (declared scalars
   and parameters), by C promotion rules as [Native_c] renders them;
   [None] when a variable is out of scope. *)
let rec ty_of tenv = function
  | Int_lit _ | Global_id _ | Global_size _ -> Some Int
  | Real_lit _ -> Some Real
  | Var v -> StrMap.find_opt v tenv
  | Load _ -> None
  | Unop (To_real, _) -> Some Real
  | Unop ((To_int | Not), _) -> Some Int
  | Unop (Neg, a) -> ty_of tenv a
  | Call _ -> Some Real
  | Ternary (_, a, b) | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> (
      match (ty_of tenv a, ty_of tenv b) with
      | Some Int, Some Int -> Some Int
      | Some _, Some _ -> Some Real
      | _ -> None)
  | Binop (_, _, _) -> Some Int

(* -- Variable effects over statement regions ------------------------ *)

let rec stmt_mods acc = function
  | Assign (v, _) -> StrSet.add v acc
  | If (_, t, f) -> body_mods (body_mods acc t) f
  | For l -> StrSet.add l.var (body_mods acc l.body)
  | Decl _ | Decl_arr _ | Store _ | Comment _ -> acc

and body_mods acc b = List.fold_left stmt_mods acc b

let rec stmt_decls acc = function
  | Decl (_, v, _) | Decl_arr (_, v, _) -> StrSet.add v acc
  | If (_, t, f) -> body_decls (body_decls acc t) f
  | For l -> StrSet.add l.var (body_decls acc l.body)
  | Assign _ | Store _ | Comment _ -> acc

and body_decls acc b = List.fold_left stmt_decls acc b

(* Names declared below the top level of [stmts] (inside branches or loop
   bodies): an expression mentioning one can never be hoisted to this
   level. *)
let inner_decl_names stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | If (_, t, f) -> body_decls (body_decls acc t) f
      | For l -> StrSet.add l.var (body_decls acc l.body)
      | _ -> acc)
    StrSet.empty stmts

(* -- Expression traversal / rewriting over statements --------------- *)

let iter_stmt_exprs fe s =
  let rec go s =
    match s with
    | Decl (_, _, Some e) | Assign (_, e) -> fe e
    | Decl (_, _, None) | Decl_arr _ | Comment _ -> ()
    | Store (_, i, e) ->
        fe i;
        fe e
    | If (c, t, f) ->
        fe c;
        List.iter go t;
        List.iter go f
    | For l ->
        fe l.init;
        fe l.bound;
        fe l.step;
        List.iter go l.body
  in
  go s

module EMap = Map.Make (struct
  type t = Cast.expr

  let compare = Stdlib.compare
end)

(* Replace every occurrence of a mapped expression by its temporary.
   Outermost match wins, so overlapping candidates (an expression and
   one of its subexpressions) compose correctly. *)
let rec rewrite_expr map e =
  match EMap.find_opt e map with
  | Some v -> Var v
  | None -> rewrite_children map e

(* As [rewrite_expr] but never matching the root: used for a
   temporary's own initialiser. *)
and rewrite_children map e =
  match e with
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> e
  | Load (b, i) -> Load (b, rewrite_expr map i)
  | Unop (op, a) -> Unop (op, rewrite_expr map a)
  | Binop (op, a, b) -> Binop (op, rewrite_expr map a, rewrite_expr map b)
  | Ternary (c, a, b) ->
      Ternary (rewrite_expr map c, rewrite_expr map a, rewrite_expr map b)
  | Call (f, args) -> Call (f, List.map (rewrite_expr map) args)

let rec rewrite_stmt map s =
  match s with
  | Decl (t, v, e) -> Decl (t, v, Option.map (rewrite_expr map) e)
  | Decl_arr _ | Comment _ -> s
  | Assign (v, e) -> Assign (v, rewrite_expr map e)
  | Store (b, i, e) -> Store (b, rewrite_expr map i, rewrite_expr map e)
  | If (c, t, f) ->
      If (rewrite_expr map c, List.map (rewrite_stmt map) t, List.map (rewrite_stmt map) f)
  | For l ->
      For
        {
          l with
          init = rewrite_expr map l.init;
          bound = rewrite_expr map l.bound;
          step = rewrite_expr map l.step;
          body = List.map (rewrite_stmt map) l.body;
        }

let rec expr_contains e s =
  e = s
  ||
  match e with
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> false
  | Load (_, i) -> expr_contains i s
  | Unop (_, a) -> expr_contains a s
  | Binop (_, a, b) -> expr_contains a s || expr_contains b s
  | Ternary (c, a, b) -> expr_contains c s || expr_contains a s || expr_contains b s
  | Call (_, args) -> List.exists (fun a -> expr_contains a s) args

let stmt_contains s e =
  let found = ref false in
  iter_stmt_exprs (fun top -> if (not !found) && expr_contains top e then found := true) s;
  !found

(* -- Fresh temporaries ---------------------------------------------- *)

type namer = { used : (string, unit) Hashtbl.t; mutable next : int }

let namer_of_kernel (k : kernel) =
  let used = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace used p.p_name ()) k.params;
  StrSet.iter (fun v -> Hashtbl.replace used v ()) (body_decls StrSet.empty k.body);
  { used; next = 0 }

let fresh namer prefix =
  let rec go () =
    let n = Printf.sprintf "%s%d" prefix namer.next in
    namer.next <- namer.next + 1;
    if Hashtbl.mem namer.used n then go ()
    else begin
      Hashtbl.add namer.used n ();
      n
    end
  in
  go ()

(* -- Constant-trip loop unrolling ----------------------------------- *)

let unroll_limit = 8

(* Unrolling multiplies the body: past this many spliced AST nodes the
   register pressure and interpretation cost of the flattened body
   outweigh the saved loop overhead, so the loop is kept.  The FD-MM
   per-branch ODE loops (small bodies, <= [unroll_limit] trips) stay
   well inside the budget; the gate exists for large-bodied loops where
   unrolling used to be a measurable regression. *)
let unroll_budget = 512

(* Copy a loop body for one unrolled iteration: substitute the loop
   variable by its literal value and alpha-rename every name the body
   declares, so the spliced copies stay a valid C block. *)
let rec subst_expr ren sub e =
  match e with
  | Var v -> (
      match StrMap.find_opt v sub with
      | Some e' -> e'
      | None -> (
          match StrMap.find_opt v ren with Some v' -> Var v' | None -> e))
  | Load (b, i) ->
      let b = Option.value ~default:b (StrMap.find_opt b ren) in
      Load (b, subst_expr ren sub i)
  | Int_lit _ | Real_lit _ | Global_id _ | Global_size _ -> e
  | Unop (op, a) -> Unop (op, subst_expr ren sub a)
  | Binop (op, a, b) -> Binop (op, subst_expr ren sub a, subst_expr ren sub b)
  | Ternary (c, a, b) ->
      Ternary (subst_expr ren sub c, subst_expr ren sub a, subst_expr ren sub b)
  | Call (f, args) -> Call (f, List.map (subst_expr ren sub) args)

let rec subst_stmt ren sub s =
  let rn v = Option.value ~default:v (StrMap.find_opt v ren) in
  let se = subst_expr ren sub in
  match s with
  | Decl (t, v, e) -> Decl (t, rn v, Option.map se e)
  | Decl_arr (t, v, n) -> Decl_arr (t, rn v, n)
  | Assign (v, e) -> Assign (rn v, se e)
  | Store (b, i, e) -> Store (rn b, se i, se e)
  | If (c, t, f) -> If (se c, List.map (subst_stmt ren sub) t, List.map (subst_stmt ren sub) f)
  | For l ->
      For
        {
          var = rn l.var;
          init = se l.init;
          bound = se l.bound;
          step = se l.step;
          body = List.map (subst_stmt ren sub) l.body;
        }
  | Comment _ -> s

(* Fully unroll loops with literal init/bound/step and at most
   [unroll_limit] iterations (the FD-MM per-branch ODE loops), innermost
   first.  Skipped when the body assigns or shadows the loop variable. *)
let unroll_kernel ?(budget = unroll_budget) namer (k : kernel) =
  let count = ref 0 in
  let rec un_body body = List.concat_map un_stmt body
  and un_stmt s =
    match s with
    | If (c, t, f) -> [ If (c, un_body t, un_body f) ]
    | For l -> (
        let l = { l with body = un_body l.body } in
        match (l.init, l.bound, l.step) with
        | Int_lit i0, Int_lit b, Int_lit st
          when st > 0
               && max 0 ((b - i0 + st - 1) / st) <= unroll_limit
               && max 0 ((b - i0 + st - 1) / st) * body_nodes l.body
                  <= budget
               && (not (StrSet.mem l.var (body_mods StrSet.empty l.body)))
               && not (StrSet.mem l.var (body_decls StrSet.empty l.body)) ->
            let trips = max 0 ((b - i0 + st - 1) / st) in
            incr count;
            let decls = body_decls StrSet.empty l.body in
            let copies = ref [] in
            for t = trips - 1 downto 0 do
              let ren =
                StrSet.fold
                  (fun n acc -> StrMap.add n (fresh namer (n ^ "_u")) acc)
                  decls StrMap.empty
              in
              let sub = StrMap.singleton l.var (Int_lit (i0 + (t * st))) in
              copies := List.map (subst_stmt ren sub) l.body @ !copies
            done;
            !copies
        | _ -> [ For l ])
    | _ -> [ s ]
  in
  let body = un_body k.body in
  ({ k with body }, !count)

(* -- Candidate selection -------------------------------------------- *)

(* Tally every compound subexpression in a region.  Selection is greedy,
   largest first: picking an expression discounts the occurrences of its
   subexpressions that the hoist will absorb, so a subexpression is only
   named separately when it still pays for itself. *)
let tally_region iter_exprs =
  let tbl : (expr, int) Hashtbl.t = Hashtbl.create 64 in
  iter_exprs
    (iter_sub (fun e ->
         match e with
         | Binop _ | Unop _ | Ternary _ | Call _ ->
             Hashtbl.replace tbl e (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e))
         | _ -> ()));
  tbl

let select_candidates tbl ~eligible ~min_count =
  let cands =
    Hashtbl.fold (fun e n acc -> if n >= min_count && eligible e then e :: acc else acc) tbl []
    |> List.sort (fun a b -> compare (expr_nodes b) (expr_nodes a))
  in
  let count e = Option.value ~default:0 (Hashtbl.find_opt tbl e) in
  List.filter
    (fun e ->
      let n = count e in
      if n < min_count then false
      else begin
        (* Absorb this expression's subexpressions: all but one copy
           disappears for a CSE (the surviving copy is the temporary's
           initialiser); every copy leaves the loop for LICM, but the
           initialiser keeps one, which the min_count=1 case treats the
           same way. *)
        let absorbed = n - 1 in
        iter_sub
          (fun s ->
            if s != e && Hashtbl.mem tbl s then
              Hashtbl.replace tbl s (max 0 (count s - absorbed)))
          e;
        true
      end)
    cands

(* -- Common-subexpression elimination ------------------------------- *)

(* One block at a time: expressions repeated across the block whose free
   variables are never written inside it (at any depth) are computed once
   into a temporary declared immediately before their first use, then
   the block's nested branch/loop bodies are processed recursively for
   repeats that are local to them. *)
let cse_kernel namer (k : kernel) =
  let fired = ref 0 in
  let rec cse_block tenv stmts =
    let blocked = StrSet.union (body_mods StrSet.empty stmts) (inner_decl_names stmts) in
    let tbl = tally_region (fun fe -> List.iter (iter_stmt_exprs fe) stmts) in
    let eligible e =
      candidate e
      && StrSet.for_all (fun v -> not (StrSet.mem v blocked)) (expr_vars StrSet.empty e)
    in
    let selected = select_candidates tbl ~eligible ~min_count:2 in
    (* Anchor each selected expression at the first top-level statement
       containing it, provided its variables are in scope there; the
       declared type is resolved against the scope at that point. *)
    let anchors = Hashtbl.create 8 (* stmt index -> (expr, ty) list *) in
    let anchored = ref [] in
    (let tenv = ref tenv in
     List.iteri
       (fun j s ->
         List.iter
           (fun e ->
             if
               (not (List.memq e !anchored))
               && stmt_contains s e
               && StrSet.for_all (fun v -> StrMap.mem v !tenv) (expr_vars StrSet.empty e)
             then
               match ty_of !tenv e with
               | None -> ()
               | Some ty ->
                   anchored := e :: !anchored;
                   Hashtbl.replace anchors j
                     ((e, ty) :: Option.value ~default:[] (Hashtbl.find_opt anchors j)))
           selected;
         match s with
         | Decl (t, v, _) | Decl_arr (t, v, _) ->
             tenv := StrMap.add v t !tenv
         | _ -> ())
       stmts);
    (* Build the temp map (expr -> name) over every anchored expression,
       then emit declarations (smallest first, so a larger temporary can
       reference a smaller one) and rewrite the block. *)
    let map =
      List.fold_left (fun m e -> EMap.add e (fresh namer "_cse") m) EMap.empty !anchored
    in
    let stmts =
      List.concat
        (List.mapi
           (fun j s ->
             let decls =
               match Hashtbl.find_opt anchors j with
               | None -> []
               | Some es ->
                   List.sort (fun (a, _) (b, _) -> compare (expr_nodes a) (expr_nodes b)) es
                   |> List.map (fun (e, ty) ->
                          fired := !fired + 1;
                          Decl (ty, EMap.find e map, Some (rewrite_children map e)))
             in
             decls @ [ rewrite_stmt map s ])
           stmts)
    in
    (* Recurse into nested blocks with the scope as of each point. *)
    let rec walk tenv acc = function
      | [] -> List.rev acc
      | s :: rest ->
          let s', tenv' =
            match s with
            | Decl (t, v, _) | Decl_arr (t, v, _) -> (s, StrMap.add v t tenv)
            | If (c, t, f) -> (If (c, cse_block tenv t, cse_block tenv f), tenv)
            | For l ->
                (For { l with body = cse_block (StrMap.add l.var Int tenv) l.body }, tenv)
            | _ -> (s, tenv)
          in
          walk tenv' (s' :: acc) rest
    in
    walk tenv [] stmts
  in
  let tenv0 =
    List.fold_left (fun m p -> StrMap.add p.p_name p.p_ty m) StrMap.empty k.params
  in
  let body = cse_block tenv0 k.body in
  ({ k with body }, !fired)

(* -- Loop-invariant code motion ------------------------------------- *)

(* Innermost loops first; for each [For], pure expressions from the body
   (and the per-iteration bound/step) whose variables are neither the
   loop variable nor written/declared inside the body move into
   temporaries declared just before the loop. *)
let licm_kernel namer (k : kernel) =
  let hoisted = ref 0 in
  let rec licm_block tenv stmts =
    let rec walk tenv acc = function
      | [] -> List.rev acc
      | s :: rest ->
          let pre, s', tenv' =
            match s with
            | Decl (t, v, _) | Decl_arr (t, v, _) -> ([], s, StrMap.add v t tenv)
            | If (c, t, f) -> ([], If (c, licm_block tenv t, licm_block tenv f), tenv)
            | For l ->
                let body = licm_block (StrMap.add l.var Int tenv) l.body in
                let l = { l with body } in
                let blocked =
                  StrSet.add l.var
                    (StrSet.union (body_mods StrSet.empty body)
                       (body_decls StrSet.empty body))
                in
                let tbl =
                  tally_region (fun fe ->
                      fe l.bound;
                      fe l.step;
                      List.iter (iter_stmt_exprs fe) body)
                in
                let eligible e =
                  candidate e
                  && StrSet.for_all
                       (fun v -> (not (StrSet.mem v blocked)) && StrMap.mem v tenv)
                       (expr_vars StrSet.empty e)
                  && ty_of tenv e <> None
                in
                let selected = select_candidates tbl ~eligible ~min_count:1 in
                let map =
                  List.fold_left
                    (fun m e -> EMap.add e (fresh namer "_inv") m)
                    EMap.empty selected
                in
                let decls =
                  List.sort (fun a b -> compare (expr_nodes a) (expr_nodes b)) selected
                  |> List.map (fun e ->
                         hoisted := !hoisted + 1;
                         let t = match ty_of tenv e with Some t -> t | None -> Int in
                         Decl (t, EMap.find e map, Some (rewrite_children map e)))
                in
                ( decls,
                  For
                    {
                      l with
                      init = rewrite_expr map l.init;
                      bound = rewrite_expr map l.bound;
                      step = rewrite_expr map l.step;
                      body = List.map (rewrite_stmt map) l.body;
                    },
                  tenv )
            | _ -> ([], s, tenv)
          in
          walk tenv' ((s' :: List.rev pre) @ acc) rest
    in
    walk tenv [] stmts
  in
  let tenv0 =
    List.fold_left (fun m p -> StrMap.add p.p_name p.p_ty m) StrMap.empty k.params
  in
  let body = licm_block tenv0 k.body in
  ({ k with body }, !hoisted)

(* -- Dead-store / dead-declaration elimination ---------------------- *)

(* A local is dead when no expression reads it (as a scalar or as an
   array base).  Dead declarations disappear together with every
   assignment to them; iterate to a fixpoint since an initialiser can be
   the last reader of another local. *)
let dce_kernel (k : kernel) =
  let removed = ref 0 in
  let reads body =
    let acc = ref StrSet.empty in
    List.iter (iter_stmt_exprs (fun e -> acc := expr_vars !acc e)) body;
    (* Store bases are reads of the array binding. *)
    let rec note s =
      match s with
      | Store (b, _, _) -> acc := StrSet.add b !acc
      | If (_, t, f) ->
          List.iter note t;
          List.iter note f
      | For l -> List.iter note l.body
      | _ -> ()
    in
    List.iter note body;
    !acc
  in
  let rec sweep live body =
    List.filter_map
      (fun s ->
        match s with
        | Decl (_, v, _) | Decl_arr (_, v, _) | Assign (v, _) ->
            if StrSet.mem v live then Some s
            else begin
              incr removed;
              None
            end
        | If (c, t, f) -> Some (If (c, sweep live t, sweep live f))
        | For l -> Some (For { l with body = sweep live l.body })
        | Store _ | Comment _ -> Some s)
      body
  in
  let rec fix body =
    let live = reads body in
    let before = !removed in
    let body = sweep live body in
    if !removed = before then body else fix body
  in
  let body = fix k.body in
  ({ k with body }, !removed)

(* -- Pipeline ------------------------------------------------------- *)

let count_strength_reduced (k : kernel) =
  let n = ref 0 in
  let fe = iter_sub (function Binop ((Shr | BAnd), _, _) -> incr n | _ -> ()) in
  List.iter (iter_stmt_exprs fe) k.body;
  !n

let optimize ?unroll_budget:budget (k0 : kernel) : kernel * report =
  let nodes_before = kernel_nodes k0 in
  let k = Cast.simplify_kernel k0 in
  let namer = namer_of_kernel k in
  let k, unrolled = unroll_kernel ?budget namer k in
  (* re-fold: unrolling turns loop indices into literals ([0 * nB]...) *)
  let k = if unrolled > 0 then Cast.simplify_kernel k else k in
  let k, cse_fired = cse_kernel namer k in
  let k, licm_hoisted = licm_kernel namer k in
  let k = Cast.simplify_kernel k in
  let k, dead_removed = dce_kernel k in
  (* a no-op pipeline returns the input kernel *physically*, so callers
     keying caches on physical identity (the runtime's prepared
     launches, ranged-launch variants) share entries between the raw and
     "optimized" kernel *)
  let k =
    if
      unrolled = 0 && cse_fired = 0 && licm_hoisted = 0 && dead_removed = 0
      && k = k0
    then k0
    else k
  in
  ( k,
    {
      nodes_before;
      nodes_after = kernel_nodes k;
      cse_fired;
      licm_hoisted;
      unrolled;
      strength_reduced = count_strength_reduced k;
      dead_removed;
    } )
