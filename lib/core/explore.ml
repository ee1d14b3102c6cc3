(* Rewrite-space exploration.

   Lift's optimisation story (paper §III): a single high-level program is
   rewritten into many semantically equal low-level variants, and the
   best one is selected for the target hardware.  This module provides
   the search: bounded breadth-first closure of the rewrite rules over a
   program, plus ranking of the compiled variants with the virtual GPU's
   performance model.

   Semantic preservation of every rule is property-tested separately, so
   every variant returned here computes the same function. *)

type variant = {
  v_program : Ast.lam;
  v_trace : string list;  (* rule names applied, outermost first *)
}

(* Structural key for deduplication.  Substitution freshens parameter
   ids, so raw structural equality would distinguish alpha-equivalent
   variants; stripping the uniquifying digit suffixes from the printed
   form gives a cheap alpha-insensitive key.  Whitespace goes too: the
   pretty-printer's line breaks depend on identifier widths, so two
   alpha-equivalent programs can otherwise differ in indentation alone. *)
let key (f : Ast.lam) : string =
  let b = Buffer.create 256 in
  String.iter
    (fun c ->
      if not (('0' <= c && c <= '9') || c = ' ' || c = '\n' || c = '\t') then
        Buffer.add_char b c)
    (Ast.to_string f.Ast.l_body);
  Buffer.contents b

(* All variants reachable by applying each rule (everywhere, once) up to
   [depth] times, including the original.  The frontier is deduplicated
   by structural key. *)
let variants ?(rules = Rewrite.default_rules) ?(depth = 4) (f : Ast.lam) : variant list =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let add v =
    let k = key v.v_program in
    if Hashtbl.mem seen k then false
    else begin
      Hashtbl.replace seen k ();
      out := v :: !out;
      true
    end
  in
  let rec bfs frontier d =
    if d = 0 || frontier = [] then ()
    else begin
      let next =
        List.concat_map
          (fun v ->
            List.filter_map
              (fun (r : Rewrite.rule) ->
                let body', fired = Rewrite.apply_everywhere r v.v_program.Ast.l_body in
                if not fired then None
                else begin
                  let v' =
                    {
                      v_program = { v.v_program with Ast.l_body = body' };
                      v_trace = v.v_trace @ [ r.Rewrite.r_name ];
                    }
                  in
                  if add v' then Some v' else None
                end)
              rules)
          frontier
      in
      bfs next (d - 1)
    end
  in
  let root = { v_program = f; v_trace = [] } in
  ignore (add root);
  bfs [ root ] depth;
  List.rev !out

type ranked = {
  r_variant : variant;
  r_kernel : Kernel_ast.Cast.kernel;
  r_time_s : float;
}

(* Compile every variant and rank by predicted runtime on [device] under
   [workload].  Variants that fail to compile are dropped. *)
let rank ?(precision = Kernel_ast.Cast.Double) ~device ~workload
    (vs : variant list) : ranked list =
  let ranked =
    List.filter_map
      (fun v ->
        match Codegen.compile_kernel ~name:"variant" ~precision v.v_program with
        | c ->
            let t = Vgpu.Perf_model.predict device c.Codegen.kernel workload in
            Some { r_variant = v; r_kernel = c.Codegen.kernel; r_time_s = t }
        | exception _ -> None)
      vs
  in
  (* Tie-break equal predicted times by integer-op count (index
     arithmetic the roofline does not price) and then by program size,
     so the cleanest variant of a tie wins. *)
  let iops r = (Kernel_ast.Analysis.kernel_counts r.r_kernel).Kernel_ast.Analysis.iops in
  List.sort
    (fun a b ->
      match compare a.r_time_s b.r_time_s with
      | 0 -> (
          match compare (iops a) (iops b) with
          | 0 -> compare (Ast.size a.r_variant.v_program.Ast.l_body)
                   (Ast.size b.r_variant.v_program.Ast.l_body)
          | c -> c)
      | c -> c)
    ranked

(* One-call search: explore, lower the outermost map of every variant to
   the GPU, compile and pick the fastest. *)
let best ?rules ?depth ?precision ~device ~workload (f : Ast.lam) : ranked option =
  let lower v = { v with v_program = Rewrite.lower_outer_map_to_glb v.v_program } in
  match rank ?precision ~device ~workload (List.map lower (variants ?rules ?depth f)) with
  | [] -> None
  | best :: _ -> Some best
