(* Host-side runtime: executes the operation plans produced by the Lift
   host code generator (kernel launches, host<->device transfers).

   Device memory is simulated as unified memory, so a transfer is a
   bookkeeping event (bytes counted for the transfer statistics) rather
   than a copy; kernel launches dispatch to the reference interpreter or
   to compiled C, and are timed per kernel for the stats report.

   Like the paper's host program, which creates each kernel once and per
   step only enqueues launches and swaps buffer pointers, a launch is
   optimized, compiled, verified and bound once: later dispatches read
   their argument cells, compare their launch signature and call the
   compiled entry.  [prepare] does that for a whole step's launches
   ahead of the first, so their kernels build in one [cc] run. *)

open Kernel_ast

type arg =
  | A_buf of string
  | A_int of int
  | A_real of float

type op =
  | Alloc of { name : string; ty : Cast.ty; elems : int }
  | Copy_to_gpu of string
  | Copy_to_host of string
  | Launch of { kernel : Cast.kernel; args : arg list; global : int list; spans : Spans.t option }
  | Swap of string * string
      (* exchange two buffer bindings: the host-side pointer rotation
         between time steps *)

type plan = op list

type engine =
  | Interp
  | Native

type kernel_stats = {
  mutable k_launches : int;
  mutable total_s : float;
  mutable min_s : float;
  mutable max_s : float;
  mutable arg_bytes : int;  (* buffer bytes bound across launches *)
  mutable k_opt : Opt.report option;  (* optimizer report, when it ran *)
}

(* Signature of a launch for the verification cache: the static verdict
   depends only on the kernel, the NDRange and the resolved arguments
   through their values (scalars) and extents (buffers). *)
type launch_sig = {
  sig_global : int list;
  sig_args : [ `B of int | `I of int | `R ] list;
}

exception Unsafe_kernel of Check.report

let () =
  Printexc.register_printer (function
    | Unsafe_kernel r -> Some (Fmt.str "Unsafe_kernel:@.%a" Check.pp_report r)
    | _ -> None)

(* A kernel's launch counters as [dispatch] accumulates them; [stats]
   copies them out as [kernel_stats].  The times sit in a float array
   (total, min, max seconds), whose stores allocate nothing, so a steady
   launch allocates the same words whatever it measures. *)
type kernel_acc = {
  mutable a_launches : int;
  a_times : float array;
  mutable a_bytes : int;
  mutable a_opt : Opt.report option;
}

(* How a prepared launch runs: its kernel's native launcher, or the
   interpreter (the [Interp] engine, a sanitizing runtime, or no C
   compiler). *)
type entry =
  | Compiled of Native.launcher
  | Interpreted

(* A launch resolved once per raw kernel value: the kernel as dispatched
   (after the optimizer) with its report and structural digest, its
   engine entry, and the launch signatures last verified clean. *)
type prepared = {
  raw : Cast.kernel;  (* memo key, by physical equality *)
  kernel : Cast.kernel;  (* as dispatched *)
  report : Opt.report option;
  digest : string;  (* of [kernel]: the check and native cache key *)
  mutable entry : entry option;
      (* resolved at the first dispatch that passes verification, so a
         refused launch compiles nothing *)
  mutable verified : launch_sig list;  (* newest first, at most [max_verified] *)
  mutable fresh : bool;
      (* [prepare] made the lookups of this launch's next dispatch, which
         therefore counts none *)
}

(* An op whose buffer names are resolved to cells: a [Swap]'s two, or a
   [Launch]'s buffer arguments, which each dispatch reads into [args] at
   their positions [slots]; the scalar entries of [args] are fixed. *)
type bound_op = {
  op : op;  (* memo key, by physical equality *)
  cells : Buffer.t ref array;
  slots : int array;
  args : Args.t array;
}

type t = {
  buffers : (string, Buffer.t ref) Hashtbl.t;
      (* the buffer table: one cell per name.  [bind] writes a cell and
         [Swap] exchanges two cells' contents, so a cell, once looked
         up, stays its name's *)
  opt_cache : (Cast.kernel * Opt.report) Kcache.t;
      (* raw-kernel digest -> optimized kernel + report *)
  check_cache : unit Kcache.t;
      (* (kernel, launch signature) digests already proven race/bounds-clean *)
  native_cache : Native.compiled option Kcache.t;
      (* structural digest -> loaded native binary (backed by the
         process-wide memo and the on-disk binary cache in [Native]), or
         [None] when no C compiler can be run: the kernel falls back to
         the interpreter *)
  mutable prepared : prepared list;  (* newest first, at most [max_memo] *)
  mutable bound_ops : bound_op list;  (* newest first, at most [max_memo] *)
  kstats : (string, kernel_acc) Hashtbl.t;
  engine : engine;
  optimize : bool;  (* run the Opt pipeline on kernels before dispatch *)
  unroll_budget : int option;  (* Opt unroll gate override (autotuner knob) *)
  precision : Cast.precision;  (* element width of real transfers *)
  verify : bool;  (* fail-fast static check of every dispatched kernel *)
  sanitizer : Sanitizer.t option;  (* shadow-memory checked execution *)
  mutable launches : int;
  mutable h2d_bytes : int;
  mutable d2h_bytes : int;
  mutable d2d_bytes : int;  (* device-to-device copies: halo exchanges *)
}

(* Clock for per-launch timing: monotonic, so launch times neither step
   with wall-clock adjustments nor quantize to a microsecond.  Swappable
   so the autotuner tests can inject a deterministic fake timer;
   everything that reads launch durations (kernel stats, measured
   tuning) sees the same clock. *)
let clock : (unit -> float) ref = ref Clock.now
let set_clock f = clock := f
let reset_clock () = clock := Clock.now
let now () = !clock ()

let create ?(engine = Native) ?(optimize = true) ?unroll_budget
    ?(precision = Cast.Double) ?(verify = false) ?(sanitize = false) () =
  {
    buffers = Hashtbl.create 16;
    opt_cache = Kcache.create "opt";
    check_cache = Kcache.create "check";
    native_cache = Kcache.create "native";
    prepared = [];
    bound_ops = [];
    kstats = Hashtbl.create 8;
    engine;
    optimize;
    unroll_budget;
    precision;
    verify;
    sanitizer = (if sanitize then Some (Sanitizer.create ()) else None);
    launches = 0;
    h2d_bytes = 0;
    d2h_bytes = 0;
    d2d_bytes = 0;
  }

let sanitizer t = t.sanitizer

let note_host_write t buf =
  match t.sanitizer with Some s -> Sanitizer.note_host_write s buf | None -> ()

let bind t name buf =
  (match Hashtbl.find t.buffers name with
  | cell -> cell := buf
  | exception Not_found -> Hashtbl.replace t.buffers name (ref buf));
  note_host_write t buf

let cell t name =
  match Hashtbl.find t.buffers name with
  | cell -> cell
  | exception Not_found -> failwith (Printf.sprintf "vgpu runtime: unknown buffer %s" name)

let buffer t name = !(cell t name)
let buffer_opt t name = Option.map ( ! ) (Hashtbl.find_opt t.buffers name)

let resolve_arg t = function
  | A_buf name -> Args.Buf (buffer t name)
  | A_int i -> Args.Int_arg i
  | A_real r -> Args.Real_arg r

let real_bytes = function Cast.Single -> 4 | Cast.Double -> 8

(* Bytes moved by a sub-buffer copy of [elems] elements, at the runtime's
   transfer precision: an int is 4 bytes (OpenCL [int]), a byte-stored
   int 1. *)
let slice_bytes ~precision buf elems =
  match buf with
  | Buffer.F _ -> real_bytes precision * elems
  | Buffer.I _ -> 4 * elems
  | Buffer.U8 _ -> elems

let transfer_bytes ~precision buf = slice_bytes ~precision buf (Buffer.length buf)

(* Raw sub-buffer copy between two device buffers; the storage kinds must
   agree, as they would for clEnqueueCopyBuffer. *)
let blit_buffers ~(src : Buffer.t) ~src_off ~(dst : Buffer.t) ~dst_off ~elems =
  if Buffer.ty src <> Buffer.ty dst then
    failwith "vgpu runtime: buffer copy between int and real buffers";
  Buffer.blit ~src ~src_off ~dst ~dst_off ~elems

let account_d2d t bytes = t.d2d_bytes <- t.d2d_bytes + bytes

let ty_label = function Cast.Int -> "int" | Cast.Real -> "real"

let digest_of (kernel : Cast.kernel) =
  Digest.to_hex (Digest.string (Marshal.to_string kernel []))

(* Both memos are short lists searched by physical equality, truncated
   so adversarial kernel or op streams cannot grow them. *)
let max_memo = 32

(* A prepared launch keeps a few signatures verified clean: an
   overlapped step launches its split volume kernel under three, the
   interior and two frontier ranges. *)
let max_verified = 8

let remember ?(max = max_memo) x memo = x :: List.filteri (fun i _ -> i < max - 1) memo

(* Does a dispatch look the kernel up in the native cache?  Not when it
   runs on the interpreter by configuration. *)
let native_lookups t = match (t.sanitizer, t.engine) with None, Native -> true | _ -> false

let rec find_prepared kernel = function
  | [] -> raise_notrace Not_found
  | p :: rest -> if p.raw == kernel then p else find_prepared kernel rest

(* The prepared launch of [raw], prepared on first sight: optimized
   through the opt cache (keyed by structural digest, so each distinct
   raw kernel is optimized once per runtime) and digested.  Finding it
   prepared stands in for the opt-cache lookup, which counts as a hit
   unless [prepare] counted it already.  The engine entry waits for the
   first dispatch, or [prepare], that passes verification. *)
let prepared t (raw : Cast.kernel) =
  match find_prepared raw t.prepared with
  | p ->
      if t.optimize && not p.fresh then Kcache.note_hit t.opt_cache;
      p
  | exception Not_found ->
      let raw_digest = digest_of raw in
      let kernel, report =
        if t.optimize then
          let kernel, report =
            Kcache.find_or_add t.opt_cache raw_digest (fun () ->
                Opt.optimize ?unroll_budget:t.unroll_budget raw)
          in
          (kernel, Some report)
        else (raw, None)
      in
      (* a pipeline that changes nothing returns its input physically *)
      let digest = if kernel == raw then raw_digest else digest_of kernel in
      let entry = if native_lookups t then None else Some Interpreted in
      let p = { raw; kernel; report; digest; entry; verified = []; fresh = false } in
      t.prepared <- remember p t.prepared;
      p

let fallback_logged = Atomic.make false

(* The engine entry of a prepared launch, which stands in for the
   native-cache lookup after the first.  That lookup finds (or loads or
   compiles) the kernel's binary by structural digest, so kernels
   sharing a name never collide and the LRU bound caps memory under
   unbounded kernel streams.  When the C compiler cannot be run at all
   the kernel runs on the interpreter; that verdict is cached too, so
   the kernel is not retried through a shell on every launch, and the
   first one in the process is logged.  [built] holds the results of a
   batch build by digest; a kernel outside it is built alone.  [counted]:
   [prepare] already counted this lookup. *)
let engine_entry ?(built = []) t (p : prepared) ~counted =
  match p.entry with
  | Some e ->
      if native_lookups t && not counted then Kcache.note_hit t.native_cache;
      e
  | None ->
      let compiled =
        Kcache.find_or_add t.native_cache p.digest (fun () ->
            let result =
              match List.assoc_opt p.digest built with
              | Some r -> r
              | None -> ( try Ok (Native.compile p.kernel) with Native.No_compiler _ as e -> Error e)
            in
            match result with
            | Ok c -> Some c
            | Error (Native.No_compiler cc) ->
                if not (Atomic.exchange fallback_logged true) then
                  Printf.eprintf
                    "vgpu: C compiler %S cannot be run; kernels fall back to the interpreter\n%!" cc;
                None
            | Error e -> raise e)
      in
      let e = match compiled with Some c -> Compiled (Native.launcher c) | None -> Interpreted in
      p.entry <- Some e;
      e

(* Do the arguments from position [i] on have the signature [sigs]?
   Allocates nothing. *)
let rec same_args (args : Args.t array) i sigs =
  match sigs with
  | [] -> i = Array.length args
  | s :: rest ->
      i < Array.length args
      && (match (s, args.(i)) with
         | `B n, Args.Buf b -> n = Buffer.length b
         | `I n, Args.Int_arg v -> n = v
         | `R, Args.Real_arg _ -> true
         | _ -> false)
      && same_args args (i + 1) rest

(* Is the launch's signature one of [sigs]?  Allocates nothing. *)
let rec verified_sig args global = function
  | [] -> false
  | s :: rest ->
      (List.equal Int.equal s.sig_global global && same_args args 0 s.sig_args)
      || verified_sig args global rest

(* Fail-fast static verification of a launch: race/bounds-check the
   kernel exactly as dispatched (post-optimizer, resolved arguments).
   Clean verdicts are cached by (kernel, NDRange, argument signature);
   an [Unsafe] verdict aborts the launch.  A dispatch repeating a
   signature this prepared launch verified skips the lookup, which
   counts as a check-cache hit unless [prepare] counted it
   ([counted]). *)
let verify_launch t (p : prepared) (args : Args.t array) ~global ~counted =
  if verified_sig args global p.verified then (if not counted then Kcache.note_hit t.check_cache)
  else begin
    let kernel = p.kernel and args_l = Array.to_list args in
    let lsig =
      {
        sig_global = global;
        sig_args =
          List.map
            (function
              | Args.Buf b -> `B (Buffer.length b)
              | Args.Int_arg i -> `I i
              | Args.Real_arg _ -> `R)
            args_l;
      }
    in
    let key = p.digest ^ Digest.to_hex (Digest.string (Marshal.to_string lsig [])) in
    Kcache.find_or_add t.check_cache key (fun () ->
        let assoc =
          try List.combine kernel.params args_l with Invalid_argument _ -> []
        in
        let param_value name =
          List.find_map
            (fun ((p : Cast.param), a) ->
              match a with
              | Args.Int_arg i when p.p_name = name -> Some i
              | _ -> None)
            assoc
        in
        let buffer_elems name =
          List.find_map
            (fun ((p : Cast.param), a) ->
              match a with
              | Args.Buf b when p.p_name = name -> Some (Buffer.length b)
              | _ -> None)
            assoc
        in
        let env = Check.env ~param_value ~buffer_elems ~global () in
        let report = Check.check env kernel in
        if not (Check.ok report) then raise (Unsafe_kernel report));
    p.verified <- remember ~max:max_verified lsig p.verified
  end

let kstat t name =
  match Hashtbl.find t.kstats name with
  | a -> a
  | exception Not_found ->
      let a = { a_launches = 0; a_times = [| 0.; infinity; 0. |]; a_bytes = 0; a_opt = None } in
      Hashtbl.replace t.kstats name a;
      a

(* Dispatch a prepared launch and return its timed kernel window in
   seconds, the duration the kernel stats record.  The launch counts
   once its engine ran it: a refused or rejected launch counts
   nowhere. *)
let dispatch t (p : prepared) (args : Args.t array) ~global ~spans =
  let counted = p.fresh in
  p.fresh <- false;
  if t.verify then verify_launch t p args ~global ~counted;
  (* compiled code is resolved before the timer starts: a first launch's
     cc + dlopen is not kernel time *)
  let entry = engine_entry t p ~counted in
  let t0 = now () in
  (match (t.sanitizer, entry) with
  | Some s, _ ->
      (* checked execution needs the interpreter's access hooks, so the
         sanitizer overrides the configured engine *)
      Sanitizer.launch ?spans s p.kernel ~args:(Array.to_list args) ~global
  | None, Compiled l -> Native.dispatch ?spans l args ~global
  | None, Interpreted -> Exec.launch ?spans p.kernel ~args:(Array.to_list args) ~global);
  let dt = now () -. t0 in
  t.launches <- t.launches + 1;
  let bytes = ref 0 in
  for i = 0 to Array.length args - 1 do
    match args.(i) with
    | Args.Buf b -> bytes := !bytes + transfer_bytes ~precision:p.kernel.Cast.precision b
    | Args.Int_arg _ | Args.Real_arg _ -> ()
  done;
  let a = kstat t p.kernel.Cast.name in
  (match p.report with Some _ -> a.a_opt <- p.report | None -> ());
  a.a_launches <- a.a_launches + 1;
  a.a_times.(0) <- a.a_times.(0) +. dt;
  if dt < a.a_times.(1) then a.a_times.(1) <- dt;
  if dt > a.a_times.(2) then a.a_times.(2) <- dt;
  a.a_bytes <- a.a_bytes + !bytes;
  dt

(* Dispatch a launch whose arguments are already resolved to buffers and
   scalars.  [Multi.run_async] resolves names at each op's list
   position — the clSetKernelArg moment — and may run the launch after
   a later [Swap] has rebound them. *)
let launch_resolved ?spans t kernel ~(args : Args.t list) ~global =
  dispatch t (prepared t kernel) (Array.of_list args) ~global ~spans

let rec find_bound op = function
  | [] -> raise_notrace Not_found
  | b :: rest -> if b.op == op then b else find_bound op rest

(* [op] with its buffer names resolved to cells, once per op value. *)
let bound_op t op =
  match find_bound op t.bound_ops with
  | b -> b
  | exception Not_found ->
      let b =
        match op with
        | Swap (a, b) -> { op; cells = [| cell t a; cell t b |]; slots = [||]; args = [||] }
        | Launch { args; _ } ->
            let bufs =
              List.concat
                (List.mapi (fun i -> function A_buf name -> [ (i, cell t name) ] | _ -> []) args)
            in
            {
              op;
              cells = Array.of_list (List.map snd bufs);
              slots = Array.of_list (List.map fst bufs);
              args = Array.of_list (List.map (resolve_arg t) args);
            }
        | _ -> invalid_arg "Vgpu.Runtime.bound_op: no buffer names to resolve"
      in
      t.bound_ops <- remember b t.bound_ops;
      b

let run_op t = function
  | Swap _ as op ->
      let b = bound_op t op in
      let ca = b.cells.(0) and cb = b.cells.(1) in
      let ba = !ca in
      ca := !cb;
      cb := ba;
      note_host_write t !ca;
      note_host_write t !cb
  | Alloc { name; ty; elems } -> (
      match Hashtbl.find_opt t.buffers name with
      | None ->
          let b = Buffer.create ty elems in
          Hashtbl.replace t.buffers name (ref b);
          (* fresh device memory: contents undefined until written *)
          (match t.sanitizer with Some s -> Sanitizer.note_alloc s b | None -> ())
      | Some cell ->
          (* Reusing a binding is the normal pattern across time steps,
             but only if it matches the plan's allocation exactly —
             anything else masks a plan bug. *)
          let b = !cell in
          if Buffer.ty b <> ty || Buffer.length b <> elems then
            failwith
              (Printf.sprintf
                 "vgpu runtime: alloc %s: bound buffer is %d %s elements, plan wants %d %s"
                 name (Buffer.length b)
                 (ty_label (Buffer.ty b))
                 elems (ty_label ty)))
  | Copy_to_gpu name ->
      t.h2d_bytes <- t.h2d_bytes + transfer_bytes ~precision:t.precision (buffer t name)
  | Copy_to_host name ->
      t.d2h_bytes <- t.d2h_bytes + transfer_bytes ~precision:t.precision (buffer t name)
  | Launch { kernel; global; spans; _ } as op ->
      let b = bound_op t op in
      for j = 0 to Array.length b.cells - 1 do
        b.args.(b.slots.(j)) <- Args.Buf !(b.cells.(j))
      done;
      ignore (dispatch t (prepared t kernel) b.args ~global ~spans)

let run t (plan : plan) = List.iter (run_op t) plan

(* Prepare the launches of one step on several runtimes, ahead of its
   first launch: every kernel is optimized and, under [verify], checked
   with the arguments of its first launch in the step as bound now, so a
   refused launch raises before anything is built; then the kernels no
   runtime has an entry for are built in one batch, each distinct one
   rendered once, and every runtime takes its entries from it.  The
   lookups are counted here and stand for the kernel's next dispatch,
   which counts none; a later launch of the same kernel in the step
   verifies at its own dispatch, as it would without [prepare]. *)
let prepare (devices : (t * op list) list) =
  let staged =
    List.fold_left
      (fun acc (t, ops) ->
        List.fold_left
          (fun acc op ->
            match op with
            | Launch { kernel; args; global; _ }
              when not (List.exists (fun (t', p, _) -> t' == t && p.raw == kernel) acc) ->
                let p = prepared t kernel in
                let counted = p.fresh in
                if t.verify then
                  verify_launch t p (Array.of_list (List.map (resolve_arg t) args)) ~global ~counted;
                p.fresh <- true;
                (t, p, counted) :: acc
            | _ -> acc)
          acc ops)
      [] devices
    |> List.rev
  in
  let to_build =
    List.fold_left
      (fun acc (t, p, _) ->
        if Option.is_none p.entry
           && (not (Kcache.mem t.native_cache p.digest))
           && not (List.mem_assoc p.digest acc)
        then (p.digest, p.kernel) :: acc
        else acc)
      [] staged
    |> List.rev
  in
  let built =
    if to_build = [] then []
    else List.combine (List.map fst to_build) (Native.build (List.map snd to_build))
  in
  List.iter (fun (t, p, counted) -> ignore (engine_entry ~built t p ~counted)) staged

(* -- Launch-level observability ------------------------------------- *)

type stats = {
  s_launches : int;
  s_h2d_bytes : int;
  s_d2h_bytes : int;
  s_d2d_bytes : int;  (* halo-exchange bytes *)
  s_violations : Sanitizer.counts option;  (* Some iff sanitizing *)
  s_caches : (string * Kcache.counters) list;
      (* per-cache hit/miss/eviction counters: opt, check, native *)
  per_kernel : (string * kernel_stats) list;  (* sorted by kernel name *)
}

let cache_counters t =
  [
    ("opt", Kcache.counters t.opt_cache);
    ("check", Kcache.counters t.check_cache);
    ("native", Kcache.counters t.native_cache);
  ]

(* A snapshot: the per-kernel records are built from the counters, so
   later launches do not change a [stats] value already taken. *)
let kernel_stats a =
  {
    k_launches = a.a_launches;
    total_s = a.a_times.(0);
    min_s = a.a_times.(1);
    max_s = a.a_times.(2);
    arg_bytes = a.a_bytes;
    k_opt = a.a_opt;
  }

let stats t =
  let per_kernel =
    Hashtbl.fold (fun name a acc -> (name, kernel_stats a) :: acc) t.kstats []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    s_launches = t.launches;
    s_h2d_bytes = t.h2d_bytes;
    s_d2h_bytes = t.d2h_bytes;
    s_d2d_bytes = t.d2d_bytes;
    s_violations = Option.map Sanitizer.counts t.sanitizer;
    s_caches = cache_counters t;
    per_kernel;
  }

let reset_stats t =
  Hashtbl.reset t.kstats;
  Kcache.reset_counters t.opt_cache;
  Kcache.reset_counters t.check_cache;
  Kcache.reset_counters t.native_cache;
  t.launches <- 0;
  t.h2d_bytes <- 0;
  t.d2h_bytes <- 0;
  t.d2d_bytes <- 0

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "launches %d, h2d %d B, d2h %d B, d2d %d B@." s.s_launches s.s_h2d_bytes
    s.s_d2h_bytes s.s_d2d_bytes;
  (match s.s_violations with
  | Some c -> Fmt.pf ppf "sanitizer: %d violation(s) (%a)@." (Sanitizer.total c) Sanitizer.pp_counts c
  | None -> ());
  List.iter
    (fun (label, c) ->
      if c.Kcache.c_hits + c.Kcache.c_misses + c.Kcache.c_evictions + c.Kcache.c_entries > 0
      then Fmt.pf ppf "cache %-6s %a@." label Kcache.pp_counters c)
    s.s_caches;
  Fmt.pf ppf "%-28s %8s %10s %10s %10s %10s %12s@." "kernel" "launches" "total ms"
    "min ms" "mean ms" "max ms" "MB bound";
  List.iter
    (fun (name, k) ->
      let mean = if k.k_launches = 0 then 0. else k.total_s /. float_of_int k.k_launches in
      Fmt.pf ppf "%-28s %8d %10.3f %10.3f %10.3f %10.3f %12.2f@." name k.k_launches
        (k.total_s *. 1e3)
        ((if k.min_s = infinity then 0. else k.min_s) *. 1e3)
        (mean *. 1e3) (k.max_s *. 1e3)
        (float_of_int k.arg_bytes /. 1e6))
    s.per_kernel;
  List.iter
    (fun (name, k) ->
      match k.k_opt with
      | None -> ()
      | Some r -> Fmt.pf ppf "%-28s opt: %a@." name Opt.pp_report r)
    s.per_kernel
