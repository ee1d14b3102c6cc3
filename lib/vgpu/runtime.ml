(* Host-side runtime: executes the operation plans produced by the Lift
   host code generator (kernel launches, host<->device transfers).

   Device memory is simulated as unified memory, so a transfer is a
   bookkeeping event (bytes counted for the transfer statistics) rather
   than a copy; kernel launches dispatch to the reference interpreter or
   to compiled C, and are timed per kernel for the stats report. *)

open Kernel_ast

type arg =
  | A_buf of string
  | A_int of int
  | A_real of float

type op =
  | Alloc of { name : string; ty : Cast.ty; elems : int }
  | Copy_to_gpu of string
  | Copy_to_host of string
  | Launch of { kernel : Cast.kernel; args : arg list; global : int list }
  | Swap of string * string
      (* exchange two buffer bindings: the host-side pointer rotation
         between time steps *)
  | Copy_buffer of { src : string; src_off : int; dst : string; dst_off : int; elems : int }
      (* device-to-device sub-buffer copy (clEnqueueCopyBuffer): the
         halo-exchange primitive of the sharded backend *)

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

type t = {
  buffers : (string, Buffer.t) Hashtbl.t;
  opt_cache : (Cast.kernel * Opt.report) Kcache.t;
      (* raw-kernel digest -> optimized kernel + report *)
  check_cache : unit Kcache.t;
      (* (kernel, launch signature) digests already proven race/bounds-clean *)
  native_cache : Native.compiled option Kcache.t;
      (* structural digest -> loaded native binary (backed by the
         process-wide memo and the on-disk binary cache in [Native]), or
         [None] when no C compiler can be run: the kernel falls back to
         the interpreter *)
  mutable digest_memo : (Cast.kernel * string) list;
      (* physical-equality memo of structural digests: launches reuse
         the same kernel value every step, so the Marshal+MD5 runs once
         per distinct value, not once per launch *)
  kstats : (string, kernel_stats) Hashtbl.t;
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

let verify_from_env () =
  match Sys.getenv_opt "RACS_VERIFY" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let create ?(engine = Native) ?(optimize = true) ?unroll_budget
    ?(precision = Cast.Double) ?verify ?(sanitize = false) ?cache_capacity () =
  {
    buffers = Hashtbl.create 16;
    opt_cache = Kcache.create ?capacity:cache_capacity "opt";
    check_cache = Kcache.create ?capacity:cache_capacity "check";
    native_cache = Kcache.create ?capacity:cache_capacity "native";
    digest_memo = [];
    kstats = Hashtbl.create 8;
    engine;
    optimize;
    unroll_budget;
    precision;
    verify = (match verify with Some v -> v | None -> verify_from_env ());
    sanitizer = (if sanitize then Some (Sanitizer.create ()) else None);
    launches = 0;
    h2d_bytes = 0;
    d2h_bytes = 0;
    d2d_bytes = 0;
  }

let sanitizer t = t.sanitizer

let bind t name buf =
  Hashtbl.replace t.buffers name buf;
  match t.sanitizer with Some s -> Sanitizer.note_host_write s buf | None -> ()

let buffer t name =
  match Hashtbl.find_opt t.buffers name with
  | Some b -> b
  | None -> failwith (Printf.sprintf "vgpu runtime: unknown buffer %s" name)

let buffer_opt t name = Hashtbl.find_opt t.buffers name

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

(* Structural digest of a kernel, memoized by physical equality: the
   simulation relaunches the same kernel values step after step, so the
   Marshal+MD5 runs once per distinct value.  The memo is a short
   assq list, truncated so adversarial kernel streams cannot grow it. *)
let max_digest_memo = 32

let kernel_digest t (kernel : Cast.kernel) =
  match List.assq_opt kernel t.digest_memo with
  | Some d -> d
  | None ->
      let d = Digest.to_hex (Digest.string (Marshal.to_string kernel [])) in
      let memo = t.digest_memo in
      let memo =
        if List.length memo >= max_digest_memo then List.filteri (fun i _ -> i < max_digest_memo - 1) memo
        else memo
      in
      t.digest_memo <- (kernel, d) :: memo;
      d

let fallback_logged = Atomic.make false

(* Find (or load/compile and cache) the native binary for [kernel],
   keyed by structural digest: kernels sharing a name never collide,
   lookups stay O(1), and the LRU bound caps memory under unbounded
   kernel streams.  [None] when the C compiler cannot be run at all:
   that verdict is cached too, so the kernel is not retried through a
   shell on every launch, and the first one in the process is logged. *)
let native_compiled t (kernel : Cast.kernel) =
  Kcache.find_or_add t.native_cache (kernel_digest t kernel) (fun () ->
      match Native.compile kernel with
      | c -> Some c
      | exception Native.No_compiler cc ->
          if not (Atomic.exchange fallback_logged true) then
            Printf.eprintf
              "vgpu: C compiler %S cannot be run; kernels fall back to the interpreter\n%!" cc;
          None)

(* Find (or run and cache) the optimizer output for [kernel], keyed like
   the native cache so each distinct raw kernel is optimized exactly
   once. *)
let optimized t (kernel : Cast.kernel) =
  Kcache.find_or_add t.opt_cache (kernel_digest t kernel) (fun () ->
      Opt.optimize ?unroll_budget:t.unroll_budget kernel)

(* Fail-fast static verification of a launch: race/bounds-check the
   kernel exactly as dispatched (post-optimizer, resolved arguments).
   Clean verdicts are cached by (kernel, NDRange, argument signature);
   an [Unsafe] verdict aborts the launch. *)
let verify_launch t (kernel : Cast.kernel) ~(args : Args.t list) ~global =
  let lsig =
    {
      sig_global = global;
      sig_args =
        List.map
          (function
            | Args.Buf b -> `B (Buffer.length b)
            | Args.Int_arg i -> `I i
            | Args.Real_arg _ -> `R)
          args;
    }
  in
  let key = kernel_digest t kernel ^ Digest.to_hex (Digest.string (Marshal.to_string lsig [])) in
  Kcache.find_or_add t.check_cache key (fun () ->
      let assoc =
        try List.combine kernel.params args with Invalid_argument _ -> []
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
      if not (Check.ok report) then raise (Unsafe_kernel report))

let kstat t name =
  match Hashtbl.find_opt t.kstats name with
  | Some s -> s
  | None ->
      let s =
        {
          k_launches = 0;
          total_s = 0.;
          min_s = infinity;
          max_s = 0.;
          arg_bytes = 0;
          k_opt = None;
        }
      in
      Hashtbl.replace t.kstats name s;
      s

(* Dispatch a launch whose arguments are already resolved to buffers and
   scalars, and return its timed kernel window in seconds (the duration
   the kernel stats record).  This is the whole Launch arm of [run_op]
   minus the name lookup: [Multi.run_async] resolves names at each op's
   list position — the clSetKernelArg moment — and may run the launch
   after a later [Swap] has rebound them. *)
let launch_resolved t kernel ~(args : Args.t list) ~global =
  t.launches <- t.launches + 1;
  let kernel, report =
    if t.optimize then
      let opt, report = optimized t kernel in
      (opt, Some report)
    else (kernel, None)
  in
  let bytes =
    List.fold_left
      (fun acc -> function
        | Args.Buf b -> acc + transfer_bytes ~precision:kernel.Cast.precision b
        | Args.Int_arg _ | Args.Real_arg _ -> acc)
      0 args
  in
  if t.verify then verify_launch t kernel ~args ~global;
  (* compiled code is resolved before the timer starts: a first launch's
     cc + dlopen is not kernel time *)
  let run =
    match t.sanitizer with
    | Some s ->
        (* checked execution needs the interpreter's access hooks, so the
           sanitizer overrides the configured engine *)
        fun () -> Sanitizer.launch s kernel ~args ~global
    | None -> (
        match t.engine with
        | Interp -> fun () -> Exec.launch kernel ~args ~global
        | Native -> (
            match native_compiled t kernel with
            | Some c -> fun () -> Native.launch c ~args ~global
            | None -> fun () -> Exec.launch kernel ~args ~global))
  in
  let t0 = now () in
  run ();
  let dt = now () -. t0 in
  let s = kstat t kernel.Cast.name in
  (match report with Some _ -> s.k_opt <- report | None -> ());
  s.k_launches <- s.k_launches + 1;
  s.total_s <- s.total_s +. dt;
  s.min_s <- Float.min s.min_s dt;
  s.max_s <- Float.max s.max_s dt;
  s.arg_bytes <- s.arg_bytes + bytes;
  dt

let run_op t = function
  | Swap (a, b) ->
      let ba = buffer t a and bb = buffer t b in
      bind t a bb;
      bind t b ba
  | Alloc { name; ty; elems } -> (
      match Hashtbl.find_opt t.buffers name with
      | None ->
          let b = Buffer.create ty elems in
          Hashtbl.replace t.buffers name b;
          (* fresh device memory: contents undefined until written *)
          (match t.sanitizer with Some s -> Sanitizer.note_alloc s b | None -> ())
      | Some b ->
          (* Reusing a binding is the normal pattern across time steps,
             but only if it matches the plan's allocation exactly —
             anything else masks a plan bug. *)
          if Buffer.ty b <> ty || Buffer.length b <> elems then
            failwith
              (Printf.sprintf
                 "vgpu runtime: alloc %s: bound buffer is %d %s elements, plan wants %d %s"
                 name (Buffer.length b)
                 (ty_label (Buffer.ty b))
                 elems (ty_label ty)))
  | Copy_buffer { src; src_off; dst; dst_off; elems } ->
      let sb = buffer t src and db = buffer t dst in
      blit_buffers ~src:sb ~src_off ~dst:db ~dst_off ~elems;
      (match t.sanitizer with
      | Some s -> Sanitizer.note_blit s db ~off:dst_off ~len:elems
      | None -> ());
      account_d2d t (slice_bytes ~precision:t.precision sb elems)
  | Copy_to_gpu name ->
      t.h2d_bytes <- t.h2d_bytes + transfer_bytes ~precision:t.precision (buffer t name)
  | Copy_to_host name ->
      t.d2h_bytes <- t.d2h_bytes + transfer_bytes ~precision:t.precision (buffer t name)
  | Launch { kernel; args; global } ->
      ignore (launch_resolved t kernel ~args:(List.map (resolve_arg t) args) ~global)

let run t (plan : plan) = List.iter (run_op t) plan

(* -- Launch-level observability ------------------------------------- *)

type stats = {
  s_launches : int;
  s_h2d_bytes : int;
  s_d2h_bytes : int;
  s_d2d_bytes : int;  (* halo-exchange / device-copy bytes *)
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

let stats t =
  let per_kernel =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.kstats []
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
