(* Native compiled backend: the fast engine next to the reference
   interpreter [Exec].

   A kernel is rendered to portable C ([Kernel_ast.Native_c]), compiled
   by the system C compiler into a shared object, dlopened, and
   launched through a C trampoline (native_stubs.c) that passes OCaml
   buffers to the compiled entry.  The compiler flags pin IEEE
   semantics ([-fno-fast-math -ffp-contract=off]) so results are
   bit-identical to the interpreter.

   Shared objects are kept in a content-addressed on-disk cache keyed
   by a digest of the generated C source plus the compiler command
   line: the source string is a faithful function of (kernel AST x
   precision), and optimization changes the AST hence the source, so
   the digest covers everything the binary depends on.  Installs are
   atomic (compile to a temp name, rename into place) so concurrent
   processes never observe a half-written object; a cache entry that
   fails to dlopen is treated as corrupt and recompiled over.

   Within a process, compilations are memoized by the same digest
   under a mutex — a multi-device runtime compiles each distinct
   kernel once, every other device reuses the loaded handle. *)

open Kernel_ast

external dl_open : string -> nativeint = "racs_native_dlopen"
external dl_sym : nativeint -> string -> nativeint = "racs_native_dlsym"
external dl_close : nativeint -> unit = "racs_native_dlclose"

let _ = dl_close (* handles live for the process; kept for completeness *)

(* Layout must match racs_native_launch in native_stubs.c. *)
type packet = {
  mutable pk_fn : nativeint;
  pk_fb : float array array;
  pk_ib : int array array;
  pk_u8b : Bytes.t array;
  pk_isc : int array;
  pk_fsc : float array;
  pk_gsz : int array;
}

external launch_packet : packet -> unit = "racs_native_launch"

(* {2 Toolchain configuration} *)

let cc () = match Sys.getenv_opt "RACS_CC" with Some c when c <> "" -> c | _ -> "cc"

(* -fno-fast-math -ffp-contract=off: no FMA contraction or reassociation,
   keeping every double operation individually rounded like the OCaml
   engines; -fwrapv: OCaml-style wraparound on the (unreachable in
   generated kernels) signed-overflow paths; -nostdlib: no C start files
   and no default libraries, since no kernel runs start-up code.  libm
   is linked explicitly (see [fixed_args]).  A libc symbol a binary
   imports ([memset] for a large private array, [__stack_chk_fail]
   under a default stack protector) resolves at the [RTLD_NOW] dlopen
   against the libc the process has loaded. *)
let default_flags = "-O2 -fPIC -shared -nostdlib -fno-fast-math -ffp-contract=off -fwrapv"

let flags () =
  match Sys.getenv_opt "RACS_CFLAGS" with Some f when f <> "" -> f | _ -> default_flags

(* The fixed part of the command line: the flags before the source file,
   and the libraries after the output, where the linker resolves the
   object's undefined symbols.  [run_cc] runs it and the cache key
   digests it, so a binary is keyed by everything it was built with. *)
let fixed_args () = (flags (), "-lm")

(* {2 Cache directory} *)

let mkdirs dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let cache_dir_ref = ref None

let cache_dir () =
  match !cache_dir_ref with
  | Some d -> d
  | None ->
      let d =
        match Sys.getenv_opt "RACS_CACHE_DIR" with
        | Some d when d <> "" -> d
        | _ -> (
            match Sys.getenv_opt "XDG_CACHE_HOME" with
            | Some x when x <> "" -> Filename.concat x "racs/native"
            | _ -> (
                match Sys.getenv_opt "HOME" with
                | Some h when h <> "" -> Filename.concat h ".cache/racs/native"
                | _ -> Filename.concat (Filename.get_temp_dir_name ()) "racs-native"))
      in
      mkdirs d;
      cache_dir_ref := Some d;
      d

let set_cache_dir d =
  mkdirs d;
  cache_dir_ref := Some d

(* {2 Counters}

   Atomics: compilations can happen on the domain pool's workers, which
   run the [`Concurrent] schedule's launches. *)

type counters = {
  c_compiles : int;  (** cc actually ran *)
  c_disk_hits : int;  (** shared object found on disk and loaded *)
  c_memo_hits : int;  (** in-process memo hit, no disk access *)
  c_cc_ns : int;  (** wall time in cc runs *)
  c_dlopen_ns : int;  (** wall time in dlopen *)
}

let n_compiles = Atomic.make 0
let n_disk_hits = Atomic.make 0
let n_memo_hits = Atomic.make 0
let cc_ns = Atomic.make 0
let dlopen_ns = Atomic.make 0

let counters () =
  {
    c_compiles = Atomic.get n_compiles;
    c_disk_hits = Atomic.get n_disk_hits;
    c_memo_hits = Atomic.get n_memo_hits;
    c_cc_ns = Atomic.get cc_ns;
    c_dlopen_ns = Atomic.get dlopen_ns;
  }

let reset_counters () =
  Atomic.set n_compiles 0;
  Atomic.set n_disk_hits 0;
  Atomic.set n_memo_hits 0;
  Atomic.set cc_ns 0;
  Atomic.set dlopen_ns 0

(* Run [f], adding its wall time to [total] whether it returns or
   raises. *)
let timed total f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> ignore (Atomic.fetch_and_add total (Clock.now_ns () - t0))) f

(* {2 Compilation} *)

type compiled = {
  kernel : Cast.kernel;
  bindings : Native_c.binding array;  (** one per parameter, in order *)
  alias_pairs : (Native_c.binding * Native_c.binding) array;
      (** the parameter pairs the [restrict] promise covers: each
          written buffer (per [Native_c.written_params]) with every other
          parameter *)
  grouped : bool;
  noalias : bool;  (** source rendered with [restrict] qualifiers *)
  n_fb : int;
  n_ib : int;
  n_u8b : int;
  n_isc : int;
  n_fsc : int;
  fn : nativeint;
  key : string;
  so_path : string;
}

let source ?noalias k = Native_c.kernel_source ?noalias k

(* The salt names the entry ABI (v3: int arrays as tagged words, plus a
   slot array for byte buffers).  Bump it whenever the ABI changes, so a
   cached binary of another ABI is never loaded.  The prelude and the
   link line need no bump: the source and [fixed_args] are keyed
   whole. *)
let key_of_source src =
  let fl, libs = fixed_args () in
  Digest.to_hex (Digest.string (String.concat "\x00" [ "racs-native-v3"; cc (); fl; libs; src ]))

(* Key of the binary a kernel would compile to under the current
   toolchain configuration (exposed so tests can check that different
   optimization outcomes produce different cache entries). *)
let cache_key (k : Cast.kernel) = key_of_source (source k)

exception No_compiler of string

let run_cc ~src_path ~out_path =
  let err_path = out_path ^ ".err" in
  let fl, libs = fixed_args () in
  let cmd =
    Printf.sprintf "%s %s %s -o %s %s 2> %s" (cc ()) fl (Filename.quote src_path)
      (Filename.quote out_path) libs (Filename.quote err_path)
  in
  let rc = timed cc_ns (fun () -> Sys.command cmd) in
  let err =
    if Sys.file_exists err_path then (
      let ic = open_in_bin err_path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      (try Sys.remove err_path with Sys_error _ -> ());
      s)
    else ""
  in
  (* 126 and 127: the shell could not execute the command (no execute
     permission, or no such command), so nothing was compiled at all;
     any other failure is the compiler rejecting the source *)
  if rc = 126 || rc = 127 then raise (No_compiler (cc ()));
  if rc <> 0 then
    failwith (Printf.sprintf "native: C compilation failed (%s, exit %d)\n%s" (cc ()) rc err)

let write_file path contents =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Unix.rename tmp path

(* A cached object is trusted only if it starts with a shared-object
   magic number (ELF, or Mach-O on macOS).  This matters beyond being a
   cheap sanity check: dlopen dedupes already-loaded libraries by
   device/inode, so handing it a clobbered-in-place entry whose inode is
   still mapped would *succeed* with a stale handle instead of failing —
   the magic check catches corruption before dlopen ever sees it. *)
let looks_like_shared_object path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      let magic = really_input_string ic (min 4 (in_channel_length ic)) in
      close_in ic;
      String.length magic = 4
      && (String.equal magic "\x7fELF"
         || String.equal magic "\xcf\xfa\xed\xfe"
         || String.equal magic "\xfe\xed\xfa\xcf")

let load path = timed dlopen_ns (fun () -> dl_open path)

(* Compile [src] (or reuse the cached object) and return the loaded
   shared object's path and handle. *)
let compile_source ~key src =
  let dir = cache_dir () in
  let so_path = Filename.concat dir (key ^ ".so") in
  let c_path = Filename.concat dir (key ^ ".c") in
  let build () =
    write_file c_path src;
    let tmp_so = Printf.sprintf "%s.%d.tmp" so_path (Unix.getpid ()) in
    run_cc ~src_path:c_path ~out_path:tmp_so;
    Unix.rename tmp_so so_path;
    Atomic.incr n_compiles;
    load so_path
  in
  if Sys.file_exists so_path && looks_like_shared_object so_path then (
    match load so_path with
    | h ->
        Atomic.incr n_disk_hits;
        (so_path, h)
    | exception Failure _ ->
        (* corrupt or truncated entry: rebuild over it *)
        (so_path, build ()))
  else (so_path, build ())

(* In-process memo: digest -> compiled, shared across runtimes and
   domains. *)
let memo : (string, compiled) Hashtbl.t = Hashtbl.create 16
let memo_mutex = Mutex.create ()

let reset_memo () =
  Mutex.lock memo_mutex;
  Hashtbl.reset memo;
  Mutex.unlock memo_mutex

(* Slots per ABI category: real, int and byte buffers, int and real
   scalars. *)
let count_bindings bs =
  let n = Array.make 5 0 in
  Array.iter
    (fun (b : Native_c.binding) ->
      let c =
        match b with
        | Arg_fbuf _ -> 0
        | Arg_ibuf _ -> 1
        | Arg_u8buf _ -> 2
        | Arg_iscalar _ -> 3
        | Arg_rscalar _ -> 4
      in
      n.(c) <- n.(c) + 1)
    bs;
  n

(* The generated C marks buffer parameters [restrict], which is licensed
   only when no written buffer is bound to the same array as any other
   buffer parameter.  Read-only buffers may alias each other freely —
   C99 restrict only constrains objects that are modified. *)
let alias_pairs (k : Cast.kernel) bindings =
  let written = Native_c.written_params k in
  let w = Array.of_list (List.map (fun (p : Cast.param) -> List.mem p.p_name written) k.params) in
  let pairs = ref [] in
  for i = 0 to Array.length bindings - 1 do
    for j = i + 1 to Array.length bindings - 1 do
      if w.(i) || w.(j) then pairs := (bindings.(i), bindings.(j)) :: !pairs
    done
  done;
  Array.of_list (List.rev !pairs)

let compile ?(noalias = true) (k : Cast.kernel) : compiled =
  let src = source ~noalias k in
  let key = key_of_source src in
  Mutex.lock memo_mutex;
  match Hashtbl.find_opt memo key with
  | Some c ->
      Atomic.incr n_memo_hits;
      Mutex.unlock memo_mutex;
      c
  | None ->
      (* hold the lock through the compile: concurrent domains asking
         for the same kernel must not race cc on the same cache entry *)
      let result =
        try
          let so_path, handle = compile_source ~key src in
          let fn = dl_sym handle Native_c.entry_symbol in
          let bindings = Array.of_list (Native_c.bindings k) in
          let n = count_bindings bindings in
          let c =
            {
              kernel = k;
              bindings;
              alias_pairs = alias_pairs k bindings;
              grouped = Cast.grouped k;
              noalias;
              n_fb = n.(0);
              n_ib = n.(1);
              n_u8b = n.(2);
              n_isc = n.(3);
              n_fsc = n.(4);
              fn;
              key;
              so_path;
            }
          in
          Hashtbl.replace memo key c;
          Ok c
        with e -> Error e
      in
      Mutex.unlock memo_mutex;
      (match result with Ok c -> c | Error e -> raise e)

(* {2 Launch}

   A launcher holds one compiled kernel's packet: the slot arrays and
   the NDRange the trampoline reads.  A dispatch fills the slots from
   the arguments, checks the restrict promise by comparing the written
   slots physically, and calls the entry; none of the three allocates.
   Between launches the slots hold OCaml references only — the
   trampoline derives raw pointers at the call, since a minor collection
   may move an array — so a launcher keeps its last arguments alive and
   belongs to the one runtime that made it, never to the process-wide
   memo. *)

type launcher = {
  l_c : compiled;
  mutable l_plain : compiled option;
      (* the [~noalias:false] compile, fetched at the first aliased launch *)
  l_pk : packet;
}

let launcher (c : compiled) =
  {
    l_c = c;
    l_plain = None;
    l_pk =
      {
        pk_fn = c.fn;
        pk_fb = Array.make (max 1 c.n_fb) [||];
        pk_ib = Array.make (max 1 c.n_ib) [||];
        pk_u8b = Array.make (max 1 c.n_u8b) Bytes.empty;
        pk_isc = Array.make (max 1 c.n_isc) 0;
        pk_fsc = Array.make (max 1 c.n_fsc) 0.;
        pk_gsz = [| 1; 1; 1 |];
      };
  }

(* Scalar coercions: a real argument to an int parameter truncates, an
   int argument to a real parameter widens. *)
let fill (c : compiled) (pk : packet) (args : Args.t array) =
  if Array.length args <> Array.length c.bindings then
    invalid_arg
      (Printf.sprintf "vgpu native: kernel %s expects %d args, got %d" c.kernel.name
         (Array.length c.bindings) (Array.length args));
  for i = 0 to Array.length args - 1 do
    match (c.bindings.(i), args.(i)) with
    | Arg_fbuf s, Buf (Buffer.F arr) -> pk.pk_fb.(s) <- arr
    | Arg_ibuf s, Buf (Buffer.I arr) -> pk.pk_ib.(s) <- arr
    | Arg_u8buf s, Buf (Buffer.U8 b) -> pk.pk_u8b.(s) <- b
    | Arg_iscalar s, Int_arg v -> pk.pk_isc.(s) <- v
    | Arg_rscalar s, Real_arg v -> pk.pk_fsc.(s) <- v
    | Arg_iscalar s, Real_arg v -> pk.pk_isc.(s) <- int_of_float v
    | Arg_rscalar s, Int_arg v -> pk.pk_fsc.(s) <- float_of_int v
    | _ ->
        invalid_arg
          (Printf.sprintf "vgpu native: kernel %s: argument kind or storage mismatch"
             c.kernel.name)
  done

let rec fill_global gsz d = function
  | [] -> ()
  | n :: rest ->
      gsz.(d) <- n;
      fill_global gsz (d + 1) rest

(* Does the binding in [pk] break the restrict promise?  Buffers of
   different storage kinds, and scalars, never share an array. *)
let aliased (c : compiled) (pk : packet) =
  let hazard = ref false in
  for i = 0 to Array.length c.alias_pairs - 1 do
    match c.alias_pairs.(i) with
    | Arg_fbuf a, Arg_fbuf b -> if pk.pk_fb.(a) == pk.pk_fb.(b) then hazard := true
    | Arg_ibuf a, Arg_ibuf b -> if pk.pk_ib.(a) == pk.pk_ib.(b) then hazard := true
    | Arg_u8buf a, Arg_u8buf b -> if pk.pk_u8b.(a) == pk.pk_u8b.(b) then hazard := true
    | _ -> ()
  done;
  !hazard

(* Run the full NDRange ([global] padded to 3 dimensions with 1s).  An
   aliased launch would break the restrict promise, so it dispatches the
   no-restrict rendering of the same kernel instead (its own
   content-addressed cache entry, compiled at most once); both
   renderings share the slot layout. *)
let dispatch (l : launcher) (args : Args.t array) ~(global : int list) =
  let c = l.l_c and pk = l.l_pk in
  fill c pk args;
  pk.pk_gsz.(0) <- 1;
  pk.pk_gsz.(1) <- 1;
  pk.pk_gsz.(2) <- 1;
  fill_global pk.pk_gsz 0 global;
  let c =
    if c.noalias && aliased c pk then (
      match l.l_plain with
      | Some p -> p
      | None ->
          let p = compile ~noalias:false c.kernel in
          l.l_plain <- Some p;
          p)
    else c
  in
  (* the compiled group loops truncate-divide the NDRange, so reject a
     non-dividing launch here like the other engines *)
  if c.grouped then ignore (Cast.group_counts c.kernel ~global:pk.pk_gsz);
  pk.pk_fn <- c.fn;
  launch_packet pk

let launch (c : compiled) ~(args : Args.t list) ~(global : int list) =
  dispatch (launcher c) (Array.of_list args) ~global
