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
  pk_fn : nativeint;
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
   generated kernels) signed-overflow paths. *)
let default_flags = "-O2 -fPIC -shared -fno-fast-math -ffp-contract=off -fwrapv"

let flags () =
  match Sys.getenv_opt "RACS_CFLAGS" with Some f when f <> "" -> f | _ -> default_flags

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

   Atomics: compilations can happen on async-queue worker domains. *)

type counters = {
  c_compiles : int;  (** cc actually ran *)
  c_disk_hits : int;  (** shared object found on disk and loaded *)
  c_memo_hits : int;  (** in-process memo hit, no disk access *)
}

let n_compiles = Atomic.make 0
let n_disk_hits = Atomic.make 0
let n_memo_hits = Atomic.make 0

let counters () =
  {
    c_compiles = Atomic.get n_compiles;
    c_disk_hits = Atomic.get n_disk_hits;
    c_memo_hits = Atomic.get n_memo_hits;
  }

let reset_counters () =
  Atomic.set n_compiles 0;
  Atomic.set n_disk_hits 0;
  Atomic.set n_memo_hits 0

(* {2 Compilation} *)

type compiled = {
  kernel : Cast.kernel;
  bindings : Native_c.binding list;
  written : bool list;  (** per param: is it in [Native_c.written_params]? *)
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
   cached binary of another ABI is never loaded. *)
let key_of_source src =
  Digest.to_hex (Digest.string (String.concat "\x00" [ "racs-native-v3"; cc (); flags (); src ]))

(* Key of the binary a kernel would compile to under the current
   toolchain configuration (exposed so tests can check that different
   optimization outcomes produce different cache entries). *)
let cache_key (k : Cast.kernel) = key_of_source (source k)

exception No_compiler of string

let run_cc ~src_path ~out_path =
  let err_path = out_path ^ ".err" in
  let cmd =
    Printf.sprintf "%s %s %s -o %s -lm 2> %s" (cc ()) (flags ()) (Filename.quote src_path)
      (Filename.quote out_path) (Filename.quote err_path)
  in
  let rc = Sys.command cmd in
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
  (* 127: the shell found no such command, so nothing was compiled at
     all; any other failure is the compiler rejecting the source *)
  if rc = 127 then raise (No_compiler (cc ()));
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
    dl_open so_path
  in
  if Sys.file_exists so_path && looks_like_shared_object so_path then (
    match dl_open so_path with
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
  List.iter
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
          let bindings = Native_c.bindings k in
          let written_names = Native_c.written_params k in
          let written = List.map (fun p -> List.mem p.Cast.p_name written_names) k.params in
          let n = count_bindings bindings in
          let c =
            {
              kernel = k;
              bindings;
              written;
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

(* {2 Launch} *)

(* The generated C marks buffer parameters [restrict], which is licensed
   only when no written buffer (per [Native_c.written_params]) is bound
   to the same array as any other buffer parameter.  Read-only buffers
   may alias each other freely — C99 restrict only constrains objects
   that are modified. *)
let alias_hazard (c : compiled) (args : Args.t list) =
  let bufs =
    List.fold_left2
      (fun acc w (a : Args.t) ->
        match a with
        | Buf (Buffer.F arr) -> (`F arr, w) :: acc
        | Buf (Buffer.I arr) -> (`I arr, w) :: acc
        | Buf (Buffer.U8 b) -> (`U8 b, w) :: acc
        | _ -> acc)
      [] c.written args
  in
  let same a b =
    match (a, b) with
    | `F x, `F y -> x == y
    | `I x, `I y -> x == y
    | `U8 x, `U8 y -> x == y
    | _ -> false
  in
  let rec go = function
    | [] -> false
    | (a, w) :: rest -> List.exists (fun (b, w') -> same a b && (w || w')) rest || go rest
  in
  go bufs

let launch (c : compiled) ~(args : Args.t list) ~(global : int list) =
  if List.length args <> List.length c.kernel.params then
    invalid_arg
      (Printf.sprintf "vgpu native: kernel %s expects %d args, got %d" c.kernel.name
         (List.length c.kernel.params) (List.length args));
  (* an aliased launch would break the restrict promise: dispatch the
     no-restrict rendering of the same kernel instead (its own
     content-addressed cache entry, compiled at most once) *)
  let c = if c.noalias && alias_hazard c args then compile ~noalias:false c.kernel else c in
  let fb = Array.make (max 1 c.n_fb) [||] in
  let ib = Array.make (max 1 c.n_ib) [||] in
  let u8b = Array.make (max 1 c.n_u8b) Bytes.empty in
  let isc = Array.make (max 1 c.n_isc) 0 in
  let fsc = Array.make (max 1 c.n_fsc) 0. in
  (* scalar coercions: a real argument to an int parameter truncates,
     an int argument to a real parameter widens *)
  List.iter2
    (fun (b : Native_c.binding) (a : Args.t) ->
      match (b, a) with
      | Arg_fbuf s, Buf (Buffer.F arr) -> fb.(s) <- arr
      | Arg_ibuf s, Buf (Buffer.I arr) -> ib.(s) <- arr
      | Arg_u8buf s, Buf (Buffer.U8 b) -> u8b.(s) <- b
      | Arg_iscalar s, Int_arg v -> isc.(s) <- v
      | Arg_rscalar s, Real_arg v -> fsc.(s) <- v
      | Arg_iscalar s, Real_arg v -> isc.(s) <- int_of_float v
      | Arg_rscalar s, Int_arg v -> fsc.(s) <- float_of_int v
      | _ ->
          invalid_arg
            (Printf.sprintf "vgpu native: kernel %s: argument kind or storage mismatch"
               c.kernel.name))
    c.bindings args;
  let gsz = [| 1; 1; 1 |] in
  List.iteri (fun d n -> gsz.(d) <- n) global;
  (* the compiled group loops truncate-divide the NDRange, so reject a
     non-dividing launch here like the other engines *)
  if Cast.grouped c.kernel then ignore (Cast.group_counts c.kernel ~global:gsz);
  launch_packet
    { pk_fn = c.fn; pk_fb = fb; pk_ib = ib; pk_u8b = u8b; pk_isc = isc; pk_fsc = fsc; pk_gsz = gsz }
