(* Native compiled backend: the fast engine next to the reference
   interpreter [Exec].

   A kernel is rendered to portable C ([Kernel_ast.Native_c]), compiled
   by the system C compiler into a shared object, dlopened, and
   launched through a C trampoline (native_stubs.c) that passes OCaml
   buffers to the compiled entry.  The compiler flags pin IEEE
   semantics ([-fno-fast-math -ffp-contract=off]) so results are
   bit-identical to the interpreter.

   There is one build path, the batch ([build]): the kernels that miss
   the memo and the disk cache are rendered into one translation unit —
   one prelude, one entry per kernel — and built by a single [cc] run,
   since a [cc] process costs most of its time before it reads a line
   of kernel code.  [compile] is the one-kernel batch.

   Shared objects are kept in a content-addressed on-disk cache.  A
   kernel's key digests its entry's text plus the prelude and the
   compiler command line: the entry is a faithful function of (kernel
   AST x precision), and optimization changes the AST hence the entry,
   so the key covers everything the kernel's code depends on.  The
   entry is exported under a name made from its key, so any object
   holding it serves that key: a batch's object is installed under
   every member's own [<key>.so], each a hard link made by an atomic
   rename, and a later process loads each kernel with one [dlopen] of
   its own entry.  A cache entry that fails to dlopen, or lacks its
   symbol, is treated as corrupt and rebuilt over.

   Within a process, builds are memoized by the same key under a mutex:
   a runtime asking for a kernel another device already loaded reuses
   the handle. *)

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
  mutable pk_spans : int array;  (* the launch's [Spans.t] *)
}

external launch_packet : packet -> unit = "racs_native_launch"

(* {2 Toolchain configuration} *)

let cc () = match Sys.getenv_opt "RACS_CC" with Some c when c <> "" -> c | _ -> "cc"

(* -fno-fast-math -ffp-contract=off: no FMA contraction or reassociation,
   keeping every double operation individually rounded like the OCaml
   engines; -fwrapv: OCaml-style wraparound on the (unreachable in
   generated kernels) signed-overflow paths; -nostdlib: no C start files
   and no default libraries, since no kernel runs start-up code.  libm
   is linked explicitly, into the units that call it (see [libs]).  A
   libc symbol a binary imports ([memset] for a large private array,
   [__stack_chk_fail] under a default stack protector) resolves at the
   [RTLD_NOW] dlopen against the libc the process has loaded. *)
let default_flags = "-O2 -fPIC -shared -nostdlib -fno-fast-math -ffp-contract=off -fwrapv"

let flags () =
  match Sys.getenv_opt "RACS_CFLAGS" with Some f when f <> "" -> f | _ -> default_flags

(* The libraries an entry needs after the output file, where the linker
   resolves the object's undefined symbols: libm for an entry calling
   one of the prelude's libm functions, none otherwise (linking it cost
   about 3 ms of a cold [cc] run that needs none).  A unit links the
   union of its members'.  The cache key digests an entry's own. *)
let libs k = if Native_c.calls_libm k then "-lm" else ""

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
  c_kernels_built : int;  (** kernels those cc runs built *)
  c_disk_hits : int;  (** shared object found on disk and loaded *)
  c_memo_hits : int;  (** in-process memo hit, no disk access *)
  c_cc_ns : int;  (** wall time in cc runs *)
  c_dlopen_ns : int;  (** wall time in dlopen *)
}

let n_compiles = Atomic.make 0
let n_built = Atomic.make 0
let n_disk_hits = Atomic.make 0
let n_memo_hits = Atomic.make 0
let cc_ns = Atomic.make 0
let dlopen_ns = Atomic.make 0

let counters () =
  {
    c_compiles = Atomic.get n_compiles;
    c_kernels_built = Atomic.get n_built;
    c_disk_hits = Atomic.get n_disk_hits;
    c_memo_hits = Atomic.get n_memo_hits;
    c_cc_ns = Atomic.get cc_ns;
    c_dlopen_ns = Atomic.get dlopen_ns;
  }

let reset_counters () =
  List.iter (fun a -> Atomic.set a 0) [ n_compiles; n_built; n_disk_hits; n_memo_hits; cc_ns; dlopen_ns ]

(* Run [f], adding its wall time to [total] whether it returns or
   raises. *)
let timed total f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> ignore (Atomic.fetch_and_add total (Clock.now_ns () - t0))) f

(* {2 Batch members} *)

type compiled = {
  kernel : Cast.kernel;
  bindings : Native_c.binding array;  (** one per parameter, in order *)
  alias_pairs : (Native_c.binding * Native_c.binding) array;
      (** the parameter pairs the [restrict] promise covers: each
          written buffer (per [Native_c.written_params]) with every other
          parameter *)
  noalias : bool;  (** source rendered with [restrict] qualifiers *)
  n_fb : int;
  n_ib : int;
  n_u8b : int;
  n_isc : int;
  n_fsc : int;
  fn : nativeint;
}

(* A kernel as a member of a batch: its entry's text and the key it
   gives under the current toolchain. *)
type member = {
  m_kernel : Cast.kernel;
  m_noalias : bool;
  m_entry : string;
  m_libs : string;  (* what the entry needs linked ([libs]) *)
  m_key : string;
}

(* The salt names the entry ABI (v5: a span table after the NDRange
   sizes; v4: entries named by their key, many to a unit; v3: int arrays
   as tagged words, plus a slot array for byte buffers).  Bump it
   whenever the ABI or the unit's fixed framing changes, so a cached
   binary of another ABI is never loaded.  The prelude, the entry and
   its link line need no bump: they are keyed whole. *)
let key_of_entry ~libs entry =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ "racs-native-v5"; cc (); flags (); libs; Native_c.preamble; entry ]))

let member ~noalias k =
  let entry = Native_c.entry_source ~noalias k and libs = libs k in
  {
    m_kernel = k;
    m_noalias = noalias;
    m_entry = entry;
    m_libs = libs;
    m_key = key_of_entry ~libs entry;
  }

(* The exported name of a member's entry. *)
let symbol key = "racs_kernel_" ^ key

let unit_source ms = Native_c.translation_unit (List.map (fun m -> (symbol m.m_key, m.m_entry)) ms)
let source ?(noalias = true) k = unit_source [ member ~noalias k ]

(* Key of the binary a kernel would compile to under the current
   toolchain configuration (exposed so tests can check that different
   optimization outcomes produce different cache entries). *)
let cache_key (k : Cast.kernel) = (member ~noalias:true k).m_key

exception No_compiler of string

let run_cc ~what ~libs ~src_path ~out_path =
  let err_path = out_path ^ ".err" in
  let cmd =
    Printf.sprintf "%s %s %s -o %s %s 2> %s" (cc ()) (flags ()) (Filename.quote src_path)
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
    failwith (Printf.sprintf "native: C compilation failed for %s (%s, exit %d)\n%s" what (cc ()) rc err)

let tmp_name path = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ())

let write_file path contents =
  let tmp = tmp_name path in
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

(* The generated C marks the entry body's buffer parameters [restrict],
   which is licensed only when no written buffer is bound to the same
   array as any other buffer parameter.  Read-only buffers may alias
   each other freely — C99 restrict only constrains objects that are
   modified. *)
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

let so_path key = Filename.concat (cache_dir ()) (key ^ ".so")

(* Load a member's installed object and find its entry.
   @raise Failure when dlopen or dlsym fails. *)
let load_member m =
  let fn = dl_sym (load (so_path m.m_key)) (symbol m.m_key) in
  let k = m.m_kernel in
  let bindings = Array.of_list (Native_c.bindings k) in
  let n = count_bindings bindings in
  {
    kernel = k;
    bindings;
    alias_pairs = alias_pairs k bindings;
    noalias = m.m_noalias;
    n_fb = n.(0);
    n_ib = n.(1);
    n_u8b = n.(2);
    n_isc = n.(3);
    n_fsc = n.(4);
    fn;
  }

(* The member's cached object, or [None] when there is none or it is
   corrupt: no shared-object magic, a failing dlopen, or no entry under
   the member's name. *)
let cached m =
  let path = so_path m.m_key in
  if Sys.file_exists path && looks_like_shared_object path then
    match load_member m with
    | c ->
        Atomic.incr n_disk_hits;
        Some c
    | exception Failure _ -> None
  else None

(* Install a freshly built object [tmp] under each member's key: one
   member takes it by rename; several each get a hard link, renamed into
   place so a concurrent reader sees the old entry or the whole new one
   (a copy where the file system has no hard links). *)
let install tmp = function
  | [ m ] -> Unix.rename tmp (so_path m.m_key)
  | ms ->
      List.iter
        (fun m ->
          let dst = so_path m.m_key in
          let staged = tmp_name dst in
          (try Unix.link tmp staged
           with Unix.Unix_error _ ->
             write_file staged (In_channel.with_open_bin tmp In_channel.input_all));
          Unix.rename staged dst)
        ms;
      Sys.remove tmp

(* One [cc] run for members of distinct keys.  The unit's source is kept
   as [<id>.c] beside the objects: [id] is the sole member's key, or a
   digest of the members' keys.
   @raise No_compiler, or Failure when cc or a load fails. *)
let build_unit ms =
  let id =
    match ms with
    | [ m ] -> m.m_key
    | _ -> Digest.to_hex (Digest.string (String.concat "" (List.map (fun m -> m.m_key) ms)))
  in
  let base = Filename.concat (cache_dir ()) id in
  write_file (base ^ ".c") (unit_source ms);
  let tmp = tmp_name (base ^ ".so") in
  let what =
    match ms with
    | [ m ] -> "kernel " ^ m.m_kernel.Cast.name
    | _ -> Printf.sprintf "a unit of %d kernels" (List.length ms)
  in
  let libs = if List.exists (fun m -> m.m_libs <> "") ms then "-lm" else "" in
  run_cc ~what ~libs ~src_path:(base ^ ".c") ~out_path:tmp;
  Atomic.incr n_compiles;
  ignore (Atomic.fetch_and_add n_built (List.length ms));
  install tmp ms;
  List.map (fun m -> (m.m_key, Ok (load_member m))) ms

(* Build members of distinct keys.  When a unit of several fails, its
   members are built one at a time: the error names the kernel at
   fault, and the others still load.  No compiler at all fails every
   member at once. *)
let rec build_members ms =
  match build_unit ms with
  | built -> built
  | exception (Failure _ | Unix.Unix_error _ | Sys_error _) when List.compare_length_with ms 1 > 0
    ->
      List.concat_map (fun m -> build_members [ m ]) ms
  | exception e -> List.map (fun m -> (m.m_key, Error e)) ms

(* In-process memo: key -> compiled, shared across runtimes and
   domains. *)
let memo : (string, compiled) Hashtbl.t = Hashtbl.create 16
let memo_mutex = Mutex.create ()

let reset_memo () =
  Mutex.lock memo_mutex;
  Hashtbl.reset memo;
  Mutex.unlock memo_mutex

(* Each kernel from the memo, else the disk cache, else one [cc] run for
   all the rest.  The lock is held through the build: concurrent domains
   asking for the same kernel must not race cc on the same cache
   entry. *)
let build ?(noalias = true) (ks : Cast.kernel list) =
  let ms = List.map (member ~noalias) ks in
  Mutex.lock memo_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock memo_mutex)
    (fun () ->
      let got = Hashtbl.create 8 and missing = ref [] in
      List.iter
        (fun m ->
          match Hashtbl.find_opt memo m.m_key with
          | Some c ->
              Atomic.incr n_memo_hits;
              Hashtbl.replace got m.m_key (Ok c)
          | None when Hashtbl.mem got m.m_key || List.exists (fun m' -> m'.m_key = m.m_key) !missing
            ->
              (* the batch has this key already: the memo will hold it *)
              Atomic.incr n_memo_hits
          | None -> (
              match cached m with
              | Some c ->
                  Hashtbl.replace memo m.m_key c;
                  Hashtbl.replace got m.m_key (Ok c)
              | None -> missing := m :: !missing))
        ms;
      if !missing <> [] then
        List.iter
          (fun (key, r) ->
            (match r with Ok c -> Hashtbl.replace memo key c | Error _ -> ());
            Hashtbl.replace got key r)
          (build_members (List.rev !missing));
      List.map (fun m -> Hashtbl.find got m.m_key) ms)

let compile ?noalias k =
  match build ?noalias [ k ] with [ Ok c ] -> c | [ Error e ] -> raise e | _ -> assert false

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
  l_full : int array;  (* a plain launch's one span [0, gsz0), rewritten per launch *)
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
        pk_spans = [||];
      };
    l_full = [| 0; 1 |];
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

(* [global] past the third entry holds only 1s (the rank rule). *)
let rec fill_global gsz d = function
  | [] -> ()
  | n :: rest ->
      if d < 3 then gsz.(d) <- n;
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

(* Run the NDRange ([global] padded to 3 dimensions with 1s), dimension
   0 over [spans], or over the one span [0, global0) of a plain launch,
   which the launcher keeps: the entry has one loop form.  The entry
   loops only over the dimensions the kernel declares, so a launch
   breaking the rank rule is refused first.  An aliased launch would
   break the restrict promise, so it dispatches the no-restrict
   rendering of the same kernel instead (its own content-addressed cache
   entry, compiled at most once); both renderings share the slot
   layout. *)
let dispatch ?spans (l : launcher) (args : Args.t array) ~(global : int list) =
  let c = l.l_c and pk = l.l_pk in
  Cast.check_ndrange c.kernel ~global;
  fill c pk args;
  pk.pk_gsz.(0) <- 1;
  pk.pk_gsz.(1) <- 1;
  pk.pk_gsz.(2) <- 1;
  fill_global pk.pk_gsz 0 global;
  (match spans with
  | Some s ->
      Spans.check s ~n:pk.pk_gsz.(0);
      pk.pk_spans <- (s :> int array)
  | None ->
      l.l_full.(1) <- pk.pk_gsz.(0);
      pk.pk_spans <- l.l_full);
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
  pk.pk_fn <- c.fn;
  launch_packet pk

let launch ?spans (c : compiled) ~(args : Args.t list) ~(global : int list) =
  dispatch ?spans (launcher c) (Array.of_list args) ~global
