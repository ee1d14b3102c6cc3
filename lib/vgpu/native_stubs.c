/* C stubs for the native compiled backend.
 *
 * Three concerns live here: a thin dlopen/dlsym/dlclose wrapper
 * (handles travel as nativeint), the launch trampoline that hands OCaml
 * buffers to a compiled kernel entry, and the monotonic clock that
 * times launches (Clock).
 *
 * The trampoline performs no OCaml allocation between reading the
 * packet and returning, so the GC cannot run on this domain and no
 * block can move while the kernel holds raw pointers into the heap.
 * Every buffer is passed in place: a float array is a flat double
 * vector, an int array is a vector of tagged words that the generated
 * code untags on load and retags on store (Native_c), and a byte
 * buffer (Bytes.t) is a flat uint8_t vector.  So is the launch's span
 * table, an int array of tagged words.  A store writes an
 * immediate or raw bytes, neither of which needs a write barrier.  The domain
 * keeps the runtime lock for the whole launch; a concurrent domain
 * requesting a stop-the-world collection simply waits until the kernel
 * returns (launches are the unit of work of the whole simulator).
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

#include <dlfcn.h>
#include <stdint.h>
#include <time.h>

_Static_assert(sizeof(intnat) == sizeof(int64_t),
               "the native engine passes OCaml int arrays as int64_t words");

CAMLprim value racs_native_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *h;
  (void)dlerror();
  h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlopen failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value racs_native_dlsym(value vh, value vname)
{
  CAMLparam2(vh, vname);
  void *fn;
  (void)dlerror();
  fn = dlsym((void *)Nativeint_val(vh), String_val(vname));
  if (fn == NULL) {
    const char *err = dlerror();
    caml_failwith(err != NULL ? err : "dlsym failed");
  }
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value racs_native_dlclose(value vh)
{
  (void)dlclose((void *)Nativeint_val(vh));
  return Val_unit;
}

/* Must match Native_c.entry_macro's signature. */
typedef void (*racs_kernel_fn)(double **fb, int64_t **ib, uint8_t **u8b,
                               const int64_t *isc, const double *fsc,
                               const int64_t *gsz,
                               const int64_t *sp, int64_t nsp);

#define RACS_MAX_SLOTS 64

/* value layout of Native.packet — field order is the record's
 * declaration order: fn, fb, ib, u8b, isc, fsc, gsz, spans.  The span
 * table (Vgpu.Spans: [lo, hi) pairs) is an int array passed in place,
 * as tagged words the entry untags. */
CAMLprim value racs_native_launch(value vpk)
{
  value vfn = Field(vpk, 0);
  value vfb = Field(vpk, 1);
  value vib = Field(vpk, 2);
  value vu8b = Field(vpk, 3);
  value visc = Field(vpk, 4);
  value vfsc = Field(vpk, 5);
  value vgsz = Field(vpk, 6);
  value vsp = Field(vpk, 7);

  racs_kernel_fn fn = (racs_kernel_fn)Nativeint_val(vfn);

  mlsize_t nfb = Wosize_val(vfb);
  mlsize_t nib = Wosize_val(vib);
  mlsize_t nu8b = Wosize_val(vu8b);
  mlsize_t nisc = Wosize_val(visc);
  mlsize_t i;

  double *fb[RACS_MAX_SLOTS];
  int64_t *ib[RACS_MAX_SLOTS];
  uint8_t *u8b[RACS_MAX_SLOTS];
  int64_t isc[RACS_MAX_SLOTS];
  int64_t gsz[3];

  if (nfb > RACS_MAX_SLOTS || nib > RACS_MAX_SLOTS || nu8b > RACS_MAX_SLOTS
      || nisc > RACS_MAX_SLOTS)
    caml_invalid_argument("racs_native_launch: too many kernel parameters");
  if (Wosize_val(vgsz) != 3)
    caml_invalid_argument("racs_native_launch: gsz must have 3 entries");

  for (i = 0; i < nfb; i++)
    fb[i] = (double *)Field(vfb, i); /* float array: flat double vector */
  for (i = 0; i < nib; i++)
    ib[i] = (int64_t *)Op_val(Field(vib, i)); /* int array: tagged words */
  for (i = 0; i < nu8b; i++)
    u8b[i] = (uint8_t *)Bytes_val(Field(vu8b, i)); /* bytes: flat uint8_t */
  for (i = 0; i < nisc; i++) isc[i] = (int64_t)Long_val(Field(visc, i));
  for (i = 0; i < 3; i++) gsz[i] = (int64_t)Long_val(Field(vgsz, i));

  fn(fb, ib, u8b, isc, (const double *)vfsc, gsz, (const int64_t *)Op_val(vsp),
     (int64_t)(Wosize_val(vsp) / 2));
  return Val_unit;
}

/* CLOCK_MONOTONIC in nanoseconds, as an OCaml int: immune to wall-clock
 * adjustments and finer than gettimeofday's microsecond.  Allocates
 * nothing, so it is declared [@@noalloc]. */
CAMLprim value racs_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
