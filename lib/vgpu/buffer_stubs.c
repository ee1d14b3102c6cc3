/* C stubs for Buffer's allocator of large zeroed host arrays.
 *
 * A large OCaml block comes from the major heap's large-object path,
 * which takes fresh memory from malloc and does not touch its pages.
 * Advising the block's 2 MiB-aligned interior with MADV_HUGEPAGE before
 * anything writes to it lets the first write fault it in 2 MiB pages
 * when transparent huge pages are in "madvise" (or "always") mode.
 * Where MADV_HUGEPAGE is not defined, or the kernel refuses the advice,
 * nothing happens and the pages fault in as they always did.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

#include <stdint.h>
#include <string.h>
#include <sys/mman.h>

#define RACS_HUGE_PAGE ((uintptr_t)2 << 20)

static void advise_interior(char *p, uintptr_t bytes)
{
#ifdef MADV_HUGEPAGE
  uintptr_t lo = ((uintptr_t)p + RACS_HUGE_PAGE - 1) & ~(RACS_HUGE_PAGE - 1);
  uintptr_t hi = ((uintptr_t)p + bytes) & ~(RACS_HUGE_PAGE - 1);
  if (hi > lo) (void)madvise((void *)lo, hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

/* Advise a block (a float array or bytes) whose contents nothing has
 * written yet, then zero its first [bytes] bytes. */
CAMLprim value racs_zero_huge(value v, value vbytes)
{
  char *p = (char *)Op_val(v);
  advise_interior(p, Bosize_val(v));
  memset(p, 0, Long_val(vbytes));
  return Val_unit;
}

/* An int array of [len] zeros, as the runtime's caml_make_vect builds a
 * major-heap array: allocate, advise, then store the immediate 0 in
 * every field before anything can run the GC, which scans the block. */
CAMLprim value racs_zeros_int(value vlen)
{
  CAMLparam0();
  CAMLlocal1(res);
  mlsize_t n = Long_val(vlen), i;
  if (n == 0) CAMLreturn(Atom(0));
  if (n > Max_wosize) caml_invalid_argument("Buffer.zeros_int");
  res = caml_alloc_shr(n, 0);
  advise_interior((char *)Op_val(res), Bsize_wsize(n));
  for (i = 0; i < n; i++) Field(res, i) = Val_int(0);
  caml_process_pending_actions();
  CAMLreturn(res);
}

/* An int array holding each byte of [vb], built as racs_zeros_int builds
 * its zeros: allocate, advise, then store [Val_int] of every byte
 * before anything can run the GC.  The source is read after the
 * allocation, through the registered root. */
CAMLprim value racs_ints_of_bytes(value vb)
{
  CAMLparam1(vb);
  CAMLlocal1(res);
  mlsize_t n = caml_string_length(vb), i;
  const unsigned char *s;
  if (n == 0) CAMLreturn(Atom(0));
  if (n > Max_wosize) caml_invalid_argument("Buffer.ints_of_bytes");
  res = caml_alloc_shr(n, 0);
  advise_interior((char *)Op_val(res), Bsize_wsize(n));
  s = Bytes_val(vb);
  for (i = 0; i < n; i++) Field(res, i) = Val_int(s[i]);
  caml_process_pending_actions();
  CAMLreturn(res);
}
