/* The host services the benchmark needs and OCaml's Unix library lacks:
   a nanosecond monotonic clock, the CPU affinity of the calling thread,
   and the reference computation that measures the host's speed (see
   host.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* Seconds on CLOCK_MONOTONIC. */
double benchsuite_now_unboxed(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value benchsuite_now(value unit)
{
  return caml_copy_double(benchsuite_now_unboxed(unit));
}

/* The CPUs the calling thread may run on, in increasing order; empty
   when the system does not say. */
value benchsuite_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  cpus = caml_alloc(n, 0);
  for (int c = 0; c < CPU_SETSIZE && k < n; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
  CAMLreturn(cpus);
}

/* Restrict the calling thread to [cpus]; false when the system refuses. */
value benchsuite_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return Val_bool(CPU_COUNT(&set) > 0 && sched_setaffinity(0, sizeof set, &set) == 0);
}

/* One leapfrog sweep over the interior of an nx*ny*nz grid, with the
   memory pattern of the FDTD volume update: the 7-point stencil of
   [curr] and the same point of [prev] read, [next] written.  The
   weights are binary fractions summing to 1, so grids of ones stay
   ones, exactly. */
static void sweep(const double *restrict prev, const double *restrict curr, double *restrict next,
                  long nx, long ny, long nz)
{
  long p = nx * ny;
  for (long z = 1; z < nz - 1; z++)
    for (long y = 1; y < ny - 1; y++) {
      long row = z * p + y * nx;
      for (long i = row + 1; i < row + nx - 1; i++)
        next[i] = 0.25 * curr[i] + 0.375 * prev[i]
                  + 0.0625 * (curr[i - 1] + curr[i + 1] + curr[i - nx] + curr[i + nx] + curr[i - p] + curr[i + p]);
    }
}

/* [sweeps] sweeps, rotating the roles of [a], [b] and [c], three float
   arrays of nx*ny*nz elements; [dims] is [| nx; ny; nz; sweeps |]. */
value benchsuite_ref_sweeps(value a, value b, value c, value dims)
{
  if (Wosize_val(dims) != 4) caml_invalid_argument("benchsuite_ref_sweeps");
  long nx = Long_val(Field(dims, 0)), ny = Long_val(Field(dims, 1)), nz = Long_val(Field(dims, 2));
  long sweeps = Long_val(Field(dims, 3));
  mlsize_t n = (mlsize_t)(nx * ny * nz);
  if (nx < 3 || ny < 3 || nz < 3 || n > Wosize_val(a) || n > Wosize_val(b) || n > Wosize_val(c))
    caml_invalid_argument("benchsuite_ref_sweeps");
  double *prev = (double *)a, *curr = (double *)b, *next = (double *)c;
  for (long k = 0; k < sweeps; k++) {
    sweep(prev, curr, next, nx, ny, nz);
    double *t = prev;
    prev = curr;
    curr = next;
    next = t;
  }
  return Val_unit;
}
