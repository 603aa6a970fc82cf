"""SDVM example applications.

* :mod:`repro.apps.primes` — the paper's §5 benchmark: "parallel
  computation of the first p prime numbers, working on width numbers in
  parallel each" (drives Table 1).
* :mod:`repro.apps.primes_rounds` — a barrier-per-round variant of the same
  app, used as an ablation against the pipelined version.
* :mod:`repro.apps.matmul` — blocked matrix multiplication (dataflow fan
  out / reduce).
* :mod:`repro.apps.mergesort` — recursive divide-and-conquer sort.
* :mod:`repro.apps.mandelbrot` — embarrassingly parallel row rendering with
  output through the frontend.
* :mod:`repro.apps.stencil` — iterative Jacobi relaxation, the "permanently
  running climate-model-like" workload used by migration examples (§2.2).
* :mod:`repro.apps.memstress` — shared-object read/write stress for the
  attraction-memory directory (chaos + scaling runs), allocating at the
  submit site (``memstress``) or wherever a seed frame ran
  (``memscatter``).
* :mod:`repro.apps.treesum` — log-depth fan-out/reduce over scalar
  leaves, the scalable-structure workload the big-cluster scaling gate
  measures (§2.2).
"""

from repro.apps.primes import (
    build_primes_program,
    first_n_primes,
    sequential_work_units,
)

__all__ = [
    "build_primes_program",
    "first_n_primes",
    "sequential_work_units",
    "build_primes_rounds_program",
    "build_matmul_program",
    "build_mergesort_program",
    "build_mandelbrot_program",
    "build_stencil_program",
    "build_memstress_program",
    "build_memscatter_program",
    "memstress_expected",
    "build_treesum_program",
    "treesum_expected",
]


def __getattr__(name: str):  # lazy: each app module loads on first use
    if name == "build_primes_rounds_program":
        from repro.apps.primes_rounds import build_primes_rounds_program
        return build_primes_rounds_program
    if name == "build_matmul_program":
        from repro.apps.matmul import build_matmul_program
        return build_matmul_program
    if name == "build_mergesort_program":
        from repro.apps.mergesort import build_mergesort_program
        return build_mergesort_program
    if name == "build_mandelbrot_program":
        from repro.apps.mandelbrot import build_mandelbrot_program
        return build_mandelbrot_program
    if name == "build_stencil_program":
        from repro.apps.stencil import build_stencil_program
        return build_stencil_program
    if name == "build_memstress_program":
        from repro.apps.memstress import build_memstress_program
        return build_memstress_program
    if name == "build_memscatter_program":
        from repro.apps.memstress import build_memscatter_program
        return build_memscatter_program
    if name == "memstress_expected":
        from repro.apps.memstress import memstress_expected
        return memstress_expected
    if name == "build_treesum_program":
        from repro.apps.treesum import build_treesum_program
        return build_treesum_program
    if name == "treesum_expected":
        from repro.apps.treesum import treesum_expected
        return treesum_expected
    raise AttributeError(name)
