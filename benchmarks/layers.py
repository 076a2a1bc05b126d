"""Min-of-N time and tracemalloc peak of the invariant checks and the kernel solves.

    python3 benchmarks/layers.py [--src DIR]

Measures ConditionalExpectation.validate, DCharacter.validate, commutant and
null_space_rows on block characters with blocks (1, 3), (1, 3, 4) and
(1, 3, 6) at n = 4, 8 and 10, each rotated by a seeded Haar unitary, and
prints one JSON object.  --src points at the src/ directory of the checkout
to measure (default: this one's), so two commits can be compared with the
same script.  BLAS is pinned to one thread before numpy loads.
"""

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SIZES = {4: [1, 3], 8: [1, 3, 4], 10: [1, 3, 6]}
REPEATS = {4: 200, 8: 20, 10: 10}


def _instance(n, sizes):
    import numpy as np
    from ncrep.algebras import full_matrix_algebra, unitary_conjugate_algebra
    from ncrep.expectations import preserving_expectation
    from ncrep.instances import haar_unitary
    from ncrep.linalg import dagger, sandwich_matrix
    from ncrep.representing import DCharacter, make_block_character
    from ncrep.states import PositiveFunctional

    starts = np.cumsum([0] + sizes)
    a, d, phi = make_block_character(n, [list(range(s, s + k)) for s, k in zip(starts, sizes)])
    u = haar_unitary(n, np.random.default_rng(n))
    s = sandwich_matrix(u, dagger(u))
    a = unitary_conjugate_algebra(a, u)
    d = unitary_conjugate_algebra(d, u)
    phi = DCharacter(s @ phi.map_matrix @ dagger(s) @ a.space.projector_matrix(), a, d)
    m = full_matrix_algebra(n)
    e = preserving_expectation(PositiveFunctional.tracial(n), d, m)
    w, b = m.space.tensor, d.space.tensor[:, None]
    # the commutant's bracket stack: one row per (generator, entry), one column per basis element of M
    stack = np.swapaxes((w @ b - b @ w).reshape(d.dim, m.dim, n * n), 1, 2).reshape(-1, m.dim)
    return e, phi, d, m, stack


def _measure(fn, repeats):
    fn()  # fills lazy caches such as projector matrices
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"min_ms": round(best * 1e3, 4), "peak_mb": round(peak / 2**20, 3), "repeats": repeats}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ncrep.algebras import commutant
    from ncrep.linalg import null_space_rows

    layers = {}
    for n, sizes in SIZES.items():
        e, phi, d, m, stack = _instance(n, sizes)
        reps = REPEATS[n]
        layers[f"n={n}"] = {
            "blocks": sizes,
            "ConditionalExpectation.validate": _measure(e.validate, reps),
            "DCharacter.validate": _measure(phi.validate, reps),
            "commutant": _measure(lambda: commutant(d, m), reps),
            "null_space_rows": dict(_measure(lambda: null_space_rows(stack), reps), shape=list(stack.shape)),
        }
    src_lines = sum(len(p.read_text().splitlines()) for p in Path(args.src).rglob("*.py"))
    print(json.dumps({"src_lines": src_lines, "layers": layers}, indent=1))


if __name__ == "__main__":
    main()
