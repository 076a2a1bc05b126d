"""Min-of-N time and tracemalloc peak of the invariant checks, the kernel solves and the tracial pipeline.

    python3 benchmarks/layers.py [--src DIR]

Measures ConditionalExpectation.validate, DCharacter.validate,
support_of_map, commutes_with_modular (against a seeded faithful density),
commutant, null_space_rows and representing_expectation_tracial on block
characters with blocks (1, 3), (1, 3, 4), (1, 3, 6), (4, 4, 4) and
(5, 5, 6) at n = 4, 8, 10, 12 and 16, each rotated by a seeded Haar unitary,
and prints one JSON object.  The commutant row adds dim D' and the largest
||[x, b]|| over its basis x and D's b.  The null_space_rows stack is the one
commutant(D, M) solves first: the brackets of M's basis with two seeded
complex Gaussian combinations of D's basis, (2 n^2, n^2).  At n = 4, 10
and 16 the bimodule_gaps rows time the module-gap kernel alone on D's
basis, for the expectation's map (domain M) and the character's (domain A);
on a checkout whose kernel still reads the domain basis and its images,
those are formed before the timing, as its callers held them.  The
centrality rows time is_D_central and locally_central_check (cap 16) on the
seeded faithful density, which is not D-central, and sample_projections on D
at caps 16 and 64; the commutative rows time sample_projections on the
diagonal algebras of M_3 and M_4, whose 7 and 15 projections are all found
below either cap.  --src points at
the src/ directory of the checkout to measure (default: this one's), so two
commits can be compared with the same script.  BLAS is pinned to one thread
before numpy loads.
"""

import argparse
import inspect
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SIZES = {4: [1, 3], 8: [1, 3, 4], 10: [1, 3, 6], 12: [4, 4, 4], 16: [5, 5, 6]}
REPEATS = {4: 200, 8: 20, 10: 10, 12: 5, 16: 3}
GAPS_SIZES = (4, 10, 16)
COMMUTATIVE_SIZES = (3, 4)


def _instance(n, sizes):
    import numpy as np
    from ncrep.algebras import full_matrix_algebra, unitary_conjugate_algebra
    from ncrep.expectations import preserving_expectation
    from ncrep.instances import haar_unitary, random_density
    from ncrep.linalg import dagger, sandwich_matrix
    from ncrep.representing import DCharacter, make_block_character
    from ncrep.states import PositiveFunctional

    starts = np.cumsum([0] + sizes)
    a, d, phi = make_block_character(n, [list(range(s, s + k)) for s, k in zip(starts, sizes)])
    u = haar_unitary(n, np.random.default_rng(n))
    s = sandwich_matrix(u, dagger(u))
    a = unitary_conjugate_algebra(a, u)
    d = unitary_conjugate_algebra(d, u)
    # composed with A's projection here too, for a checkout whose constructor does not compose
    phi = DCharacter(s @ phi.map_matrix @ dagger(s) @ a.space.projector_matrix(), a, d)
    m = full_matrix_algebra(n)
    e = preserving_expectation(PositiveFunctional.tracial(n), d, m)
    nu = random_density(n, np.random.default_rng(n))
    parts = np.random.default_rng(0).standard_normal((2, 2, d.dim))
    pair = ((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2 * d.dim)) @ d.space.flat
    w, g = m.space.tensor[:, None], pair.reshape(2, n, n)
    # the generic pair's bracket stack: one row per (generator, entry), one column per basis element of M
    stack = (w @ g - g @ w).reshape(m.dim, -1).T
    return e, phi, a, d, m, nu, stack


def _measure(fn, repeats):
    fn()  # fills lazy caches such as spectra and the positivity probes
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


def _commutant_row(commutant, d, m, repeats):
    """The commutant row, with the dimension of D' and max ||[x, b]|| over its basis x and D's b."""
    import numpy as np

    c = commutant(d, m)
    x, b = c.space.tensor[:, None], d.space.tensor
    gap = float(np.linalg.norm(x @ b - b @ x, axis=(2, 3)).max())
    return dict(_measure(lambda: commutant(d, m), repeats), dim=c.dim, gap=gap)


def _gaps_rows(bimodule_gaps, e, phi, d, repeats):
    """The bimodule_gaps rows: domain M with the expectation's map, domain A with the character's."""
    rows = {}
    for label, k, domain in (("M", e.map_matrix, e.domain), ("A", phi.map_matrix, phi.domain)):
        if len(inspect.signature(bimodule_gaps).parameters) == 2:
            call = lambda k=k: bimodule_gaps(k, d.space.tensor)
        else:
            flat = domain.space.flat
            call = lambda k=k, flat=flat, images=flat @ k.T: bimodule_gaps(k, d.space.tensor, flat, images)
        rows[f"bimodule_gaps (domain {label})"] = _measure(call, repeats)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ncrep.algebras import commutant, diagonal_algebra
    from ncrep.expectations import commutes_with_modular, support_of_map
    from ncrep.linalg import bimodule_gaps, null_space_rows
    from ncrep.representing import representing_expectation_tracial
    from ncrep.states import PositiveFunctional, is_D_central, locally_central_check, sample_projections

    layers = {}
    for n, sizes in SIZES.items():
        e, phi, a, d, m, nu, stack = _instance(n, sizes)
        tau = PositiveFunctional.tracial(n)
        reps = REPEATS[n]
        layers[f"n={n}"] = {
            "blocks": sizes,
            "ConditionalExpectation.validate": _measure(e.validate, reps),
            "DCharacter.validate": _measure(phi.validate, reps),
            "support_of_map": _measure(lambda: support_of_map(e), reps),
            "commutes_with_modular": _measure(lambda: commutes_with_modular(e, nu), reps),
            "commutant": _commutant_row(commutant, d, m, reps),
            "null_space_rows": dict(_measure(lambda: null_space_rows(stack), reps), shape=list(stack.shape)),
            "representing_expectation_tracial": _measure(
                lambda: representing_expectation_tracial(m, tau, d, a, phi), reps
            ),
            "is_D_central": _measure(lambda: is_D_central(nu, d, m), reps),
            "locally_central_check (cap 16)": _measure(lambda: locally_central_check(nu, d, m, 16), reps),
            "sample_projections (cap 16)": _measure(lambda: sample_projections(d, 16), reps),
            "sample_projections (cap 64)": _measure(lambda: sample_projections(d, 64), reps),
        }
        if n in GAPS_SIZES:
            layers[f"n={n}"].update(_gaps_rows(bimodule_gaps, e, phi, d, reps))
    for n in COMMUTATIVE_SIZES:
        d = diagonal_algebra(n)
        layers[f"diagonal n={n}"] = {
            f"sample_projections (cap {cap})": _measure(lambda cap=cap: sample_projections(d, cap), REPEATS[4])
            for cap in (16, 64)
        }
    src_lines = sum(len(p.read_text().splitlines()) for p in Path(args.src).rglob("*.py"))
    print(json.dumps({"src_lines": src_lines, "layers": layers}, indent=1))


if __name__ == "__main__":
    main()
