"""Min-of-N time and tracemalloc peak of the invariant checks, the kernel solves, both pipelines and the diagnosis.

    python3 benchmarks/layers.py [--src DIR]

Measures ConditionalExpectation.validate, DCharacter.validate,
support_of_map, commutes_with_modular (against a seeded faithful density),
commutant, null_space_rows, preserving_expectation onto D (with its
validation) for the tracial state and a seeded faithful D-central one,
representing_expectation_tracial and representing_expectation_state (for
that D-central state) on block characters with blocks (1, 3), (1, 3, 4),
(1, 3, 6), (4, 4, 4) and (5, 5, 6) at n = 4, 8, 10, 12 and 16, each rotated
by a seeded Haar unitary and built by the checkout's own
representing._block_character, and prints one JSON object.  Three rows time the
tracial pipeline's steps on the same instance: _matched_density (with
the weight k = the trace's density on M), _projected_factor on the polar
factors of that match, and _average_to_central for a state that extends
the trace on D and is not D-central (the trace moved off D's span), a
fresh functional per call.  The validate rows of A and D time the
closure check each runs (on a block algebra that has one, its pattern
certificate).  The instance rows time random_block_instance(n,
default_rng(3), conjugate=True) at n = 16, 24, 32, 48 and 64, the build of
A, D and Phi with all their checks (min of 5 at n = 32 and 48 and of 3 at
n = 64, each with the tracemalloc peak of one more call), and at n = 32 and
48 the coordinate build random_block_instance(n, default_rng(3)) next to it; at n = 24 a further row times commutant(D, M),
cold, on that instance's D, and at n = 16, 24 and 32 three more rows time
the character's DCharacter.validate, the tracial pipeline on the instance
and the state pipeline for a seeded faithful D-central state.  Before every other row, at n = 64, that build
and the two pipelines run once each under tracemalloc, each row with its
time, its peak and the process's peak resident set after it.  At n = 16,
24 and 32 four more rows time, on
the rotated instance's character, the certificates that build reads off
the masks against the routes they replace: the multiplicativity bound from
the unit defects (_multiplicative_from_defects) against the m^2 unit
products (tests/dense_oracle.py's unit_products_multiplicative), and J
read off the masks (_mask_kernel)
against the null space of Phi's images.  At n = 16 and 32 the fix rows time
D's fix and J's tau as the build forms them (_mask_kernel on a copy of the
character without its kept fix), on random_block_instance(n,
default_rng(3)), coordinate and rotated, read at the units against the
stack route: the same call with the checkout's representing._BLOCK_FROM
moved above n^4.  The commutant row adds dim D' and the largest
||[x, b]|| over its basis x and D's b.  The null_space_rows stack is the one
commutant(D, M) solves first: the brackets of M's basis with two seeded
complex Gaussian combinations of D's basis, (2 n^2, n^2).  At n = 4, 10
and 16 the bimodule_gaps rows time the module-gap kernel alone on D's
basis, for the expectation's map (domain M) and the character's (domain A).
At n = 24 the one bimodule_gaps row takes D block diagonal with coordinate
blocks (8, 8, 8) and the block pinching x -> sum_t p_t x p_t, which is both
the tracial expectation onto D and, on A, the block character.  The
centrality rows time is_D_central and locally_central_check (cap 16) on the
seeded faithful density, which is not D-central, and sample_projections on D
at caps 16 and 64; the commutative rows time sample_projections on the
diagonal algebras of M_3 and M_4, whose 7 and 15 projections are all found
below either cap.  The diagnosis rows time existence_diagnosis with D
block diagonal in M_8, blocks (4, 3, 1), for a central faithful state, a
non-central one and a central one cut to its first two blocks, the three
state families of the diagnosis-mixed benchmark.  The unit-row rows time
_local_violation (on D's projections at cap 16), modular_invariance_check
and tracial_certificate for a seeded faithful density that is not
D-central, on D block diagonal in M_n with coordinate blocks (4, 3, 1),
(8, 6, 2) and (12, 9, 3) at n = 8, 16 and 24, whose rows are matrix units,
and on the same D rotated by a seeded Haar unitary, whose rows are not.  The
crossover rows time is_D_central, _support_commutes and corner_algebra the
same way at n = 4, 5 and 8 (blocks (3, 1), (3, 2) and (4, 3, 1)), the corner
cut by D's first block, and on the coordinate D also with the checkout's
unit-read crossover (states._BLOCK_FROM, when it has one) moved below and
above n, so that both routes are timed on each side of it.  At n = 4, 8 and 12 the
Jensen rows time jensen_measure_suite at 6 and 100 trials on
random_block_instance(n, default_rng(n)), coordinate and rotated, with the
tracial pipeline's expectation and representing state, and geometric_mean
per call on one invertible draw from the rotated A.  At n = 10, 16 and 24
the unit-frame rows take random_block_instance(n, default_rng(3),
conjugate=True) and time each per-unit check of its character read in D's
unit frame against the exact route it stands in for: the module gaps of
the character and of the tracial expectation onto D (unit_frame_gaps
against the commutators, _ModuleMap.module_gaps), the unit defects from
the conjugated factors against those from the images of the same map as a
matrix (_multiplicative_from_defects on each), and D inside A from the
masks (_inclusion_gap) against the residuals.  At n = 8, 12 and 16 the
generate_star_algebra row generates the *-algebra of two Hermitian
elements of D, (x + x*)/2 for x complex Gaussian combinations of D's basis
drawn from default_rng(3), and adds the dimension it finds.  An algebra keeps its
commutants and sampled projections once computed, so the sample_projections,
commutant and diagnosis rows are timed twice: cold, on a fresh algebra
object over the same basis and block pattern for every call (built outside
the timing), and warm, repeated on one object; the other rows repeat on one D.
A functional keeps its restricted densities, D-centrality verdicts and
validated expectations, so every row that takes a state (the expectation,
pipeline, centrality, averaging and diagnosis rows) gets a fresh functional
over the same density per call, made outside the timing.  --src points at
the src/ directory of the checkout to measure (default: this one's), so two
commits can be compared with the same script.  BLAS is pinned to one thread
before numpy loads.

A shared host runs the same work up to twice as slowly for stretches of
seconds, so each row also times perfbench's host-speed kernel
(perfbench/hostspeed.py, from this checkout whatever --src is) before and
after its repeats.  The row reports the kernel's mean slowdown over the two
and scaled_ms, its min_ms divided by that slowdown, which puts rows measured
at different times on one scale.

src_lines counts the lines of the checkout's src/ .py files, and
src_line_kinds splits them: a docstring line belongs to a string that
opens a module, class or function body (found with ast), a comment line
holds only a comment, a blank line nothing, and a code line any other
token (found with tokenize).
"""

import argparse
import ast
import copy
import io
import json
import os
import resource
import sys
import time
import tokenize
import tracemalloc
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))  # dense_oracle, imported once --src is on the path
from hostspeed import HostSpeed  # noqa: E402  (numpy loads after the thread pin)

SIZES = {4: [1, 3], 8: [1, 3, 4], 10: [1, 3, 6], 12: [4, 4, 4], 16: [5, 5, 6]}
REPEATS = {4: 200, 8: 20, 10: 10, 12: 5, 16: 3}
GAPS_SIZES = (4, 10, 16)
# bimodule_gaps rows on coordinate blocks, at sizes without a rotated instance in SIZES
COORDINATE_BLOCKS = {24: [8, 8, 8]}
# random_block_instance rows: repeats per size
INSTANCE_REPEATS = {16: 3, 24: 1, 32: 5, 48: 5, 64: 3}
# sizes whose instance D gets a cold commutant row, and its repeats
INSTANCE_COMMUTANT_SIZES = (24,)
INSTANCE_COMMUTANT_REPEATS = 3
# sizes whose instance gets the two pipeline rows and its character's validate, timed once each
INSTANCE_PIPELINE_SIZES = (16, 24, 32)
# sizes whose rotated instance gets the unit-frame rows, and their repeats
FRAME_REPEATS = {10: 10, 16: 3, 24: 3}
# sizes whose rotated build and two pipelines run once each, first, under tracemalloc
ONCE_SIZES = (64,)
# sizes whose instance character gets the certificate rows, and their repeats
CERTIFICATE_REPEATS = {16: 3, 24: 1, 32: 1}
# sizes whose coordinate build gets a row next to the rotated one
COORDINATE_BUILD_SIZES = (32, 48)
# sizes whose coordinate and rotated characters get the fix rows, and their repeats
FIX_REPEATS = {16: 5, 32: 3}
COMMUTATIVE_SIZES = (3, 4)
GENERATION_SIZES = (8, 12, 16)
DIAGNOSIS_BLOCKS = [[0, 1, 2, 3], [4, 5, 6], [7]]
# unit-row rows: D's block sizes and the repeats per size
UNIT_ROW_BLOCKS = {8: [4, 3, 1], 16: [8, 6, 2], 24: [12, 9, 3]}
UNIT_ROW_REPEATS = {8: 200, 16: 20, 24: 5}
# crossover rows: D's coordinate block sizes per n, on both sides of the n^4 > _BLOCK_FROM crossover
CROSSOVER_BLOCKS = {4: [3, 1], 5: [3, 2], 8: [4, 3, 1]}
CROSSOVER_REPEATS = 500
# Jensen rows: the repeats per size, and the suite's trial counts
JENSEN_REPEATS = {4: 50, 8: 10, 12: 5}
JENSEN_TRIALS = (6, 100)
# host-speed kernel timings taken before and after each row's repeats
HOST_SAMPLES = 5


def _instance(n, sizes):
    import numpy as np
    from ncrep.algebras import full_matrix_algebra
    from ncrep.expectations import preserving_expectation
    from ncrep.instances import haar_unitary, random_density
    from ncrep.representing import _block_character
    from ncrep.states import PositiveFunctional

    starts = np.cumsum([0] + sizes)
    blocks = [list(range(s, s + k)) for s, k in zip(starts, sizes)]
    # the rotated character as the checkout under --src builds it, so that each checkout's rows time its own
    a, d, phi = _block_character(n, blocks, haar_unitary(n, np.random.default_rng(n)))
    m = full_matrix_algebra(n)
    e = preserving_expectation(PositiveFunctional.tracial(n), d, m)
    nu = random_density(n, np.random.default_rng(n))
    parts = np.random.default_rng(0).standard_normal((2, 2, d.dim))
    pair = ((parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2 * d.dim)) @ d.space.flat
    w, g = m.space.tensor[:, None], pair.reshape(2, n, n)
    # the generic pair's bracket stack: one row per (generator, entry), one column per basis element of M
    stack = (w @ g - g @ w).reshape(m.dim, -1).T
    return e, phi, a, d, m, nu, stack


def _step_rows(a, d, phi, m, reps):
    """The tracial pipeline's matching, projection and averaging steps on one instance."""
    import numpy as np
    from ncrep.expectations import _average_to_central, _values_on
    from ncrep.representing import _matched_density, _polar_factors, _projected_factor
    from ncrep.states import PositiveFunctional

    n = m.n
    tau = PositiveFunctional.tracial(n)
    k = tau.restricted_density(m)
    values = _values_on(tau, phi.images)
    match = lambda: _matched_density(a.space, values, m, 0.0, 0, weight=k)
    a_mat, b_mat = _polar_factors(match())
    y = np.random.default_rng(n).standard_normal((n, n))
    z = y + y.T - d.space.project(y + y.T)
    moved = tau.density + 0.1 / n / np.linalg.norm(z, 2) * z
    return {
        "_matched_density": _measure(match, reps),
        "_projected_factor": _measure(lambda: _projected_factor(a, phi.kernel, a_mat, b_mat, weight=k), reps),
        "_average_to_central": _measure(
            lambda psi, tau: _average_to_central(psi, tau, d, m), reps,
            lambda: (PositiveFunctional(moved, check=False), _fresh_state(tau)),
        ),
    }


def _certificate_rows(phi, reps):
    """The multiplicativity and kernel certificates on a character against the routes they replace."""
    import numpy as np
    from ncrep import representing
    from ncrep.linalg import hs_norm, null_space_rows

    from dense_oracle import unit_products_multiplicative

    kappa = hs_norm(phi.map_matrix)
    rows = {"unit products (m^2)": _measure(lambda: unit_products_multiplicative(phi, kappa), reps)}
    bound = representing._multiplicative_from_defects
    rows["_multiplicative_from_defects"] = dict(_measure(lambda: bound(phi, kappa), reps), passed=bound(phi, kappa))
    rows["null_space_rows (kernel)"] = _measure(lambda: null_space_rows(phi.images.T) @ phi.domain.space.flat, reps)
    mask_kernel = representing._mask_kernel
    unfixed = lambda: (_unfixed(phi),)
    rows["_mask_kernel"] = dict(_measure(mask_kernel, reps, unfixed), passed=mask_kernel(*unfixed()) is not None)
    return rows


def _unfixed(phi):
    """A copy of the character without D's fix, a cached property, so that a timing forms it as the build does."""
    fresh = copy.copy(phi)
    fresh.__dict__.pop("fix", None)
    return fresh


def _fix_rows(n, reps):
    """D's fix and J's tau as the build forms them, _mask_kernel on an unfixed copy of the character, on
    random_block_instance(n, default_rng(3)), coordinate and rotated: read at the units, and by the stack
    route with representing._BLOCK_FROM moved above n^4."""
    import numpy as np
    from ncrep import representing
    from ncrep.instances import random_block_instance

    rows = {}
    for label, conjugate in (("coordinate", False), ("rotated", True)):
        phi = random_block_instance(n, np.random.default_rng(3), conjugate=conjugate).phi
        crossover = representing._BLOCK_FROM
        for route, moved in (("", crossover), (", stack route", n**4)):
            representing._BLOCK_FROM = moved
            try:
                rows[f"fix + _mask_kernel ({label}{route})"] = dict(
                    _measure(representing._mask_kernel, reps, lambda: (_unfixed(phi),)),
                    passed=representing._mask_kernel(_unfixed(phi)) is not None)
            finally:
                representing._BLOCK_FROM = crossover
    return rows


def _frame_rows(n, reps):
    """The per-unit checks of random_block_instance(n, default_rng(3), conjugate=True) read in D's unit
    frame against the exact routes: the module gaps of the character and of the tracial expectation onto
    D, the unit defects from the factors against those from the images of the character as a matrix, and
    D inside A from the masks against the residuals."""
    import numpy as np
    from ncrep import algebras, linalg, representing
    from ncrep.algebras import full_matrix_algebra
    from ncrep.expectations import preserving_expectation
    from ncrep.instances import random_block_instance
    from ncrep.states import PositiveFunctional

    inst = random_block_instance(n, np.random.default_rng(3), conjugate=True)
    a, d, phi = inst.a, inst.d, inst.phi
    e = preserving_expectation(PositiveFunctional.tracial(n), d, full_matrix_algebra(n))
    frame = algebras._unit_frame(d)
    rows = {}
    for label, mp in (("character", phi), ("tracial expectation", e)):
        rows[f"module gaps, exact ({label})"] = _measure(mp.module_gaps, reps)
        rows[f"module gaps, frame ({label})"] = _measure(
            lambda mp=mp: linalg.unit_frame_gaps(*mp._splitting(), frame), reps)
    kappa = phi.norm()
    dense = representing.DCharacter(phi.map_matrix, a, d, check=False)
    rows["unit defects (factors)"] = _measure(lambda: representing._multiplicative_from_defects(phi, kappa), reps)
    rows["unit defects (images)"] = _measure(lambda: representing._multiplicative_from_defects(dense, kappa), reps)
    rows["D inside A (residuals)"] = _measure(lambda: a.space.residuals(d.space.flat), reps)
    rows["D inside A (masks)"] = _measure(lambda: algebras._inclusion_gap(a, d) * linalg.hs_norms(d.space.flat), reps)
    return rows


def _line_kinds(text):
    """A Python source's lines counted as code, docstring, comment and blank."""
    lines = text.splitlines()
    kind = [None] * len(lines)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                kind[first.lineno - 1 : first.end_lineno] = ["docstring"] * (first.end_lineno - first.lineno + 1)
    code, comment = set(), set()
    layout = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0] - 1)
        elif tok.type not in layout:
            code.update(range(tok.start[0] - 1, tok.end[0]))
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for i, k in enumerate(kind):
        counts[k or ("code" if i in code else "comment" if i in comment else "blank")] += 1
    return counts


def _measure(fn, repeats, setup=tuple):
    """Min-of-repeats time, its host-speed scaled value and the tracemalloc peak of fn(*setup()),
    each call's arguments made untimed."""
    fn(*setup())  # fills lazy caches such as spectra and the positivity probes
    host = HostSpeed()
    host.sample(HOST_SAMPLES)
    best = float("inf")
    for _ in range(repeats):
        args = setup()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    host.sample(HOST_SAMPLES)
    args = setup()
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "min_ms": round(best * 1e3, 4),
        "scaled_ms": round(best * 1e3 / host.slowdown, 4),
        "slowdown": round(host.slowdown, 3),
        "peak_mb": round(peak / 2**20, 3),
        "repeats": repeats,
    }


def _fresh(d):
    """A new algebra object over d's basis with d's block pattern and unit declaration, and an empty store."""
    from ncrep.algebras import _units_in_order

    copy = type(d)(d.space, check=False)
    copy.pattern = d.pattern
    if d.pattern is not None and d.pattern[0] is not None and _units_in_order(d):
        copy.derived("units in order", lambda: copy.pattern)  # rotated units, as unitary_conjugate_algebra declares them
    return copy


def _fresh_state(omega):
    """A new functional over omega's density with an empty store, made untimed: a row repeated on one
    state times what each call does for a state it meets first, not what the state keeps."""
    return type(omega)(omega.density, check=False)


def _cold_and_warm(label, fn, d, repeats, more=tuple):
    """Rows for fn(d, *more()): cold on a fresh algebra object over d's basis per call, and warm on d itself."""
    return {
        label: _measure(fn, repeats, lambda: (_fresh(d), *more())),
        f"{label} (warm)": _measure(fn, repeats, lambda: (d, *more())),
    }


def _commutant_rows(commutant, d, m, repeats):
    """The commutant rows, the cold one with the dimension of D' and max ||[x, b]|| over its basis x and D's b."""
    import numpy as np

    c = commutant(d, m)
    x, b = c.space.tensor[:, None], d.space.tensor
    gap = float(np.linalg.norm(x @ b - b @ x, axis=(2, 3)).max())
    rows = _cold_and_warm("commutant", lambda d: commutant(d, m), d, repeats)
    rows["commutant"].update(dim=c.dim, gap=gap)
    return rows


def _generation_row(generate_star_algebra, d, repeats):
    """The generate_star_algebra row, on two seeded Hermitian elements of D, with the dimension found."""
    import numpy as np

    parts = np.random.default_rng(3).standard_normal((2, 2, d.dim))
    x = ((parts[:, 0] + 1j * parts[:, 1]) @ d.space.flat).reshape(2, d.n, d.n)
    gens = list((x + x.conj().swapaxes(1, 2)) / 2)
    row = _measure(lambda: generate_star_algebra(gens), repeats)
    row["dim"] = generate_star_algebra(gens).dim
    return {"generate_star_algebra": row}


def _projection_rows(sample_projections, d, cap, repeats):
    return _cold_and_warm(f"sample_projections (cap {cap})", lambda d: sample_projections(d, cap), d, repeats)


def _gaps_rows(bimodule_gaps, e, phi, d, repeats):
    """The bimodule_gaps rows: domain M with the expectation's map, domain A with the character's."""
    rows = {}
    for label, k in (("M", e.map_matrix), ("A", phi.map_matrix)):
        rows[f"bimodule_gaps (domain {label})"] = _measure(lambda k=k: bimodule_gaps(k, d.space.tensor), repeats)
    return rows


def _coordinate_gaps_row(bimodule_gaps, n, sizes, repeats):
    """The bimodule_gaps row for D block diagonal in M_n with coordinate blocks and the block pinching."""
    import numpy as np
    from ncrep.algebras import block_diagonal_algebra

    from dense_oracle import pinching_matrix

    labels = np.repeat(np.arange(len(sizes)), sizes)
    blocks = [np.flatnonzero(labels == t).tolist() for t in range(len(sizes))]
    d = block_diagonal_algebra(n, blocks)
    k = pinching_matrix(n, blocks)
    return {"bimodule_gaps (pinching)": _measure(lambda: bimodule_gaps(k, d.space.tensor), repeats)}


def _diagnosis_rows(repeats):
    """existence_diagnosis on the block-diagonal D in M_8 for the central, non-central and truncated states."""
    import numpy as np
    from ncrep.algebras import block_diagonal_algebra, full_matrix_algebra
    from ncrep.expectations import existence_diagnosis
    from ncrep.instances import random_central_density, random_density
    from ncrep.states import PositiveFunctional

    n = 8
    d, m = block_diagonal_algebra(n, DIAGNOSIS_BLOCKS), full_matrix_algebra(n)
    rng = np.random.default_rng(n)
    keep = np.diag([1.0] * 7 + [0.0])
    cut = keep @ random_central_density(n, d, rng).density @ keep
    states = {
        "central": random_central_density(n, d, rng),
        "noncentral": random_density(n, rng),
        "truncated": PositiveFunctional(cut / np.trace(cut).real),
    }
    rows = {}
    for name, omega in states.items():
        rows.update(_cold_and_warm(
            f"existence_diagnosis ({name})", lambda d, omega: existence_diagnosis(omega, d, m), d, repeats,
            lambda: (_fresh_state(omega),),
        ))
    return rows


def _unit_row_rows(n, sizes, repeats):
    """_local_violation, modular_invariance_check and tracial_certificate for a seeded faithful
    density that is not D-central, on D block diagonal with coordinate blocks and on it Haar-rotated."""
    import numpy as np
    from ncrep import states
    from ncrep.algebras import block_diagonal_algebra, full_matrix_algebra, unitary_conjugate_algebra
    from ncrep.instances import haar_unitary, random_density

    starts = np.cumsum([0] + sizes)
    d = block_diagonal_algebra(n, [list(range(s, s + k)) for s, k in zip(starts, sizes)])
    rotated = unitary_conjugate_algebra(d, haar_unitary(n, np.random.default_rng(n)))
    m = full_matrix_algebra(n)
    omega = random_density(n, np.random.default_rng(n + 1))
    rows = {}
    for label, alg in (("coordinate D", d), ("rotated D", rotated)):
        projections = np.stack(states.sample_projections(alg, 16))
        rows[f"_local_violation ({label})"] = _measure(
            lambda: states._local_violation(omega, projections, alg, m), repeats)
        rows[f"modular_invariance_check ({label})"] = _measure(
            lambda: states.modular_invariance_check(omega, alg), repeats)
        rows[f"tracial_certificate ({label})"] = _measure(lambda: states.tracial_certificate(omega, alg), repeats)
    return rows


def _crossover_rows(n, sizes, repeats):
    """is_D_central, _support_commutes and corner_algebra on D block diagonal with coordinate blocks,
    whose rows are matrix units, and on it Haar-rotated, for a seeded faithful density that is not
    D-central (a fresh functional per is_D_central call).  The corner is cut by D's first block, as
    exact coordinate vectors on the coordinate D and as the rotation's columns on the rotated one.
    When the checkout reads D's units past a crossover (states._BLOCK_FROM), two more rows per probe
    time the coordinate D with that crossover moved below n (by unit) and above it (by products)."""
    import numpy as np
    from ncrep import states
    from ncrep.algebras import block_diagonal_algebra, corner_algebra, full_matrix_algebra, unitary_conjugate_algebra
    from ncrep.instances import haar_unitary, random_density
    from ncrep.linalg import Corner

    starts = np.cumsum([0] + sizes)
    d = block_diagonal_algebra(n, [list(range(s, s + k)) for s, k in zip(starts, sizes)])
    u = haar_unitary(n, np.random.default_rng(n))
    rotated = unitary_conjugate_algebra(d, u)
    m = full_matrix_algebra(n)
    omega = random_density(n, np.random.default_rng(n + 1))
    omega.support  # noqa: B018  (the support is kept by the functional; _support_commutes reads it)
    corners = {"coordinate D": Corner(np.eye(n, dtype=complex)[:, : sizes[0]]), "rotated D": Corner(u[:, : sizes[0]])}

    def probes(label, alg):
        return {
            f"is_D_central ({label})": _measure(
                lambda nu: states.is_D_central(nu, alg, m), repeats, lambda: (_fresh_state(omega),)),
            f"_support_commutes ({label})": _measure(lambda: states._support_commutes(omega, alg), repeats),
        }

    rows = {}
    for label, alg in (("coordinate D", d), ("rotated D", rotated)):
        rows.update(probes(label, alg))
        rows[f"corner_algebra ({label})"] = _measure(lambda: corner_algebra(alg, corners[label]), repeats)
    crossover = getattr(states, "_BLOCK_FROM", None)
    if crossover is not None:
        for label, moved in (("coordinate D, by unit", 0), ("coordinate D, by products", n**4)):
            states._BLOCK_FROM = moved
            try:
                rows.update(probes(label, d))
            finally:
                states._BLOCK_FROM = crossover
    return rows


def _jensen_rows(n, repeats):
    """jensen_measure_suite at each of JENSEN_TRIALS on random_block_instance(n, default_rng(n)), coordinate
    and rotated, with the tracial pipeline's psi and rho; and geometric_mean per call under that rho on one
    draw x + (1 + ||x||)I from the rotated A."""
    import numpy as np
    from ncrep.instances import random_block_instance
    from ncrep.jensen import geometric_mean, jensen_measure_suite
    from ncrep.representing import representing_expectation_tracial

    rows = {}
    for label, conjugate in (("coordinate", False), ("rotated", True)):
        inst = random_block_instance(n, np.random.default_rng(n), conjugate=conjugate)
        psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
        for trials in JENSEN_TRIALS:
            rows[f"jensen_measure_suite (trials {trials}, {label})"] = _measure(
                lambda: jensen_measure_suite(rho, inst.phi, psi, trials=trials, rng_seed=n), repeats)
    x = (np.random.default_rng(0).standard_normal(inst.a.dim) @ inst.a.space.flat).reshape(n, n)
    a = x + (1.0 + np.linalg.norm(x, 2)) * np.eye(n)
    rows["geometric_mean"] = _measure(lambda: geometric_mean(rho, a), 20 * repeats)
    return rows


def _once(fn):
    """fn() run once under tracemalloc: its value, and its time, tracemalloc peak and the process's
    peak resident set after it (getrusage), which the rows run before it bound from below."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        value = fn()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10
    return value, {"s": round(seconds, 3), "peak_mb": round(peak / 2**20, 1), "maxrss_mb": round(maxrss, 1)}


def _once_rows(n):
    """The rotated build at n and both pipelines on it, run once each (_once)."""
    import numpy as np
    from ncrep.instances import random_block_instance, random_central_density
    from ncrep.representing import representing_expectation_state, representing_expectation_tracial

    inst, build = _once(lambda: random_block_instance(n, np.random.default_rng(3), conjugate=True))
    omega = random_central_density(n, inst.d, np.random.default_rng(n))
    args = (inst.m, inst.state, inst.d, inst.a, inst.phi)
    return {
        "dim A": inst.a.dim,
        "random_block_instance (rotated, once)": build,
        "representing_expectation_tracial (instance, once)": _once(lambda: representing_expectation_tracial(*args))[1],
        "representing_expectation_state (instance, once)": _once(
            lambda: representing_expectation_state(inst.m, omega, inst.d, inst.a, inst.phi))[1],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from ncrep.algebras import commutant, diagonal_algebra, full_matrix_algebra, generate_star_algebra
    from ncrep.expectations import commutes_with_modular, preserving_expectation, support_of_map
    from ncrep.instances import random_block_instance, random_central_density
    from ncrep.linalg import bimodule_gaps, null_space_rows
    from ncrep.representing import representing_expectation_state, representing_expectation_tracial
    from ncrep.states import PositiveFunctional, is_D_central, locally_central_check, sample_projections

    layers = {f"n={n}": _once_rows(n) for n in ONCE_SIZES}
    for n, sizes in SIZES.items():
        e, phi, a, d, m, nu, stack = _instance(n, sizes)
        tau = PositiveFunctional.tracial(n)
        omega = random_central_density(n, d, np.random.default_rng(n))
        reps = REPEATS[n]
        layers[f"n={n}"] = {
            "blocks": sizes,
            "ConditionalExpectation.validate": _measure(e.validate, reps),
            "Subalgebra.validate (A)": _measure(a.validate, reps),
            "StarAlgebra.validate (D)": _measure(d.validate, reps),
            "DCharacter.validate": _measure(phi.validate, reps),
            "support_of_map": _measure(lambda: support_of_map(e), reps),
            "commutes_with_modular": _measure(lambda: commutes_with_modular(e, nu), reps),
            "null_space_rows": dict(_measure(lambda: null_space_rows(stack), reps), shape=list(stack.shape)),
            "preserving_expectation (tracial)": _measure(
                lambda tau: preserving_expectation(tau, d, m), reps, lambda: (_fresh_state(tau),)
            ),
            "preserving_expectation (D-central state)": _measure(
                lambda omega: preserving_expectation(omega, d, m), reps, lambda: (_fresh_state(omega),)
            ),
            "representing_expectation_tracial": _measure(
                lambda tau: representing_expectation_tracial(m, tau, d, a, phi), reps, lambda: (_fresh_state(tau),)
            ),
            "representing_expectation_state": _measure(
                lambda omega: representing_expectation_state(m, omega, d, a, phi), reps,
                lambda: (_fresh_state(omega),),
            ),
            "is_D_central": _measure(lambda nu: is_D_central(nu, d, m), reps, lambda: (_fresh_state(nu),)),
            "locally_central_check (cap 16)": _measure(
                lambda nu: locally_central_check(nu, d, m, 16), reps, lambda: (_fresh_state(nu),)
            ),
        }
        layers[f"n={n}"].update(_step_rows(a, d, phi, m, reps))
        layers[f"n={n}"].update(_commutant_rows(commutant, d, m, reps))
        for cap in (16, 64):
            layers[f"n={n}"].update(_projection_rows(sample_projections, d, cap, reps))
        if n in GAPS_SIZES:
            layers[f"n={n}"].update(_gaps_rows(bimodule_gaps, e, phi, d, reps))
        if n in GENERATION_SIZES:
            layers[f"n={n}"].update(_generation_row(generate_star_algebra, d, reps))
    for n, sizes in COORDINATE_BLOCKS.items():
        layers[f"n={n}"] = dict(blocks=sizes, **_coordinate_gaps_row(bimodule_gaps, n, sizes, REPEATS[16]))
    for n, sizes in UNIT_ROW_BLOCKS.items():
        layers.setdefault(f"n={n}", {}).update(_unit_row_rows(n, sizes, UNIT_ROW_REPEATS[n]))
    for n, sizes in CROSSOVER_BLOCKS.items():
        layers.setdefault(f"n={n}", {}).update(_crossover_rows(n, sizes, CROSSOVER_REPEATS))
    for n, reps in JENSEN_REPEATS.items():
        layers.setdefault(f"n={n}", {}).update(_jensen_rows(n, reps))
    for n, reps in FRAME_REPEATS.items():
        layers.setdefault(f"n={n}", {}).update(_frame_rows(n, reps))
    for n, reps in FIX_REPEATS.items():
        layers.setdefault(f"n={n}", {}).update(_fix_rows(n, reps))
    for n, reps in INSTANCE_REPEATS.items():
        build = lambda n=n: random_block_instance(n, np.random.default_rng(3), conjugate=True)
        layers.setdefault(f"n={n}", {})["random_block_instance (rotated)"] = _measure(build, reps)
        if n in COORDINATE_BUILD_SIZES:
            layers[f"n={n}"]["random_block_instance (coordinate)"] = _measure(
                lambda n=n: random_block_instance(n, np.random.default_rng(3)), reps)
        if n in INSTANCE_COMMUTANT_SIZES or n in INSTANCE_PIPELINE_SIZES or n in CERTIFICATE_REPEATS:
            inst = build()
        if n in INSTANCE_COMMUTANT_SIZES:
            d, m = inst.d, full_matrix_algebra(n)
            layers[f"n={n}"]["commutant (instance D)"] = _measure(
                lambda d: commutant(d, m), INSTANCE_COMMUTANT_REPEATS, lambda: (_fresh(d),)
            )
        if n in CERTIFICATE_REPEATS:
            layers[f"n={n}"].update(_certificate_rows(inst.phi, CERTIFICATE_REPEATS[n]))
        if n in INSTANCE_PIPELINE_SIZES:
            layers[f"n={n}"]["DCharacter.validate (instance)"] = _measure(inst.phi.validate, 1)
            omega = random_central_density(n, inst.d, np.random.default_rng(n))
            layers[f"n={n}"]["representing_expectation_tracial (instance)"] = _measure(
                lambda state: representing_expectation_tracial(inst.m, state, inst.d, inst.a, inst.phi), 1,
                lambda: (_fresh_state(inst.state),),
            )
            layers[f"n={n}"]["representing_expectation_state (instance)"] = _measure(
                lambda omega: representing_expectation_state(inst.m, omega, inst.d, inst.a, inst.phi), 1,
                lambda: (_fresh_state(omega),),
            )
    for n in COMMUTATIVE_SIZES:
        d = diagonal_algebra(n)
        layers[f"diagonal n={n}"] = {}
        for cap in (16, 64):
            layers[f"diagonal n={n}"].update(_projection_rows(sample_projections, d, cap, REPEATS[4]))
    layers["diagnosis n=8"] = dict(blocks=[len(b) for b in DIAGNOSIS_BLOCKS], **_diagnosis_rows(REPEATS[8]))
    kinds = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in Path(args.src).rglob("*.py"):
        for kind, count in _line_kinds(path.read_text()).items():
            kinds[kind] += count
    print(json.dumps({"src_lines": sum(kinds.values()), "src_line_kinds": kinds, "layers": layers}, indent=1))


if __name__ == "__main__":
    main()
