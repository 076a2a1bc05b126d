"""Verification battery: ten end-to-end checks with pinned tolerances and budgets.

Each check prints one line, ACCEPTANCE <k> <name>: PASS/FAIL (worst deviation,
wall time), then asserts.  The tolerances are contracts, not tuning knobs; a
failure means a construction broke, not that a bound needs loosening.  Run
with -s to see the lines for passing tests too.
"""

import time

import numpy as np

from dense_oracle import closure_star_algebra, projector_matrix
from ncrep.algebras import (
    block_diagonal_algebra,
    commutant,
    from_spanning,
    full_matrix_algebra,
)
from ncrep.expectations import (
    average_to_central,
    choi_matrix,
    existence_diagnosis,
    expectation_from_density,
    expectation_to_density,
    support_ideal_expectation,
)
from ncrep.instances import (
    haar_unitary,
    random_block_instance,
    random_central_density,
    random_density,
    random_partition,
)
from ncrep.jensen import geometric_mean, holder_tracial
from ncrep.linalg import dagger, hs_norm, matpow, same_subspace
from ncrep.representing import (
    make_block_character,
    mth_check,
    representing_expectation_state,
    representing_expectation_tracial,
)
from ncrep.states import PositiveFunctional, check_support_compression


def report(num, name, ok, detail):
    line = "ACCEPTANCE %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _rngs(root, count):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(root).spawn(count)]


def test_01_support_ideal_corner():
    # omega(a) = a_33 on M_3 concentrates on the corner; the expectation onto
    # the support ideal must send a to a_33 e_33 for both unital corners of D.
    m = full_matrix_algebra(3)
    e33 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    om = PositiveFunctional(e33)
    d_small = from_spanning([np.eye(3), e33])
    d_diag = block_diagonal_algebra(3, [[0], [1], [2]])
    rng = np.random.default_rng(101)
    worst = 0.0
    best_build = 0.0
    for d in (d_small, d_diag):
        e = support_ideal_expectation(om, d, m)
        for _ in range(25):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            worst = max(worst, float(np.abs(e(a) - a[2, 2] * e33).max()))
        best = min(_timed_build(om, d, m) for _ in range(150))
        best_build = max(best_build, best)
    ok = worst <= 1e-10 and best_build < 1e-3
    report(1, "support-ideal-corner", ok,
           "entry dev %.2e, build %.3f ms" % (worst, 1e3 * best_build))


def _timed_build(om, d, m):
    t0 = time.perf_counter()
    support_ideal_expectation(om, d, m)
    return time.perf_counter() - t0


def test_02_block_character_pipeline():
    # 200 seeded block-character instances, half rotated off the axes: the
    # tracial pipeline must always construct, extend the character in operator
    # norm, stay idempotent, completely positive, a D-bimodule map, and
    # preserve the representing state.
    t0 = time.perf_counter()
    built = 0
    worst = {"extends": 0.0, "preserves": 0.0, "idempotent": 0.0, "choi": 0.0, "bimodule": 0.0}
    for t, rng in enumerate(_rngs(102, 200)):
        n = int(rng.integers(2, 9))
        inst = random_block_instance(n, rng, conjugate=bool(t % 2))
        psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
        built += 1
        p_a = projector_matrix(inst.a.space)
        worst["extends"] = max(worst["extends"], float(
            np.linalg.norm((psi.map_matrix - inst.phi.map_matrix) @ p_a, 2)))
        worst["preserves"] = max(worst["preserves"], hs_norm(psi.pullback(rho).density - rho.density))
        worst["idempotent"] = max(worst["idempotent"], float(
            np.linalg.norm(psi.map_matrix @ psi.map_matrix - psi.map_matrix, 2)))
        worst["choi"] = max(worst["choi"], -float(
            np.linalg.eigvalsh(choi_matrix(psi.map_matrix))[0]))
        d1, d2 = (_unit(inst.d.space.from_coords(
            rng.standard_normal(inst.d.dim) + 1j * rng.standard_normal(inst.d.dim))) for _ in range(2))
        x = _unit(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        worst["bimodule"] = max(worst["bimodule"], hs_norm(psi(d1 @ x @ d2) - d1 @ psi(x) @ d2))
    dt = time.perf_counter() - t0
    ok = (built == 200 and worst["extends"] <= 1e-7 and worst["preserves"] <= 1e-8
          and worst["idempotent"] <= 1e-8 and worst["choi"] <= 1e-8
          and worst["bimodule"] <= 1e-8 and dt < 30.0)
    report(2, "block-character-pipeline", ok,
           "200/200 built, ext %.1e, pres %.1e, idem %.1e, choi %.1e, bimod %.1e, %.1f s"
           % (worst["extends"], worst["preserves"], worst["idempotent"],
              worst["choi"], worst["bimodule"], dt))


def _unit(x):
    return x / hs_norm(x)


def test_03_density_expectation_round_trip():
    # h <-> E_h is a bijection on normalized commuting densities: rebuild h
    # from its expectation and compare, and check nu∘E_h has density h/n.
    t0 = time.perf_counter()
    worst_rt = worst_pull = 0.0
    for rng in _rngs(103, 200):
        n = int(rng.integers(2, 7))
        blocks = random_partition(n, rng)
        m = full_matrix_algebra(n)
        projs = []
        h = np.zeros((n, n), dtype=complex)
        for blk in blocks:
            p = np.zeros((n, n), dtype=complex)
            p[blk, blk] = 1.0
            projs.append(p)
            k = len(blk)
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            hb = x @ dagger(x) + 0.2 * np.eye(k)
            # block trace k makes E_D(h) = I exact for the indicator algebra
            h[np.ix_(blk, blk)] = hb * (k / float(np.trace(hb).real))
        d = from_spanning(projs)
        nu = PositiveFunctional.tracial(n)
        e = expectation_from_density(h, d, m, nu)
        h_back = expectation_to_density(e, nu)
        worst_rt = max(worst_rt, hs_norm(h_back - h) / hs_norm(h))
        worst_pull = max(worst_pull, hs_norm(e.pullback(nu).density - h / n))
    dt = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and worst_pull <= 1e-9 and dt < 10.0
    report(3, "density-round-trip", ok,
           "round trip %.1e, pullback %.1e, %.1f s" % (worst_rt, worst_pull, dt))


def test_04_existence_dichotomy():
    # Centrality of the state decides constructibility of a preserving
    # expectation: across 500 mixed draws the two verdicts must coincide, and
    # the skew qubit state over the diagonal must be diagnosed nonexistent.
    t0 = time.perf_counter()
    disagreements = 0
    broken_equiv = 0
    for t, rng in enumerate(_rngs(104, 500)):
        n = int(rng.integers(2, 5))
        blocks = random_partition(n, rng)
        if t % 2 and len(blocks) < 2:
            blocks = [[0], list(range(1, n))]
        d = block_diagonal_algebra(n, blocks)
        m = full_matrix_algebra(n)
        om = random_central_density(n, d, rng) if t % 2 == 0 else random_density(n, rng)
        rep = existence_diagnosis(om, d, m)
        disagreements += int(rep.central != rep.constructed)
        broken_equiv += int(not rep.equivalences_hold)
    skew = existence_diagnosis(
        PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)),
        block_diagonal_algebra(2, [[0], [1]]), full_matrix_algebra(2))
    dt = time.perf_counter() - t0
    ok = (disagreements == 0 and broken_equiv == 0 and not skew.constructed
          and not skew.central and skew.equivalences_hold and dt < 10.0)
    report(4, "existence-dichotomy", ok,
           "%d/500 disagree, %d equiv broken, skew nonexistent %s, %.1f s"
           % (disagreements, broken_equiv, not skew.constructed, dt))


def test_05_averaging_to_central():
    # Averaging over the preserving projection turns any extension of the
    # trace on D into a D-central one that still extends it.
    t0 = time.perf_counter()
    worst_ext = worst_central = worst_mod = 0.0
    for rng in _rngs(105, 200):
        n = int(rng.integers(2, 7))
        blocks = random_partition(n, rng)
        d = block_diagonal_algebra(n, blocks)
        m = full_matrix_algebra(n)
        tau = PositiveFunctional.tracial(n)
        hmat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hmat = (hmat + dagger(hmat)) / 2
        pinched = np.zeros_like(hmat)
        for blk in blocks:
            pinched[np.ix_(blk, blk)] = hmat[np.ix_(blk, blk)]
        off = hmat - pinched
        scale = float(np.linalg.norm(off, 2))
        rho = np.eye(n, dtype=complex) / n
        if scale > 1e-12:
            # off-block perturbation keeps psi|_D = tau|_D and psi positive
            rho = rho + off / (2 * n * scale)
        psi = PositiveFunctional(rho)
        res = average_to_central(psi, tau, d, m)
        worst_ext = max(worst_ext, max(abs(complex(res(b)) - complex(tau(b))) for b in d.basis))
        worst_central = max(worst_central, max(
            hs_norm(res.density @ b - b @ res.density) for b in d.basis))
        worst_mod = max(worst_mod, hs_norm(
            res.density @ tau.density - tau.density @ res.density))
    dt = time.perf_counter() - t0
    ok = worst_ext <= 1e-9 and worst_central <= 1e-9 and worst_mod <= 1e-12 and dt < 5.0
    report(5, "averaging-to-central", ok,
           "extension %.1e, centrality %.1e, modular %.1e, %.1f s"
           % (worst_ext, worst_central, worst_mod, dt))


def test_06_geometric_mean_equality():
    # Multiplicative Jensen equality on the block triangular algebras:
    # Delta(a) = Delta(Phi a) for invertible a, matching |det a|^(1/n), with
    # the halved-power sequence non-increasing through index 20.
    t0 = time.perf_counter()
    worst_gap = worst_oracle = worst_mono = 0.0
    for rng in _rngs(106, 500):
        n = int(rng.integers(2, 7))
        a_alg, d, phi = make_block_character(n, random_partition(n, rng))
        tau = PositiveFunctional.tracial(n)
        x = a_alg.space.from_coords(
            rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim))
        a = x + (1.0 + float(np.linalg.norm(x, 2))) * np.eye(n)
        ra = geometric_mean(tau, a)
        rp = geometric_mean(tau, phi(a))
        oracle = float(abs(np.linalg.det(a))) ** (1.0 / n)
        worst_gap = max(worst_gap, abs(ra.value - rp.value) / ra.value)
        worst_oracle = max(worst_oracle,
                           abs(ra.value - oracle) / oracle, abs(rp.value - oracle) / oracle)
        for seq in (ra.power_sequence, rp.power_sequence):
            slack = 1e-9 * max(1.0, seq[0])
            worst_mono = max(worst_mono, max(
                right - left for left, right in zip(seq[:21], seq[1:21])))
            assert all(right <= left + slack for left, right in zip(seq[:21], seq[1:21]))
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_oracle <= 1e-6 and dt < 20.0
    report(6, "geometric-mean-equality", ok,
           "character gap %.1e, det oracle %.1e, monotonicity slack %.1e, %.1f s"
           % (worst_gap, worst_oracle, worst_mono, dt))


def test_07_tracial_holder():
    # Hoelder for the trace across three exponent triples, ten thousand draws,
    # with the |a| vs |a*| symmetry that traciality forces.
    triples = [(1.0, 2.0, 2.0), (0.5, 1.0, 1.0), (2.0 / 3.0, 1.0, 2.0)]
    ms = {n: full_matrix_algebra(n) for n in (2, 3)}
    taus = {n: PositiveFunctional.tracial(n) for n in (2, 3)}
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    violations = 0
    worst_sym = 0.0
    for t in range(10_000):
        n = 2 + t % 2
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p, q, r = triples[t % 3]
        violations += int(not holder_tracial(taus[n], a, b, p, q, r, m=ms[n]))
        left = float(np.real(taus[n](matpow(dagger(a) @ a, p / 2))))
        right = float(np.real(taus[n](matpow(a @ dagger(a), p / 2))))
        worst_sym = max(worst_sym, abs(left - right) / max(1.0, abs(left)))
    dt = time.perf_counter() - t0
    ok = violations == 0 and worst_sym <= 1e-9 and dt < 20.0
    report(7, "tracial-holder", ok,
           "%d/10000 violations, symmetry %.1e, %.1f s" % (violations, worst_sym, dt))


def _simplex_sups(mu, g, starts, steps=80):
    """Brute-force sup of (sum f mu)^2 / (sum f^2 g mu) over f >= 0, for a batch
    of spaces with k atoms each: mu and g are (b, k), starts (b, restarts, k).

    Vertex probes plus multiplicative projected gradient ascent from the
    random interior starts, vectorized across the spaces and the restarts.
    """
    b, k = mu.shape
    f = np.concatenate([np.broadcast_to(np.eye(k), (b, k, k)), starts], axis=1)
    mu_col, g_row, mu_row = mu[:, :, None], g[:, None, :], mu[:, None, :]

    def values(f):
        w = (f @ mu_col)[..., 0]
        q = ((f * f * g_row) @ mu_col)[..., 0]
        qs = np.where(q > 0, q, 1.0)
        return w, qs, np.where(q > 0, w * w / qs, 0.0)

    best = np.zeros(b)
    for _ in range(steps):
        w, qs, val = values(f)
        best = np.maximum(best, val.max(axis=1))
        grad = (2.0 * w[..., None] * mu_row - (2.0 * val)[..., None] * (f * g_row * mu_row)) / qs[..., None]
        step = grad / np.maximum(1e-12, np.abs(grad).max(axis=2, keepdims=True))
        f = np.clip(f + 0.35 * f * step, 0.0, None)
        top = f.max(axis=2, keepdims=True)
        f = np.where(top > 0, f / np.maximum(top, 1e-300), f)
    return np.maximum(best, values(f)[2].max(axis=1))


def test_08_measure_criterion_vs_search():
    # The closed inequality criterion against direct maximization over the
    # simplex, on a thousand atomic measure spaces including null atoms and
    # weight functions vanishing on the support.  Every space and its sixteen
    # search starts are drawn first; a space with g <= 0 on a support atom is
    # unbounded at that vertex and takes no starts.
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    drawn = []  # (mu, g, starts), starts None for an unbounded space
    while len(drawn) < 1000:
        k = int(rng.integers(2, 13))
        mu = rng.random(k)
        variant = len(drawn) % 5
        if variant == 0 and k > 2:
            mu[rng.integers(0, k)] = 0.0
        mu = mu / mu.sum()
        if variant == 1:
            g = rng.uniform(0.3, 3.0, k)
            g[rng.integers(0, k)] = -float(rng.random() < 0.5) * rng.random()
        elif variant == 2:
            g = rng.uniform(1.5, 4.0, k)
        elif variant == 3:
            g = rng.uniform(0.15, 0.8, k)
        else:
            g = rng.uniform(0.3, 3.0, k)
        support = mu > 0
        if np.any(support & (g <= 0)):
            drawn.append((mu, g, None))
            continue
        # skip draws too close to the decision boundary for a numerical
        # maximizer to call reliably
        if abs(float(np.sum(mu[support] / g[support])) - 1.0) < 5e-3:
            continue
        drawn.append((mu, g, rng.random((16, k))))
    sups = np.full(len(drawn), np.inf)
    for k in range(2, 13):
        batch = [i for i, (mu, _, starts) in enumerate(drawn) if starts is not None and mu.size == k]
        if batch:
            mu, g, starts = (np.array([drawn[i][j] for i in batch]) for j in range(3))
            sups[batch] = _simplex_sups(mu, g, starts)
    disagreements = sum(int((sup <= 1.0 + 1e-9) != mth_check(mu, g)) for sup, (mu, g, _) in zip(sups, drawn))
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and dt < 5.0
    report(8, "measure-criterion-vs-search", ok,
           "%d/1000 disagreements, %.1f s" % (disagreements, dt))


def generator_family(variant, n, rng):
    """ACCEPTANCE 09's generators: a Hermitian matrix, a projection, a rotated matrix
    with two equal diagonal blocks, or two complex Gaussian matrices."""
    if variant == 0:
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return [(h + dagger(h)) / 2]
    if variant == 1:
        u = haar_unitary(n, rng)
        k = int(rng.integers(1, n))
        return [u[:, :k] @ dagger(u[:, :k])]
    if variant == 2:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = np.zeros((n, n), dtype=complex)
        half = n // 2
        z[:half, :half] = x[:half, :half]
        z[half:2 * half, half:2 * half] = x[:half, :half]
        u = haar_unitary(n, rng)
        return [u @ z @ dagger(u)]
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]


def test_09_bicommutant_and_compression():
    # Generated *-algebras equal their bicommutant, and compressing to the
    # support projection exchanges centralizer and compression.  The package
    # generates *-algebras as bicommutants, so the generation side here is the
    # closure-pass oracle, which forms basis products and no commutant.
    t0 = time.perf_counter()
    worst_proj = 0.0
    compression_failures = 0
    for t, rng in enumerate(_rngs(109, 200)):
        n = int(rng.integers(2, 7))
        m = full_matrix_algebra(n)
        s = closure_star_algebra(generator_family(t % 4, n, rng))
        s2 = commutant(commutant(s, m), m)
        worst_proj = max(worst_proj, hs_norm(
            projector_matrix(s2.space) - projector_matrix(s.space)))
        assert same_subspace(s2.space, s.space)
        kdim = int(rng.integers(1, n))
        lam = np.concatenate([rng.random(n - kdim) + 0.1, np.zeros(kdim)])
        u = haar_unitary(n, rng)
        om = PositiveFunctional(u @ np.diag(lam / lam.sum()) @ dagger(u))
        compression_failures += int(not check_support_compression(om, m))
    dt = time.perf_counter() - t0
    ok = worst_proj <= 1e-8 and compression_failures == 0 and dt < 15.0
    report(9, "bicommutant-and-compression", ok,
           "projector gap %.1e, %d/200 compression failures, %.1f s"
           % (worst_proj, compression_failures, dt))


def test_10_pipeline_agreement():
    # The tracial and general-state routes build the same expectation on
    # tracial instances, and the construction does not depend on the interior
    # perturbation used to break degeneracy.
    t0 = time.perf_counter()
    worst_routes = worst_perturb = 0.0
    for t, rng in enumerate(_rngs(110, 100)):
        n = int(rng.integers(2, 7))
        inst = random_block_instance(n, rng, conjugate=bool(t % 2))
        args = (inst.m, inst.state, inst.d, inst.a, inst.phi)
        psi_t, _ = representing_expectation_tracial(*args)
        psi_s, _ = representing_expectation_state(*args)
        psi_p, _ = representing_expectation_tracial(*args, perturb_r=0.5, rng_seed=1000 + t)
        worst_routes = max(worst_routes, float(
            np.linalg.norm(psi_t.map_matrix - psi_s.map_matrix, 2)))
        worst_perturb = max(worst_perturb, float(
            np.linalg.norm(psi_t.map_matrix - psi_p.map_matrix, 2)))
    dt = time.perf_counter() - t0
    ok = worst_routes <= 1e-7 and worst_perturb <= 1e-7 and dt < 20.0
    report(10, "pipeline-agreement", ok,
           "route gap %.1e, perturbation gap %.1e, %.1f s" % (worst_routes, worst_perturb, dt))
