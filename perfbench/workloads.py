"""The benchmark workloads: seeded trials and the checks made on their outputs.

A trial draws its inputs from its own seeded stream, makes every call into
ncrep through `call` (which times those calls and nothing else) and returns
the checks it made on the outputs.  The checks work on the raw matrices the
package returns (map matrices, densities, basis rows) with plain numpy, not
through the package's validators.  Tolerances are base values times the
package's global scale, `ncrep.config.tol`.
"""

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ncrep import algebras, expectations, instances, jensen, representing, states
from ncrep.config import tol


@dataclass(frozen=True)
class Check:
    """One verified property: passes when deviation <= tolerance."""

    name: str
    deviation: float
    tolerance: float

    @property
    def ok(self):
        return bool(self.deviation <= self.tolerance)  # NaN fails

    @property
    def margin(self):
        return float(self.deviation) / self.tolerance


def flag(name, ok):
    """A yes/no check: deviation 0 or 1 against 0.5."""
    return Check(name, 0.0 if ok else 1.0, 0.5)


class Clock:
    """Calls a function and adds its wall time to `seconds`."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int  # keeps the streams of different workloads apart under one seed
    trial: Callable  # trial(t, words, call) -> list[Check]; words seed the trial's stream
    warmup_trials: int
    memory_trials: tuple  # the trials the tracemalloc pass runs


# ---------------------------------------------------------------- helpers

def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hs(x):
    return float(np.linalg.norm(x))


def _unit(x):
    return x / max(1.0, _hs(x))


def _apply(k, x):
    """Image of x under a map matrix acting on row-major flattened matrices."""
    n = x.shape[0]
    return (k @ x.ravel()).reshape(n, n)


def _element(space, rng):
    """Random element of an operator subspace, from its orthonormal rows."""
    n = space.ambient_dim
    return _unit((_gaussian(rng, space.size) @ space.flat).reshape(n, n))


def _projector(space):
    return space.flat.T @ space.flat.conj()


def _pullback(k, rho):
    """Density sigma with Tr(sigma x) = Tr(rho E(x)) for every x."""
    n = rho.shape[0]
    return (k.T @ rho.T.ravel()).reshape(n, n).T


def _choi_floor(k):
    """Smallest eigenvalue of the Choi matrix sum_ij E_ij (x) E(E_ij)."""
    n = int(round(np.sqrt(k.shape[0])))
    choi = k.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)
    return float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])


def _expectation_checks(prefix, k, rho, d_space, rng):
    """E idempotent, rho∘E = rho, and E(d x d') = d E(x) d' on random d, d' in D."""
    n = rho.shape[0]
    x = _unit(_gaussian(rng, (n, n)))
    d1, d2 = _element(d_space, rng), _element(d_space, rng)
    return [
        Check(prefix + "idempotent", _hs(k @ k - k) / max(1.0, _hs(k)), tol(1e-9)),
        Check(prefix + "preserves_state", _hs(_pullback(k, rho) - rho), tol(1e-8)),
        Check(prefix + "bimodule", _hs(_apply(k, d1 @ x @ d2) - d1 @ _apply(k, x) @ d2), tol(1e-8)),
    ]


def _character_checks(prefix, inst, psi, rho, rng):
    """Psi|_A = Phi, rho = state∘Phi on A, rho kills ker(Phi), and Psi is a rho-preserving expectation."""
    phi = inst.phi.map_matrix
    scale = max(1.0, _hs(phi))
    a_rows = inst.a.space.flat
    values = inst.state.density.T.ravel() @ (phi @ a_rows.T)
    got = rho.density.T.ravel() @ a_rows.T
    represents = float(np.max(np.abs(got - values))) / max(1.0, float(np.max(np.abs(values))))
    kernel = inst.phi.kernel.flat
    killed = np.abs(rho.density.T.ravel() @ kernel.T) if kernel.size else np.zeros(1)
    return [
        Check(prefix + "extends", _hs((psi.map_matrix - phi) @ _projector(inst.a.space)) / scale, tol(1e-7)),
        Check(prefix + "represents", represents, tol(1e-8)),
        Check(prefix + "annihilates", float(np.max(killed)), tol(1e-8)),
    ] + _expectation_checks(prefix, psi.map_matrix, rho.density, inst.d.space, rng)


def _routes_agree(inst, tracial, state):
    (psi, rho), (psi2, rho2) = tracial, state
    gap = _hs(psi.map_matrix - psi2.map_matrix) / max(1.0, _hs(inst.phi.map_matrix))
    return Check("routes_agree", gap + _hs(rho.density - rho2.density), tol(1e-7))


def _log_mean(rho, a):
    """exp rho(log|a|), from the spectrum of a*a."""
    w, u = np.linalg.eigh(a.conj().T @ a)
    log_abs = (u * (0.5 * np.log(w))) @ u.conj().T
    return float(np.exp(np.real(np.trace(rho @ log_abs))))


# ---------------------------------------------------------------- small-suite

def _small_expectations(t, rng, call):
    n = int(rng.integers(2, 5))
    d = call(algebras.block_diagonal_algebra, n, call(instances.random_partition, n, rng))
    m = call(algebras.full_matrix_algebra, n)
    omega = call(instances.random_central_density, n, d, rng)
    if (t // len(SMALL_KINDS)) % 2:
        # rotated off the coordinate axes, so the map is a genuine Gram solve
        u = call(instances.haar_unitary, n, rng)
        d = call(algebras.unitary_conjugate_algebra, d, u)
        omega = call(states.PositiveFunctional, u @ omega.density @ u.conj().T)
    e = call(expectations.preserving_expectation, omega, d, m)
    checks = _expectation_checks("expectations.", e.map_matrix, omega.density, d.space, rng)
    return checks + [Check("expectations.choi_psd", max(0.0, -_choi_floor(e.map_matrix)), tol(1e-8))]


def _small_hoffman_rossi(t, rng, call):
    n = int(rng.integers(2, 5))
    inst = call(instances.random_block_instance, n, rng, conjugate=bool((t // len(SMALL_KINDS)) % 2))
    args = (inst.m, inst.state, inst.d, inst.a, inst.phi)
    tracial = call(representing.representing_expectation_tracial, *args)
    state = call(representing.representing_expectation_state, *args)
    return _character_checks("hoffman-rossi.", inst, *tracial, rng) + [_routes_agree(inst, tracial, state)]


def _small_jensen(t, rng, call):
    n = int(rng.integers(2, 5))
    witnessed = (t // len(SMALL_KINDS)) % 2 == 0
    inst = call(instances.random_block_instance, n, rng, conjugate=not witnessed)
    args = (inst.m, inst.state, inst.d, inst.a, inst.phi)
    psi, rho = call(representing.representing_expectation_tracial, *args)
    inner = call(jensen.jensen_measure_suite, rho, inst.phi, psi, trials=6, rng_seed=int(rng.integers(2**31)))
    # one more invertible draw from A, x + (1 + |x|) I, recomputed here
    x = (_gaussian(rng, inst.a.dim) @ inst.a.space.flat).reshape(n, n)
    a = x + (1.0 + float(np.linalg.norm(x, 2))) * np.eye(n)
    whole, image = _log_mean(rho.density, a), _log_mean(rho.density, _apply(inst.phi.map_matrix, a))
    checks = [
        flag("jensen.inner_suite", inner.ok),
        Check("jensen.inequality", max(0.0, image - whole) / whole, tol(1e-7)),
    ]
    if witnessed:
        checks.append(Check("jensen.witnessed_equality", abs(whole - image) / whole, tol(1e-6)))
        checks.append(Check("jensen.inner_equality_gap", inner.max_relative_gap, tol(1e-6)))
    return checks


def _diagnosis(n, blocks, variants, rng, call, prefix):
    """existence_diagnosis on the block-diagonal D in M_n for each variant:
    0 a central faithful state, 1 a non-central state, 2 a central state
    truncated to some blocks, which also gets its support-ideal map."""
    d = call(algebras.block_diagonal_algebra, n, blocks)
    m = call(algebras.full_matrix_algebra, n)
    checks = []
    for variant in variants:
        if variant == 0:
            omega = call(instances.random_central_density, n, d, rng)
        elif variant == 1:
            omega = call(instances.random_density, n, rng)
        else:
            if len(blocks) == 1:  # truncating needs a second block
                blocks = [[0], list(range(1, n))]
                d = call(algebras.block_diagonal_algebra, n, blocks)
            central = call(instances.random_central_density, n, d, rng).density
            keep = np.zeros((n, n))
            for blk in blocks[: int(rng.integers(1, len(blocks)))]:
                keep[blk, blk] = 1.0
            rho = keep @ central @ keep
            omega = call(states.PositiveFunctional, rho / float(np.trace(rho).real))
        report = call(expectations.existence_diagnosis, omega, d, m)
        checks.append(flag(prefix + "equivalences_hold", report.equivalences_hold))
        central_faithful = report.central and report.faithful_on_D
        checks.append(flag(prefix + "central_faithful_constructed", report.constructed or not central_faithful))
        if variant == 2:
            e = call(expectations.support_ideal_expectation, omega, d, m)
            gap = _hs(_pullback(e.map_matrix, omega.density) - omega.density)
            checks.append(Check(prefix + "support_ideal_preserves", gap, tol(1e-8)))
    return checks


def _small_diagnosis(t, rng, call):
    n = int(rng.integers(2, 5))
    blocks = call(instances.random_partition, n, rng)
    return _diagnosis(n, blocks, ((t // len(SMALL_KINDS)) % 3,), rng, call, "diagnosis.")


_E33 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def _small_corner(t, rng, call):
    # ACCEPTANCE 01: omega(a) = a_33 on M_3, so E(a) = a_33 e_33 for both choices of D
    m = call(algebras.full_matrix_algebra, 3)
    if (t // len(SMALL_KINDS)) % 2:
        d = call(algebras.block_diagonal_algebra, 3, [[0], [1], [2]])
    else:
        d = call(algebras.from_spanning, [np.eye(3), _E33])
    omega = call(states.PositiveFunctional, _E33)
    e = call(expectations.support_ideal_expectation, omega, d, m)
    a = _gaussian(rng, (3, 3))
    return [Check("corner.entry", float(np.abs(_apply(e.map_matrix, a) - a[2, 2] * _E33).max()), tol(1e-10))]


def _small_mth(t, rng, call):
    # the ACCEPTANCE 08 families: null atoms, g <= 0 on an atom, large g, small g
    k = int(rng.integers(2, 13))
    mu = rng.random(k)
    variant = (t // len(SMALL_KINDS)) % 5
    if variant == 0:
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
    verdict = call(representing.mth_check, mu, g)
    support = mu > 0
    expected = bool(np.all(g[support] > 0)) and float(np.sum(mu[support] / g[support])) <= 1.0 + tol(1e-12)
    return [flag("mth.criterion", verdict == expected)]


_HOLDER_TRIPLES = ((1.0, 2.0, 2.0), (0.5, 1.0, 1.0), (2.0 / 3.0, 1.0, 2.0))


def _small_holder(t, rng, call):
    # ACCEPTANCE 07: tracial Hoelder on M_2 and M_3
    rnd = t // len(SMALL_KINDS)
    n = 2 + rnd % 2
    p, q, r = _HOLDER_TRIPLES[rnd % 3]
    tau = call(states.PositiveFunctional.tracial, n)
    m = call(algebras.full_matrix_algebra, n)
    a, b = _gaussian(rng, (n, n)), _gaussian(rng, (n, n))
    verdict = call(jensen.holder_tracial, tau, a, b, p, q, r, m=m)

    def norm(x, s):
        return float(np.mean(np.linalg.svd(x, compute_uv=False) ** s)) ** (1.0 / s)

    lhs, rhs = norm(a @ b, p), norm(a, q) * norm(b, r)
    return [
        flag("holder.holds", verdict),
        Check("holder.recomputed", max(0.0, lhs - rhs) / max(1.0, rhs), tol(1e-9)),
    ]


SMALL_KINDS = (
    _small_expectations,
    _small_hoffman_rossi,
    _small_jensen,
    _small_diagnosis,
    _small_corner,
    _small_mth,
    _small_holder,
)


def small_suite(t, words, call):
    """Round robin over the kinds; t // len(SMALL_KINDS) picks each kind's variant."""
    return SMALL_KINDS[t % len(SMALL_KINDS)](t, np.random.default_rng(words), call)


# ---------------------------------------------------------------- large-pipeline

LARGE_N = 10
# Block sizes are fixed so every trial costs about the same: at n = 10 a run
# holds only a couple of dozen trials, and a free partition would let the
# seed's mix of block sizes, not the code, move the medians.  The seed still
# draws the block order, the Haar rotation and everything downstream.
LARGE_BLOCKS = (1, 3, 6)


def _large_stream(words):
    """The first of the trial's numbered candidate streams whose partition has LARGE_BLOCKS."""
    for attempt in range(100_000):
        blocks = instances.random_partition(LARGE_N, np.random.default_rng((*words, attempt)))
        if tuple(sorted(len(b) for b in blocks)) == LARGE_BLOCKS:
            return np.random.default_rng((*words, attempt))
    raise RuntimeError("no candidate stream gave the large-pipeline block sizes")


def large_pipeline(t, words, call):
    rng = _large_stream(words)
    inst = call(instances.random_block_instance, LARGE_N, rng, conjugate=bool(t % 2))
    if inst.d.dim != sum(k * k for k in LARGE_BLOCKS):
        raise RuntimeError("random_block_instance no longer draws its partition first from the stream")
    args = (inst.m, inst.state, inst.d, inst.a, inst.phi)
    tracial = call(representing.representing_expectation_tracial, *args)
    state = call(representing.representing_expectation_state, *args)
    return (
        _character_checks("tracial.", inst, *tracial, rng)
        + _character_checks("state.", inst, *state, rng)
        + [_routes_agree(inst, tracial, state)]
    )


# ---------------------------------------------------------------- diagnosis-mixed

# Block sizes for each n.  A trial sweeps n = 5..8 with all three states, so
# its cost is a sum of twelve diagnoses: with one state and one drawn n and
# partition per trial the latency density was thin around the median and
# the peak memory hung on whether a run drew a one-block D at n = 8, and
# both moved between seeds by more than the bounds allow.  The seed draws
# the order of the blocks, the states and the truncation.
DIAGNOSIS_BLOCKS = {5: (3, 2), 6: (3, 2, 1), 7: (4, 2, 1), 8: (4, 3, 1)}


def diagnosis_mixed(t, words, call):
    rng = np.random.default_rng(words)
    checks = []
    for n, sizes in DIAGNOSIS_BLOCKS.items():
        ends = np.cumsum(rng.permutation(sizes))
        blocks = [list(range(end - size, end)) for end, size in zip(ends, np.diff(ends, prepend=0))]
        checks += _diagnosis(n, blocks, (0, 1, 2), rng, call, f"n{n}.")
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-suite", 1, small_suite, 2 * len(SMALL_KINDS), tuple(range(10 * len(SMALL_KINDS)))),
        Workload("large-pipeline", 2, large_pipeline, 1, (0, 1)),
        Workload("diagnosis-mixed", 3, diagnosis_mixed, 1, tuple(range(3))),
    )
}
