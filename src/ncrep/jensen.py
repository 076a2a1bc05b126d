"""Geometric means and Jensen-type checks for characters on triangular algebras.

The omega-geometric mean Delta(a) = exp(omega(log|a|)) is the decreasing
limit of omega(|a|^{2^-n})^{2^n}.  For a character Phi whose domain is block
upper triangular and which extends to an omega-preserving expectation, the
geometric means of a and Phi(a) coincide for invertible a; in general only
Delta(Phi(a)) <= Delta(a) is asserted.  Singular Phi(a) is reported with the
Delta = 0 limit convention and the check degrades to the inequality.
"""

from dataclasses import dataclass

import numpy as np

from .algebras import full_matrix_algebra
from .config import tol
from .errors import (
    DimensionMismatch,
    InconsistencyDetected,
    InvariantViolation,
    NotBoundedBelow,
    NotInvertible,
    NotTracial,
    NotTriangularType,
)
from .expectations import _check_preserves
from .linalg import (
    as_matrix,
    dagger,
    eigh_hermitian,
    hs_norm,
    is_hermitian,
    matpow,
    pd_tol,
)
from .representing import _check_extends_character
from .states import tracial_certificate


@dataclass
class GeometricMeanReport:
    element: object
    value: float
    power_sequence: list

    def validate(self):
        seq = self.power_sequence
        slack = tol(1e-9) * max(1.0, seq[0])
        for left, right in zip(seq, seq[1:]):
            if right > left + slack:
                raise InvariantViolation(
                    f"power sequence is not non-increasing ({right:.9e} after {left:.9e})"
                )
        if abs(seq[-1] - self.value) > tol(1e-6) * self.value:
            raise InconsistencyDetected(
                f"power sequence tail {seq[-1]:.9e} disagrees with exp of the log mean {self.value:.9e}"
            )


def geometric_mean(omega, a, n_powers=24):
    """Delta(a) = exp(omega(log|a|)) together with the decreasing power sequence.

    The sequence s_n = omega(|a|^{2^-n})^{2^n} for n = 0..n_powers is checked
    to be non-increasing and to land on the closed form, which needs a
    invertible.  Every term comes from one spectral decomposition of a*a,
    evaluated in extended precision: the outer 2^n power amplifies rounding
    by 2^n, which double precision alone cannot absorb at the tail.
    """
    a = as_matrix(a)
    spec = eigh_hermitian(dagger(a) @ a)
    svals = np.sqrt(np.clip(spec.eigenvalues, 0.0, None))
    if svals[0] <= pd_tol(float(svals[-1])):
        raise NotInvertible(f"smallest singular value {svals[0]:.3e} is below the cutoff")
    u = spec.eigenvectors
    weights = np.clip(np.real(np.einsum("ji,jk,ki->i", np.conj(u), omega.density, u)), 0.0, None)
    lam = svals.astype(np.longdouble)
    w = weights.astype(np.longdouble)
    mass = np.sum(w)
    if abs(float(mass) - 1.0) > tol(1e-9):
        raise InvariantViolation(f"omega must be a state (total mass {float(mass):.9f})")
    # unit mass exactly: the 2^n-th powers amplify any mass defect, and the
    # p-norms are only monotone in p for a probability weight
    w = w / mass
    value = float(np.exp(np.sum(w * np.log(lam))))
    seq = []
    for n in range(n_powers + 1):
        term = np.sum(lam ** (np.longdouble(2.0) ** -n) * w)
        seq.append(float(np.exp(np.longdouble(2.0) ** n * np.log(term))))
    report = GeometricMeanReport(a, value, seq)
    report.validate()
    return report


def _holder_factor(omega, x, s):
    """omega(|x|^s)^{1/s}; s = inf is read as the operator norm."""
    if np.isinf(s):
        return float(np.linalg.norm(x, 2))
    return float(np.real(omega(matpow(dagger(x) @ x, s / 2)))) ** (1.0 / s)


def holder_tracial(omega, a, b, p, q, r, m=None):
    """Whether omega(|ab|^p)^{1/p} <= omega(|a|^q)^{1/q} omega(|b|^r)^{1/r}.

    Needs omega tracial on the ambient algebra m (all of M_n by default) and
    exponents 0 < p, q, r <= inf with 1/p = 1/q + 1/r.  Traciality is what
    makes the p-quantities norms, and it forces omega(|a|^p) = omega(|a*|^p),
    which is verified along the way.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if m is None:
        m = full_matrix_algebra(omega.density.shape[0])
    cert = tracial_certificate(omega, m)
    if not cert.result:
        raise NotTracial(f"omega is not tracial on the given algebra (violation {cert.max_violation:.3e})")
    if not (m.contains(a) and m.contains(b)):
        raise InvariantViolation("a and b must lie in the algebra omega is tracial on")
    for name, s in (("p", p), ("q", q), ("r", r)):
        if not s > 0:
            raise InvariantViolation(f"exponent {name} must be positive, got {s}")
    recip = lambda s: 0.0 if np.isinf(s) else 1.0 / s
    if abs(recip(p) - recip(q) - recip(r)) > tol(1e-12):
        raise InvariantViolation(f"exponents miss 1/p = 1/q + 1/r: p={p}, q={q}, r={r}")
    if not np.isinf(p):
        left = float(np.real(omega(matpow(dagger(a) @ a, p / 2))))
        right = float(np.real(omega(matpow(a @ dagger(a), p / 2))))
        if abs(left - right) > tol(1e-9) * max(1.0, abs(left)):
            raise InconsistencyDetected(
                f"tracial symmetry broke: omega(|a|^p)={left:.9e} vs omega(|a*|^p)={right:.9e}"
            )
    lhs = _holder_factor(omega, a @ b, p)
    rhs = _holder_factor(omega, a, q) * _holder_factor(omega, b, r)
    return lhs <= rhs + tol(1e-9) * max(1.0, rhs)


def logmodular_witness(a_alg, b):
    """Invertible a in the block triangular algebra with a*a = b exactly.

    Cholesky in the block ordering produces the witness, certifying the
    algebra logmodular on this input; b must be Hermitian and bounded below.
    """
    blocks = getattr(a_alg, "blocks", None)
    if blocks is None:
        raise NotTriangularType("witness construction needs a block upper triangular domain")
    b = as_matrix(b)
    if b.shape != (a_alg.n, a_alg.n):
        raise DimensionMismatch(f"b has shape {b.shape}, the algebra lives in M_{a_alg.n}")
    if not is_hermitian(b):
        raise NotBoundedBelow("b must be Hermitian to be bounded below")
    eigs = eigh_hermitian(b).eigenvalues
    if eigs[0] <= pd_tol(float(np.abs(eigs).max())):
        raise NotBoundedBelow(f"b is not bounded away from zero (min eigenvalue {eigs[0]:.3e})")
    order = [i for blk in blocks for i in blk]
    perm = np.eye(a_alg.n, dtype=complex)[order]
    lower = np.linalg.cholesky(perm @ b @ dagger(perm))
    a = dagger(perm) @ dagger(lower) @ perm
    if not a_alg.contains(a):
        raise InconsistencyDetected("Cholesky witness left the algebra")
    gap = hs_norm(dagger(a) @ a - b)
    if gap > tol(1e-9) * max(1.0, hs_norm(b)):
        raise InconsistencyDetected(f"witness misses b by {gap:.3e}")
    return a


@dataclass
class JensenReport:
    delta_a: float
    delta_image: float
    inequality_ok: bool
    equality_ok: object  # None when not asserted (unwitnessed domain or singular image)
    relative_gap: float
    degenerate: bool


def _require_jensen_setting(omega, phi, psi):
    """omega tracial on the character's range, psi omega-preserving and extending phi."""
    cert = tracial_certificate(omega, phi.range_alg)
    if not cert.result:
        raise NotTracial(f"omega is not tracial on the range (violation {cert.max_violation:.3e})")
    _check_preserves(psi.map_matrix, omega, omega.density)
    _check_extends_character(psi, phi)


def jensen_check(omega, phi, psi, a, witnessed=None):
    """Compare Delta(a) with Delta(Phi(a)) for a state omega preserved by psi.

    omega must be tracial on the character's range and psi an
    omega-preserving expectation extending phi.  The inequality
    Delta(Phi(a)) <= Delta(a) is always asserted; equality is asserted only
    on witnessed (block triangular) domains with Phi(a) invertible.
    """
    _require_jensen_setting(omega, phi, psi)
    return _compare_means(omega, phi, a, witnessed)


def _compare_means(omega, phi, a, witnessed):
    """jensen_check past the checks on omega, phi and psi, which the caller settled."""
    if not phi.domain.contains(a):
        raise InvariantViolation("a must lie in the character's domain")
    delta_a = geometric_mean(omega, a).value
    delta_image, degenerate = _delta_or_zero(omega, phi(a))
    inequality_ok = delta_image <= delta_a * (1.0 + tol(1e-7))
    gap = abs(delta_a - delta_image) / delta_a
    if witnessed is None:
        witnessed = getattr(phi.domain, "blocks", None) is not None
    equality_ok = None
    if witnessed and not degenerate:
        equality_ok = gap <= tol(1e-6)
    return JensenReport(delta_a, delta_image, inequality_ok, equality_ok, gap, degenerate)


def _delta_or_zero(omega, a):
    """(Delta(a), False), or (0.0, True) under the limit convention for singular a."""
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= pd_tol(float(svals[0])):
        return 0.0, True
    return geometric_mean(omega, a).value, False


@dataclass
class JensenSuiteSummary:
    trials: int
    inequality_passes: int
    equality_checked: int
    equality_passes: int
    degenerate_trials: int
    degenerate_passes: int
    max_relative_gap: float
    ok: bool


def jensen_measure_suite(omega, phi, psi, trials=100, rng_seed=0):
    """Random invertible draws from the domain plus singular-image boundary cases.

    Invertible elements come out as x + (1 + ||x||)I, which is invertible for
    any x because the spectrum sits inside the disc of radius ||x||.  Each
    trial gets its own stream spawned from the master seed.  Boundary draws
    shift by an eigenvalue of Phi(x) to force a singular image, where only
    the inequality (with the Delta = 0 convention) is checked.  The checks
    on omega, phi and psi run once, not once per trial.
    """
    _require_jensen_setting(omega, phi, psi)
    a_alg = phi.domain
    eye = np.eye(a_alg.n, dtype=complex)
    boundary = max(1, trials // 10) if trials else 0
    streams = np.random.SeedSequence(rng_seed).spawn(trials + boundary)
    ineq = eq_checked = eq_passed = degen_passed = 0
    worst = 0.0
    for t in range(trials + boundary):
        rng = np.random.default_rng(streams[t])
        coeff = rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
        x = sum(c * mat for c, mat in zip(coeff, a_alg.basis))
        a = x + (1.0 + float(np.linalg.norm(x, 2))) * eye
        if t < trials:
            report = _compare_means(omega, phi, a, None)
            ineq += bool(report.inequality_ok)
            worst = max(worst, report.relative_gap)
            if report.equality_ok is not None:
                eq_checked += 1
                eq_passed += bool(report.equality_ok)
        else:
            lam = rng.choice(np.linalg.eigvals(phi(a)))
            shifted = a - lam * eye
            d_img, _ = _delta_or_zero(omega, phi(shifted))
            d_a, _ = _delta_or_zero(omega, shifted)
            degen_passed += bool(d_img <= d_a * (1.0 + tol(1e-7)) + tol(1e-12))
    return JensenSuiteSummary(
        trials=trials,
        inequality_passes=ineq,
        equality_checked=eq_checked,
        equality_passes=eq_passed,
        degenerate_trials=boundary,
        degenerate_passes=degen_passed,
        max_relative_gap=worst,
        ok=ineq == trials and eq_passed == eq_checked and degen_passed == boundary,
    )
