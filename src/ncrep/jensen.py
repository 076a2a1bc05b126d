"""Geometric means and Jensen-type checks for characters on triangular algebras.

The omega-geometric mean Delta(a) = exp(omega(log|a|)) is the decreasing
limit of omega(|a|^{2^-n})^{2^n}.  For a character Phi whose domain is block
upper triangular and which extends to an omega-preserving expectation, the
geometric means of a and Phi(a) coincide for invertible a; in general only
Delta(Phi(a)) <= Delta(a) is asserted.  Singular Phi(a) is reported with the
Delta = 0 limit convention and the check degrades to the inequality.

|a| = V S V* is read off one SVD a = U S V*, not off a*a, whose spectrum
loses singular values below about 1e-8 of the largest.  Means are taken a
stack at a time (_geometric_means), and jensen_measure_suite batches its
draws, raising the first failure a draw-by-draw loop would meet.
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
    NotTriangularType,
    check,
)
from .expectations import _check_preserves
from .linalg import (
    as_matrix,
    chunk_slices,
    dagger,
    eigh_hermitian,
    hs_norm,
    hs_norms,
    matpow,
    pd_tol,
    require_finite,
    require_hermitian,
    sized_matrix,
)
from .representing import _check_extends_character
from .states import require_tracial


@dataclass
class GeometricMeanReport:
    element: object
    value: float
    power_sequence: list

    def validate(self):
        _check_sequences(np.array([self.value]), np.array([self.power_sequence]))


def _check_sequences(values, seqs):
    """Check each power sequence (a row of seqs) to be non-increasing, up to a slack of
    tol(1e-9) max(1, its first term), and to land within tol(1e-6) of its value (relative); raise
    the first failure as a loop over the rows, and within a row over its pairs, would meet it."""
    slack = tol(1e-9) * np.where(seqs[:, 0] > 1.0, seqs[:, 0], 1.0)
    rising = ~(seqs[:, 1:] <= seqs[:, :-1] + slack[:, None])  # NaN fails
    gaps = abs(seqs[:, -1] - values)
    for i in np.flatnonzero(rising.any(1) | ~(gaps <= tol(1e-6) * values)):
        if rising[i].any():  # not check: the message names both terms of the pair
            left, right = seqs[i, int(np.argmax(rising[i])) :][:2]
            raise InvariantViolation(f"power sequence is not non-increasing ({right:.9e} after {left:.9e})")
        check(InconsistencyDetected,
              f"power sequence tail {seqs[i, -1]:.9e} disagrees with exp of the log mean {values[i]:.9e}",
              gaps[i], tol(1e-6) * values[i])


# the number of halvings in a power sequence: geometric_mean's default, and the Jensen checks'
_POWERS = 24


def geometric_mean(omega, a, n_powers=_POWERS):
    """Delta(a) = exp(omega(log|a|)) together with the decreasing power sequence.

    The sequence s_n = omega(|a|^{2^-n})^{2^n} for n = 0..n_powers is checked
    to be non-increasing and to land on the closed form, which needs a
    invertible: its smallest singular value above pd_tol of its largest.
    |a| = V S V* comes from one SVD a = U S V*, so S is a's singular values
    as the SVD finds them, accurate even where their squares (the spectrum
    of a*a) would be lost against the largest one, and omega's weights are
    the diagonal of V* rho V.  Every term is evaluated in extended
    precision, and its log as log1p of the weighted lam^(2^-n) - 1: the
    outer 2^n power multiplies the log's error by 2^n, which an error
    relative to the log itself, of size 2^-n, absorbs at any n_powers, where
    one relative to the term would grow past the monotone check's slack
    from about n = 40.  This is _geometric_means on a stack of one.
    """
    a = sized_matrix(a, omega.n)
    values, seqs = _geometric_means(omega, a[None], n_powers)
    return GeometricMeanReport(a, values.tolist()[0], seqs.tolist()[0])


def _spectra(stack):
    """The singular values, largest first, and V* of each entry of a stack: one batched SVD a = U S V*."""
    _, svals, vh = np.linalg.svd(stack)
    return svals, vh


def _geometric_means(omega, stack, n_powers, spectra=None):
    """geometric_mean at each entry of a stacked (k, n, n) tensor: the values (k,) and the power
    sequences (k, n_powers + 1), as float arrays.

    spectra is the stack's _spectra when the caller has taken them.  All the
    power sequences come from one long-double grid of shape (k, n_powers + 1,
    n).  The entries are checked in order, each as geometric_mean checks one
    (invertibility, omega's mass, then its report's monotone sequence and
    tail), and the first failure is raised; the grid covers only the entries
    before the first that is singular or sees a mass defect, so neither is
    ever divided by or taken the log of.
    """
    svals, vh = _spectra(stack) if spectra is None else spectra
    singular = ~(svals[:, -1] > pd_tol(svals[:, 0]))  # strict, and NaN fails
    stop = int(np.argmax(singular)) if singular.any() else len(stack)
    # omega's weights on |a| = V S V*: the diagonal of V* rho V
    weights = np.clip(((vh[:stop] @ omega.density) * vh[:stop].conj()).sum(-1).real, 0.0, None)
    mass = weights.astype(np.longdouble).sum(-1)
    unit_mass = abs(mass.astype(float) - 1.0) <= tol(1e-9)
    good = stop if unit_mass.all() else int(np.argmin(unit_mass))
    lam, w = svals[:good].astype(np.longdouble), weights[:good].astype(np.longdouble)
    # unit mass exactly: the 2^n-th powers amplify any mass defect, and the
    # p-norms are only monotone in p for a probability weight
    w = w / mass[:good, None]
    values = np.exp((w * np.log(lam)).sum(-1)).astype(float)
    # the grid of lam^(2^-p), p = 0..n_powers, each row the square root of the row before: a
    # correctly rounded root halves the relative error it is given, so no entry is off by much
    # more than one long-double ulp, as with a power function, at a fraction of its cost
    grid = np.empty((good, n_powers + 1, lam.shape[-1]), dtype=np.longdouble)
    grid[:, 0] = lam
    for p in range(n_powers):
        np.sqrt(grid[:, p], out=grid[:, p + 1])
    # log of term p as log1p(sum w (lam^(2^-p) - 1)), the unit mass taken exactly, with
    # lam^(2^-p) - 1 = (lam - 1) / prod_{q=1..p} (1 + lam^(2^-q)) to p ulps relative, where the
    # difference with 1 would lose all but 2^-p of them; the 2^p-th power then scales the log's
    # error by 2^p times its size 2^-p
    expm1 = np.empty_like(grid)
    expm1[:, 0] = lam - 1
    np.divide(expm1[:, :1], np.cumprod(1 + grid[:, 1:], axis=1), out=expm1[:, 1:])
    logs = np.log1p(np.einsum("kpn,kn->kp", expm1, w))
    seqs = np.exp(np.ldexp(logs, np.arange(n_powers + 1))).astype(float)
    _check_sequences(values, seqs)
    if good < stop:
        raise InvariantViolation(f"omega must be a state (total mass {float(mass[good]):.9f})")
    if stop < len(stack):
        raise NotInvertible(f"smallest singular value {svals[stop, -1]:.3e} is below the cutoff")
    return values, seqs


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
    require_tracial(omega, m, "omega is not tracial on the given algebra (violation {:.3e})")
    if not (m.contains(a) and m.contains(b)):
        raise InvariantViolation("a and b must lie in the algebra omega is tracial on")
    for name, s in (("p", p), ("q", q), ("r", r)):
        if not s > 0:
            raise InvariantViolation(f"exponent {name} must be positive, got {s}")
    recip = lambda s: 0.0 if np.isinf(s) else 1.0 / s
    check(InvariantViolation, f"exponents miss 1/p = 1/q + 1/r: p={p}, q={q}, r={r}",
          abs(recip(p) - recip(q) - recip(r)), tol(1e-12))
    if not np.isinf(p):
        left = float(np.real(omega(matpow(dagger(a) @ a, p / 2))))
        right = float(np.real(omega(matpow(a @ dagger(a), p / 2))))
        check(InconsistencyDetected,
              f"tracial symmetry broke: omega(|a|^p)={left:.9e} vs omega(|a*|^p)={right:.9e}",
              abs(left - right), tol(1e-9) * max(1.0, abs(left)))
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
    require_hermitian(NotBoundedBelow, "b must be Hermitian to be bounded below", b, hs_norm(b))
    eigs = eigh_hermitian(b).eigenvalues
    if not eigs[0] > pd_tol(float(np.abs(eigs).max())):  # strict, and NaN fails
        raise NotBoundedBelow(f"b is not bounded away from zero (min eigenvalue {eigs[0]:.3e})")
    order = [i for blk in blocks for i in blk]
    perm = np.eye(a_alg.n, dtype=complex)[order]
    lower = np.linalg.cholesky(perm @ b @ dagger(perm))
    a = dagger(perm) @ dagger(lower) @ perm
    if not a_alg.contains(a):
        raise InconsistencyDetected("Cholesky witness left the algebra")
    check(InconsistencyDetected, "witness misses b by {:.3e}",
          hs_norm(dagger(a) @ a - b), tol(1e-9) * max(1.0, hs_norm(b)))
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
    require_tracial(omega, phi.range_alg, "omega is not tracial on the range (violation {:.3e})")
    _check_preserves(psi, omega, omega.density)
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
    a = as_matrix(a)
    deltas, degenerate = _deltas_or_zero(omega, np.stack((a, phi(a))), np.array([False, True]))
    if witnessed is None:
        witnessed = getattr(phi.domain, "blocks", None) is not None
    return _jensen_report(*deltas.tolist(), bool(degenerate[1]), witnessed)


def _jensen_report(delta_a, delta_image, degenerate, witnessed):
    inequality_ok = delta_image <= delta_a * (1.0 + tol(1e-7))
    gap = abs(delta_a - delta_image) / delta_a
    equality_ok = None
    if witnessed and not degenerate:
        equality_ok = gap <= tol(1e-6)
    return JensenReport(delta_a, delta_image, inequality_ok, equality_ok, gap, degenerate)


def _deltas_or_zero(omega, stack, singular_ok):
    """Delta at each entry of a stack, and which entries are degenerate, from one batched SVD.

    An entry flagged in singular_ok whose smallest singular value is at most
    pd_tol of its largest is degenerate and reads 0.0 under the limit
    convention; every other entry's mean is taken (_geometric_means on the
    same SVD), in stack order, and the first failure is raised.
    """
    svals, vh = _spectra(stack)
    degenerate = singular_ok & (svals[:, -1] <= pd_tol(svals[:, 0]))
    keep = np.flatnonzero(~degenerate)
    deltas = np.zeros(len(stack))
    deltas[keep] = _geometric_means(omega, stack[keep], _POWERS, (svals[keep], vh[keep]))[0]
    return deltas, degenerate


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
    draw gets its own stream spawned from the master seed, which gives its
    coefficients and then, for a boundary draw, its choice of shift: an
    eigenvalue of Phi(x) that forces a singular image, where only the
    inequality (with the Delta = 0 convention) is checked.  The checks on
    omega, phi and psi run once, not once per trial.

    The draws go in batched passes (_draw_pass), as many per pass as keep its
    power grid within linalg.chunk_slices' bound (a few hundred at n <= 4),
    and the first failure is raised in the order a draw-by-draw loop would
    meet it: per draw t < trials its membership in the domain, the mean of
    a, the degeneracy of Phi(a) and the mean of Phi(a); per boundary draw
    Phi(shifted), then shifted.
    """
    _require_jensen_setting(omega, phi, psi)
    boundary = max(1, trials // 10) if trials else 0
    streams = np.random.SeedSequence(rng_seed).spawn(trials + boundary)
    deltas = []
    # per draw, a pass holds two entries of the power grid
    for part in chunk_slices(trials + boundary, 2 * (_POWERS + 1) * phi.domain.n):
        deltas += _draw_pass(omega, phi, streams[part], max(0, min(part.stop, trials) - part.start))
    witnessed = getattr(phi.domain, "blocks", None) is not None
    reports = [_jensen_report(d_a, d_img, degen, witnessed) for d_a, d_img, degen in deltas[:trials]]
    degen_passed = sum(d_img <= d_a * (1.0 + tol(1e-7)) + tol(1e-12) for d_img, d_a, _ in deltas[trials:])
    ineq = sum(r.inequality_ok for r in reports)
    checked = [r.equality_ok for r in reports if r.equality_ok is not None]
    return JensenSuiteSummary(
        trials=trials,
        inequality_passes=ineq,
        equality_checked=len(checked),
        equality_passes=sum(checked),
        degenerate_trials=boundary,
        degenerate_passes=degen_passed,
        max_relative_gap=max([0.0] + [r.relative_gap for r in reports]),
        ok=ineq == trials and sum(checked) == len(checked) and degen_passed == boundary,
    )


def _draw_pass(omega, phi, streams, invertible):
    """One pass over consecutive draws of jensen_measure_suite, one stream each, the first
    `invertible` of them invertible draws and the rest boundary draws: per draw, the Deltas of its
    two entries (a and Phi(a), or Phi(shifted) and shifted) and whether the second is degenerate.

    A constant number of calls serves any number of draws: one product over
    the domain's basis forms every x, one batched norm every shift 1 + ||x||,
    one residual call decides membership, one application of Phi gives the
    images, one eigvals the boundary shifts and one more application their
    images; then one batched SVD serves every degeneracy test and every mean
    (_deltas_or_zero).
    """
    a_alg = phi.domain
    n = a_alg.n
    eye = np.eye(n)
    gaussian = lambda rng: rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
    # a generator holds kilobytes of state: only the boundary draws', which choose a shift later, are kept
    choosers = [np.random.default_rng(s) for s in streams[invertible:]]
    coeff = [gaussian(np.random.default_rng(s)) for s in streams[:invertible]]
    coeff += [gaussian(rng) for rng in choosers]
    x = (np.reshape(coeff, (-1, a_alg.dim)) @ a_alg.space.flat).reshape(-1, n, n)
    a = x + (1.0 + np.linalg.norm(x, 2, axis=(1, 2)))[:, None, None] * eye
    # contains' statistic and threshold, per draw
    scale = np.maximum(1.0, hs_norms(a[:invertible]))
    member = a_alg.space.residuals(a[:invertible].reshape(invertible, n * n)) <= tol(1e-8) * scale
    cut = invertible if member.all() else int(np.argmin(member))
    images = phi.apply(require_finite(a))
    lam = [rng.choice(eigs) for rng, eigs in zip(choosers, np.linalg.eigvals(images[invertible:]))]
    shifted = a[invertible:] - np.reshape(lam, (-1, 1, 1)) * eye
    # the entries in walking order: a then Phi(a) for each draw before the first one outside
    # the domain, then Phi(shifted) then shifted for each boundary draw once every draw is in it
    stack = np.empty((cut + (len(shifted) if cut == invertible else 0), 2, n, n), dtype=complex)
    stack[:cut, 0], stack[:cut, 1] = a[:cut], images[:cut]
    if cut == invertible:
        stack[invertible:, 0], stack[invertible:, 1] = phi.apply(require_finite(shifted)), shifted
    singular_ok = np.ones(stack.shape[:2], dtype=bool)
    singular_ok[:cut, 0] = False
    deltas, degenerate = _deltas_or_zero(omega, stack.reshape(-1, n, n), singular_ok.ravel())
    if cut < invertible:
        raise InvariantViolation("a must lie in the character's domain")
    return [(*pair, degen) for pair, degen in zip(deltas.reshape(-1, 2).tolist(), degenerate[1::2].tolist())]
