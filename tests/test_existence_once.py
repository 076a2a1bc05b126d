"""Each existence fact is decided once, by one test.

Faithfulness on D has one convention (states._faithful_spectrum), so the
diagnosis and the construction cannot disagree near the floor, and the
verdict does not depend on the scale of omega.  The probes behind a
diagnosis and the representing pipelines run once per call, and what
depends on D alone (its sampled projections, its commutants) is computed
once per D; the public functions are still called as often as before.
Both pipelines on one state build its E_D and its average onto D' once and
probe its D-centrality once: what depends on the state is kept in its
store, and a support-ideal build on M_n orthonormalizes no compressed M.  A
rotated block instance and both pipelines on it read A + A* = M,
A intersect A* = D, Phi's kernel, the splitting J + D = A and the relative
commutant off the block masks, so no null space is solved; its build runs
no SVD and forms no product of two basis elements or units; and each
pipeline solves one Gram system, for D': its expectations onto D are the
closed form of the block route.  Nor do they solve anything dense at the
n^2 level: the matching reads A's orthonormal rows, b is projected one
mask-row class at a time, and D''s expectation stays its Gram factor pair,
which also keeps averaging to the D-central states at n = 16 below the
size of one n^4 array.  The Jensen suite handles its draws as stacks, so
its SVD, eigh and eigvals calls do not grow with the number of draws, and
it never calls the public geometric_mean.  The counts
come from counting wrappers patched into every ncrep module that binds the
function, as the benchmark's tracer patches them.
"""

import inspect
import sys
import tracemalloc

import numpy as np
import pytest

from ncrep import algebras, expectations, jensen, linalg, states
from ncrep.algebras import (
    block_diagonal_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.expectations import (
    _average_to_central,
    existence_diagnosis,
    preserving_expectation,
    support_ideal_expectation,
)
from ncrep.errors import GramSingular
from ncrep.instances import haar_unitary, random_block_instance, random_central_density, random_density
from ncrep.jensen import jensen_measure_suite
from ncrep.representing import representing_expectation_state, representing_expectation_tracial
from ncrep.states import PositiveFunctional, _faithful_on


def test_diagnosis_and_construction_agree_on_faithfulness_near_the_floor():
    # the smallest weight sits between 1e-10 of the largest and 1e-10 absolute
    omega = PositiveFunctional(np.diag([0.33, 0.33, 0.34 - 5e-11, 5e-11]).astype(complex))
    d, m = diagonal_algebra(4), full_matrix_algebra(4)
    report = existence_diagnosis(omega, d, m)
    try:
        built = preserving_expectation(omega, d, m) is not None
    except GramSingular:
        built = False
    assert report.central
    assert report.faithful_on_D == report.constructed == built
    assert report.equivalences_hold


def test_faithfulness_on_D_does_not_depend_on_the_scale_of_omega():
    weights = np.diag([0.5, 0.5 - 5e-8, 5e-8]).astype(complex)
    verdicts = [_faithful_on(PositiveFunctional(c * weights), diagonal_algebra(3)) for c in (1e-3, 1.0, 1e3)]
    assert verdicts == [True, True, True]


def _count_calls(monkeypatch, module, name):
    """Wrap module.name wherever an ncrep module binds it; returns the list of
    the calls' positional arguments, which grows as the wrapper is called."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "ncrep" or key.startswith("ncrep."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def _diagnosis_states(n, d, rng):
    """A central faithful state, a non-central one and a central one cut to the first block."""
    central = random_central_density(n, d, rng)
    keep = np.diag([1.0, 1.0, 1.0, 0.0, 0.0]).astype(complex)
    cut = keep @ random_central_density(n, d, rng).density @ keep
    return [central, random_density(n, rng), PositiveFunctional(cut / np.trace(cut).real)]


def test_diagnosis_runs_each_probe_once(monkeypatch):
    n = 5
    d, m = block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), full_matrix_algebra(n)
    omegas = _diagnosis_states(n, d, np.random.default_rng(3))
    central_calls = _count_calls(monkeypatch, states, "is_D_central")
    gram_calls = _count_calls(monkeypatch, states, "_omega_gram")
    block_calls = _count_calls(monkeypatch, expectations, "_block_factors")
    verdicts = []
    for omega in omegas:
        del central_calls[:], gram_calls[:], block_calls[:]
        report = existence_diagnosis(omega, d, m)
        verdicts.append((report.central, report.faithful_on_D, report.constructed))
        assert len(central_calls) == 1
        # faithfulness on the block D is the closed form's test on its blocks, once; no Gram matrix of D
        assert [target for _, target in block_calls] == [d]
        assert sum(b.shape == d.space.tensor.shape for _, b in gram_calls) == 0
    assert verdicts == [(True, True, True), (False, True, False), (True, False, False)]


def test_a_diagnosis_on_a_block_D_forms_no_pairing_and_no_products(monkeypatch):
    # D's rows are matrix units and M's the identity rows: the tracial certificate reads rho, and
    # the local statistic gathers p E_ij k - k E_ij p from p and k, with no product by a unit
    n = 8
    d, m = block_diagonal_algebra(n, [[0, 1, 2, 3], [4, 5, 6], [7]]), full_matrix_algebra(n)
    rng = np.random.default_rng(8)
    keep = np.diag([1.0] * 7 + [0.0])
    cut = keep @ random_central_density(n, d, rng).density @ keep
    omegas = [random_central_density(n, d, rng), random_density(n, rng), PositiveFunctional(cut / np.trace(cut).real)]
    calls = {name: _count_calls(monkeypatch, linalg, name) for name in ("trace_pairings", "pair_products")}
    reports = [existence_diagnosis(omega, d, m) for omega in omegas]
    assert [(r.central, r.faithful_on_D, r.constructed) for r in reports] == [
        (True, True, True), (False, True, False), (True, False, False)]
    assert all(r.equivalences_hold for r in reports)
    assert {name: len(made) for name, made in calls.items()} == {"trace_pairings": 0, "pair_products": 0}


@pytest.mark.parametrize("pipeline", [representing_expectation_tracial, representing_expectation_state])
def test_pipelines_check_centrality_twice(monkeypatch, pipeline):
    # the reference's D-centrality once at the boundary, the averaged state's once
    inst = random_block_instance(5, np.random.default_rng(11), conjugate=True)
    calls = _count_calls(monkeypatch, states, "is_D_central")
    pipeline(inst.m, inst.state, inst.d, inst.a, inst.phi)
    assert len(calls) == 2


def test_diagnoses_on_one_D_sample_its_projections_once_per_cap(monkeypatch):
    n = 5
    d, m = block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), full_matrix_algebra(n)
    omegas = _diagnosis_states(n, d, np.random.default_rng(3))
    public = _count_calls(monkeypatch, states, "sample_projections")
    drawn = _count_calls(monkeypatch, states, "_draw_projections")
    reports = [existence_diagnosis(omega, d, m) for omega in omegas]
    assert [r.locally_central for r in reports] == [True, False, True]
    assert len(public) == 3
    assert drawn == [(d, 16)]
    states.sample_projections(d, 64)
    assert drawn == [(d, 16), (d, 64)]


def test_commutant_is_solved_once_per_D_and_within(monkeypatch):
    n = 5
    d, m = block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), full_matrix_algebra(n)
    public = _count_calls(monkeypatch, algebras, "commutant")
    solved = _count_calls(monkeypatch, algebras, "_algebra_commutant")
    rng = np.random.default_rng(5)
    omega, other = random_central_density(n, d, rng), random_central_density(n, d, rng)
    averaged = [_average_to_central(psi, omega, d, m) for psi in (omega, omega)]
    assert len(public) == 4
    assert [within for _, within in solved] == [None, m]
    assert averaged[0].density.tobytes() == averaged[1].density.tobytes()
    assert states.is_D_central(other, d, m)[0]


def test_pipelines_on_one_instance_solve_the_relative_commutant_once(monkeypatch):
    inst = random_block_instance(5, np.random.default_rng(11), conjugate=True)
    solved = _count_calls(monkeypatch, algebras, "_algebra_commutant")
    for pipeline in (representing_expectation_tracial, representing_expectation_state):
        pipeline(inst.m, inst.state, inst.d, inst.a, inst.phi)
    assert [within for _, within in solved] == [inst.m]


def test_a_rotated_instance_and_both_pipelines_read_the_subspace_facts_off_the_masks(monkeypatch):
    # A + A* = M, A intersect A* = D, Phi's kernel J, the splitting J + D = A and the relative
    # commutant D' are certified from the masks: no null space is solved
    rng = np.random.default_rng(10)
    calls = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (linalg, "subspace_sum"), (linalg, "subspace_intersection"), (linalg, "null_space_rows"),
        (algebras, "_solve_commutant"),
    )}
    inst = random_block_instance(10, rng, conjugate=True)
    for pipeline in (representing_expectation_tracial, representing_expectation_state):
        pipeline(inst.m, inst.state, inst.d, inst.a, inst.phi)
    assert {name: len(made) for name, made in calls.items()} == {
        "subspace_sum": 0, "subspace_intersection": 0, "null_space_rows": 0, "_solve_commutant": 0,
    }


@pytest.mark.parametrize("n", range(3, 13))
def test_a_rotated_build_runs_no_svd_and_no_products_of_pairs(monkeypatch, n):
    # the block bases are identity rows, J is read off the masks and multiplicativity is bounded
    # from the unit defects: no orthonormalize, no null space and no pairwise products.  Phi is kept
    # as its block factors and checked from them: no sandwich matrix, no n^2 x n^2 map formed from
    # the factors, no composition with A's projection and no module gaps of a map matrix
    calls = {name: _count_calls(monkeypatch, linalg, name) for name in (
        "orthonormalize", "null_space_rows", "pair_products", "sandwich_matrix", "bimodule_gaps",
    )}
    calls["MatrixMap"] = _count_calls(monkeypatch, linalg, "MatrixMap")
    formed = calls["SandwichSum.matrix"] = []
    matrix = linalg.SandwichSum.matrix
    monkeypatch.setattr(linalg.SandwichSum, "matrix", lambda factors: formed.append(factors) or matrix(factors))
    inst = random_block_instance(n, np.random.default_rng(n), conjugate=True)
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 0)
    assert inst.phi.kernel_tau is not None and isinstance(inst.phi.storage, linalg.SandwichSum)


@pytest.mark.parametrize("blocks", [[[0], [1], [2]], [[0, 1], [2]]])
def test_a_support_ideal_build_projects_the_density_onto_M_once(blocks):
    # omega = e_33 on M_3, ACCEPTANCE 01's corner: the D-centrality probe and the
    # preservation check read one projection of omega's density onto M
    m = full_matrix_algebra(3)
    omega = PositiveFunctional(np.diag([0.0, 0.0, 1.0]).astype(complex))
    d = block_diagonal_algebra(3, blocks)
    onto_m = []
    project = m.space.project
    m.space.project = lambda x: onto_m.append(x) or project(x)
    support_ideal_expectation(omega, d, m)
    assert len(onto_m) == 1
    assert omega.restricted_density(m) is omega.restricted_density(m)
    assert not omega.restricted_density(m).flags.writeable


@pytest.mark.parametrize("n, blocks, rotated", [(3, [[0], [1], [2]], False), (3, [[0, 1], [2]], False),
                                                (6, [[0, 1, 2], [3, 4], [5]], True)])
def test_a_support_ideal_build_on_M_n_orthonormalizes_only_the_compressed_D(monkeypatch, n, blocks, rotated):
    # zM_nz is all of M_r: it is taken as M_r's identity rows, with no SVD of the n^2 compressed rows.  On a
    # coordinate support Dz is read off D's mask, so no SVD runs at all; a rotated D's Dz is orthonormalized
    rng = np.random.default_rng(n)
    d = block_diagonal_algebra(n, blocks)
    rho = np.diag([0.0] * (n - 1) + [1.0]).astype(complex)
    if rotated:  # a central state cut to the first block, in D's rotation
        d = unitary_conjugate_algebra(d, haar_unitary(n, rng))
        v = d.pattern[0][:, blocks[0]]
        rho = v @ (v.conj().T @ random_central_density(n, d, rng).density @ v) @ v.conj().T
    orthonormalized = _count_calls(monkeypatch, linalg, "orthonormalize")
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(args) or svd(*args, **kwargs))
    e = support_ideal_expectation(PositiveFunctional(rho / np.trace(rho).real), d, full_matrix_algebra(n))
    assert [len(rows) for rows, in orthonormalized] == ([d.dim] if rotated else [])
    assert bool(svds) == rotated
    assert e.validated


@pytest.mark.parametrize("pipeline", [representing_expectation_tracial, representing_expectation_state])
def test_each_pipeline_solves_one_gram_system_for_the_relative_commutant(monkeypatch, pipeline):
    # E_D and Psi onto the rotated block D are solved in closed form; averaging onto D' is the Gram solve
    inst = random_block_instance(10, np.random.default_rng(10), conjugate=True)
    calls = _count_calls(monkeypatch, expectations, "_gram_solve")
    pipeline(inst.m, inst.state, inst.d, inst.a, inst.phi)
    assert [space for _, space in calls] == [algebras.commutant(inst.d, inst.m).space]


@pytest.mark.parametrize("pipelines, counts", [
    ((representing_expectation_tracial,), (3, 2, 1, 2)),
    ((representing_expectation_state,), (3, 2, 1, 2)),
    ((representing_expectation_tracial, representing_expectation_state), (4, 3, 1, 3)),
])
def test_both_pipelines_on_one_state_share_its_expectations_and_its_verdict(monkeypatch, pipelines, counts):
    # E_D and the average onto D' are built once per state, and its D-centrality probed once: each
    # pipeline alone builds E_D, the D' average and Psi, and probes the state and its averaged rho
    inst = random_block_instance(10, np.random.default_rng(10), conjugate=True)
    built = []
    init = expectations.ConditionalExpectation.__init__
    monkeypatch.setattr(expectations.ConditionalExpectation, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
    calls = [_count_calls(monkeypatch, module, name) for module, name in (
        (expectations, "_block_factors"), (expectations, "_gram_solve"), (states, "_central_violation"))]
    for pipeline in pipelines:
        pipeline(inst.m, inst.state, inst.d, inst.a, inst.phi)
    assert (len(built), *map(len, calls)) == counts


def test_a_rotated_instance_and_both_pipelines_solve_nothing_dense_at_the_n2_level(monkeypatch):
    # no least-squares matching, no SVD of the stack x a over A's basis, and no n^2 x n^2 map
    # formed from the Gram solve onto D'
    inst = random_block_instance(10, np.random.default_rng(10), conjugate=True)
    solved = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: solved.append(args) or lstsq(*args, **kwargs))
    stacks = _count_calls(monkeypatch, linalg, "orthonormalize")
    formed = []
    matrix = linalg.FactorPair.matrix
    monkeypatch.setattr(linalg.FactorPair, "matrix", lambda pair: formed.append(pair) or matrix(pair))
    for pipeline in (representing_expectation_tracial, representing_expectation_state):
        pipeline(inst.m, inst.state, inst.d, inst.a, inst.phi)
    assert solved == []
    assert [args for args in stacks if np.shape(args[0]) == (inst.a.dim, 10, 10)] == []
    assert formed == []


def test_averaging_to_the_central_states_forms_no_n4_array_at_n16(monkeypatch):
    # one n^4 array is 1 MB at n = 16; the pair keeps D' (three rows) as two 3 x 256 factors.  psi
    # extends omega on D and is not D-central: omega's density moved off D's span
    n = 16
    d = block_diagonal_algebra(n, [list(range(0, 5)), list(range(5, 10)), list(range(10, 16))])
    d = unitary_conjugate_algebra(d, haar_unitary(n, np.random.default_rng(16)))
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, np.random.default_rng(3))
    y = np.random.default_rng(4).standard_normal((n, n))
    z = y + y.T - d.space.project(y + y.T)
    moved = omega.density + 0.1 * np.linalg.eigvalsh(omega.density)[0] / np.linalg.norm(z, 2) * z
    peaks = []
    for pair in (True, False):
        reference = omega
        if not pair:  # the dense route, as a reference, on a fresh omega: the first kept its pair
            monkeypatch.setattr(expectations, "_pair_route", lambda k, m: False)
            reference = PositiveFunctional(omega.density)
        psi = PositiveFunctional(moved)
        tracemalloc.start()
        try:
            _average_to_central(psi, reference, d, m)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert not states.is_D_central(PositiveFunctional(moved), d, m)[0]
    assert peaks[0] < 1.0 < peaks[1], peaks


@pytest.mark.parametrize("rotated", [False, True])
def test_the_jensen_suite_makes_as_many_spectral_calls_at_60_trials_as_at_6(monkeypatch, rotated):
    inst = random_block_instance(4, np.random.default_rng(4), conjugate=rotated)
    psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
    public = _count_calls(monkeypatch, jensen, "geometric_mean")
    counts = {name: [] for name in ("svd", "eigh", "eigvals")}
    for name, calls in counts.items():
        original = getattr(np.linalg, name)

        def counting(*args, original=original, calls=calls, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # the numpy.linalg namespace, and the module whose own calls (norm's SVD) read its globals
        for module in (np.linalg, inspect.getmodule(inspect.unwrap(original))):
            monkeypatch.setattr(module, name, counting)
    made = []
    for trials in (6, 60):
        summary = jensen_measure_suite(rho, inst.phi, psi, trials=trials, rng_seed=trials)
        assert summary.ok
        made.append({name: len(calls) for name, calls in counts.items()})
        for calls in counts.values():
            calls.clear()
    assert made[0] == made[1] and made[0]["svd"] > 0 and made[0]["eigvals"] > 0
    assert public == []
