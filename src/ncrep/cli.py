"""Command line reports and randomized verification suites.

Subcommands: `diagnose <file>` prints the existence table for the
state-preserving expectation onto D, `represent <file>` runs the
representing pipeline on an instance carrying a character, `jensen <file>`
runs the geometric mean inequality suite on it, and `suite <name>` runs a
seeded batch of random instances through one family of checks.

All reports are JSON with sorted keys and no timestamps, so identical seeds
and flags give byte-identical output.  Exit codes: 0 when every assertion
passes, 1 on an assertion or pipeline failure, 2 on bad input.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .algebras import block_diagonal_algebra, full_matrix_algebra, unitary_conjugate_algebra
from .config import tol
from .errors import NcrepError, ParseError
from .expectations import (
    _pullback_density,
    _values_on,
    choi_matrix,
    existence_diagnosis,
    preserving_expectation,
    support_ideal_expectation,
)
from .instances import (
    InstanceDescription,
    encode_matrix,
    haar_unitary,
    instance_to_dict,
    parse_instance,
    random_block_instance,
    random_central_density,
    random_density,
    random_partition,
)
from .jensen import jensen_measure_suite
from .linalg import dagger, hs_norm
from .representing import _extension_gap, representing_expectation_state, representing_expectation_tracial
from .states import PositiveFunctional, tracial_certificate


def _assertion(name, deviation, tolerance):
    deviation = float(deviation)
    tolerance = float(tolerance)
    return {
        "name": name,
        "max_deviation": deviation,
        "tolerance": tolerance,
        "pass": bool(deviation <= tolerance),
    }


def _emit(report, path=None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _load(path):
    # validation failures in the file content are input errors for exit-code
    # purposes, whatever class the library raised
    try:
        return parse_instance(path)
    except ParseError:
        raise
    except NcrepError as err:
        raise ParseError(f"{type(err).__name__}: {err}")


def _route(inst):
    """Pick the pipeline the reference functional supports."""
    if inst.phi is None:
        raise ParseError("instance carries no character; nothing to represent")
    if tracial_certificate(inst.state, inst.m).result and inst.state.is_faithful:
        psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
        return "tracial", psi, rho
    psi, rho = representing_expectation_state(inst.m, inst.state, inst.d, inst.a, inst.phi)
    return "state", psi, rho


def _pipeline_checks(inst, psi, rho):
    phi = inst.phi
    scale = max(1.0, float(np.linalg.norm(phi.map_matrix)))
    extends = _extension_gap(psi, phi) / scale
    values = _values_on(inst.state, phi.images)
    vscale = max(1.0, float(np.abs(values).max()))
    represents = float(np.abs(_values_on(rho, inst.a.space.flat) - values).max()) / vscale
    annihilates = float(np.abs(_values_on(rho, phi.kernel.flat)).max(initial=0.0))
    preserved = hs_norm(_pullback_density(psi.map_matrix, rho.density) - rho.density)
    return [
        _assertion("extends_character", extends, tol(1e-7)),
        _assertion("represents_on_A", represents, tol(1e-8)),
        _assertion("annihilates_kernel", annihilates, tol(1e-8)),
        _assertion("preserves_rho", preserved, tol(1e-8)),
    ]


def cmd_diagnose(args):
    inst = _load(args.file)
    rep = existence_diagnosis(inst.state, inst.d, inst.m)
    report = {
        "n": inst.n,
        "faithful_on_D": rep.faithful_on_D,
        "tracial_on_D": rep.tracial_on_D,
        "central": rep.central,
        "locally_central": rep.locally_central,
        "support_commutes": rep.support_commutes,
        "modular_invariant": rep.modular_invariant,
        "constructed": rep.constructed,
        "equivalences_hold": rep.equivalences_hold,
        "central_violation": None if np.isnan(rep.central_violation) else rep.central_violation,
        "failure": rep.failure,
    }
    ok = rep.equivalences_hold
    if not rep.constructed and rep.central and rep.support_commutes:
        # the preserving map may still exist onto the ideal Dz
        try:
            e = support_ideal_expectation(inst.state, inst.d, inst.m)
            report["support_ideal_unit"] = encode_matrix(e.unit)
        except NcrepError as err:
            report["support_ideal_failure"] = f"{type(err).__name__}: {err}"
    if inst.phi is not None:
        try:
            route, psi, rho = _route(inst)
            checks = _pipeline_checks(inst, psi, rho)
            report["character"] = {
                "route": route,
                "rho_density": encode_matrix(rho.density),
                "checks": checks,
            }
            ok = ok and all(c["pass"] for c in checks)
        except NcrepError as err:
            report["character"] = {"error": f"{type(err).__name__}: {err}"}
            ok = False
    _emit(report)
    return 0 if ok else 1


def cmd_represent(args):
    inst = _load(args.file)
    route, psi, rho = _route(inst)
    checks = _pipeline_checks(inst, psi, rho)
    report = {
        "n": inst.n,
        "route": route,
        "rho_density": encode_matrix(rho.density),
        "psi_matrix": encode_matrix(psi.map_matrix),
        "checks": checks,
        "ok": all(c["pass"] for c in checks),
    }
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_jensen(args):
    inst = _load(args.file)
    route, psi, rho = _route(inst)
    # rho is the representing functional: it restricts tracially to D and is
    # preserved by Psi, which is exactly what the inequality checks need
    summary = jensen_measure_suite(rho, inst.phi, psi, trials=args.trials, rng_seed=args.seed)
    report = dataclasses.asdict(summary)
    report["route"] = route
    _emit(report)
    return 0 if summary.ok else 1


def _spawn(seed, tag, trials):
    return np.random.SeedSequence([seed, tag]).spawn(trials)


def _random_element(space, rng):
    coeff = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    x = space.from_coords(coeff)
    return x / max(1.0, hs_norm(x))


def _suite_expectations(n_max, trials, seed):
    worst = {"preserves_state": 0.0, "idempotent": 0.0, "bimodule": 0.0, "choi_psd": 0.0}
    limits = {
        "preserves_state": tol(1e-8),
        "idempotent": tol(1e-9),
        "bimodule": tol(1e-8),
        "choi_psd": tol(1e-8),
    }
    failures = []
    for t, child in enumerate(_spawn(seed, 0, trials)):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, n_max + 1))
        d = block_diagonal_algebra(n, random_partition(n, rng))
        m = full_matrix_algebra(n)
        omega = random_central_density(n, d, rng)
        if t % 2:
            # rotate off the coordinate axes so the map is a genuine Gram
            # solve rather than an exact 0/1 pinching
            u = haar_unitary(n, rng)
            d = unitary_conjugate_algebra(d, u)
            omega = PositiveFunctional(u @ omega.density @ dagger(u))
        e = preserving_expectation(omega, d, m)
        k = e.map_matrix
        devs = {
            "preserves_state": hs_norm(_pullback_density(k, omega.density) - omega.density),
            "idempotent": float(np.linalg.norm(k @ k - k)) / max(1.0, float(np.linalg.norm(k))),
            "choi_psd": max(0.0, -float(np.linalg.eigvalsh(choi_matrix(e))[0])),
        }
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x /= hs_norm(x)
        d1 = _random_element(d.space, rng)
        d2 = _random_element(d.space, rng)
        devs["bimodule"] = hs_norm(e(d1 @ x @ d2) - d1 @ e(x) @ d2)
        if any(devs[key] > limits[key] for key in devs):
            failures.append(instance_to_dict(InstanceDescription(n=n, m=m, d=d, state=omega)))
        for key in devs:
            worst[key] = max(worst[key], devs[key])
    return [_assertion(key, worst[key], limits[key]) for key in sorted(worst)], failures


def _suite_hoffman_rossi(n_max, trials, seed):
    worst = {"extends": 0.0, "represents": 0.0, "annihilates": 0.0, "routes_agree": 0.0}
    limits = {
        "extends": tol(1e-7),
        "represents": tol(1e-8),
        "annihilates": tol(1e-8),
        "routes_agree": tol(1e-7),
    }
    failures = []
    for t, child in enumerate(_spawn(seed, 1, trials)):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, n_max + 1))
        inst = random_block_instance(n, rng, conjugate=bool(t % 2))
        psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
        psi2, rho2 = representing_expectation_state(inst.m, inst.state, inst.d, inst.a, inst.phi)
        scale = max(1.0, float(np.linalg.norm(inst.phi.map_matrix)))
        values = _values_on(inst.state, inst.phi.images)
        devs = {
            "extends": _extension_gap(psi, inst.phi) / scale,
            "represents": float(np.abs(_values_on(rho, inst.a.space.flat) - values).max()),
            "annihilates": float(np.abs(_values_on(rho, inst.phi.kernel.flat)).max(initial=0.0)),
            "routes_agree": float(np.linalg.norm(psi.map_matrix - psi2.map_matrix)) / scale
            + hs_norm(rho.density - rho2.density),
        }
        if any(devs[key] > limits[key] for key in devs):
            failures.append(instance_to_dict(inst))
        for key in devs:
            worst[key] = max(worst[key], devs[key])
    return [_assertion(key, worst[key], limits[key]) for key in sorted(worst)], failures


def _suite_jensen(n_max, trials, seed):
    gap = 0.0
    bad_runs = 0
    failures = []
    for t, child in enumerate(_spawn(seed, 2, trials)):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, n_max + 1))
        # even trials keep the triangular coordinates (equality is asserted),
        # odd trials rotate them away and only the inequality is checked
        inst = random_block_instance(n, rng, conjugate=bool(t % 2))
        psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
        inner = jensen_measure_suite(
            rho, inst.phi, psi, trials=6, rng_seed=int(rng.integers(2**31))
        )
        if not inner.ok:
            bad_runs += 1
            failures.append(instance_to_dict(inst))
        if t % 2 == 0:
            gap = max(gap, inner.max_relative_gap)
    assertions = [
        _assertion("inner_suites_pass", bad_runs, 0.0),
        _assertion("witnessed_equality_gap", gap, tol(1e-6)),
    ]
    return assertions, failures


def _suite_diagnosis(n_max, trials, seed):
    eq_failures = 0
    constructed_failures = 0
    ideal_failures = 0
    failures = []
    for t, child in enumerate(_spawn(seed, 3, trials)):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, n_max + 1))
        blocks = random_partition(n, rng)
        variant = t % 3
        if variant == 2 and len(blocks) == 1:
            blocks = [[0], list(range(1, n))]
        d = block_diagonal_algebra(n, blocks)
        m = full_matrix_algebra(n)
        bad = False
        if variant == 0:
            omega = random_central_density(n, d, rng)
            rep = existence_diagnosis(omega, d, m)
            if not rep.constructed:
                constructed_failures += 1
                bad = True
        elif variant == 1:
            omega = random_density(n, rng)
            rep = existence_diagnosis(omega, d, m)
        else:
            # kill at least one block of a central state: the expectation
            # survives only on the ideal cut out by the support
            central = random_central_density(n, d, rng).density
            keep = np.zeros((n, n), dtype=complex)
            kept = rng.integers(1, len(blocks))
            for blk in blocks[:kept]:
                keep[blk, blk] = 1.0
            rho = keep @ central @ keep
            omega = PositiveFunctional(rho / float(np.trace(rho).real))
            rep = existence_diagnosis(omega, d, m)
            try:
                support_ideal_expectation(omega, d, m)
            except NcrepError:
                ideal_failures += 1
                bad = True
        if not rep.equivalences_hold:
            eq_failures += 1
            bad = True
        if bad:
            failures.append(instance_to_dict(InstanceDescription(n=n, m=m, d=d, state=omega)))
    assertions = [
        _assertion("equivalences_hold", eq_failures, 0.0),
        _assertion("central_faithful_constructed", constructed_failures, 0.0),
        _assertion("support_ideal_constructed", ideal_failures, 0.0),
    ]
    return assertions, failures


_SUITES = {
    "expectations": _suite_expectations,
    "hoffman-rossi": _suite_hoffman_rossi,
    "jensen": _suite_jensen,
    "diagnosis": _suite_diagnosis,
}


def run_suite(name, n_max, trials, seed):
    """Run one named suite (or all of them) and return (assertions, failures)."""
    if name == "all":
        assertions, failures = [], []
        for part in ("expectations", "hoffman-rossi", "jensen", "diagnosis"):
            got, bad = _SUITES[part](n_max, trials, seed)
            for item in got:
                item["name"] = f"{part}.{item['name']}"
            assertions += got
            failures += bad
        return assertions, failures
    return _SUITES[name](n_max, trials, seed)


def cmd_suite(args):
    assertions, failures = run_suite(args.name, args.n_max, args.trials, args.seed)
    report = {
        "suite": args.name,
        "n_max": args.n_max,
        "trials": args.trials,
        "seed": args.seed,
        "assertions": assertions,
        "failing_instances": len(failures),
        "ok": all(a["pass"] for a in assertions),
    }
    _emit(report, args.report)
    if failures and args.report:
        with open(args.report + ".failures.json", "w") as fh:
            fh.write(json.dumps(failures, sort_keys=True, indent=2) + "\n")
    return 0 if report["ok"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ncrep",
        description="conditional expectations and representing functionals on matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("diagnose", help="existence table for the state-preserving expectation")
    p.add_argument("file", help="instance JSON file")
    p.set_defaults(fn=cmd_diagnose)
    p = sub.add_parser("represent", help="build the expectation extending the instance character")
    p.add_argument("file", help="instance JSON file")
    p.set_defaults(fn=cmd_represent)
    p = sub.add_parser("jensen", help="geometric mean inequality suite on an instance")
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_jensen)
    p = sub.add_parser("suite", help="randomized verification suites")
    p.add_argument("name", choices=sorted(_SUITES) + ["all"])
    p.add_argument("--n-max", dest="n_max", type=int, default=4)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="also write the JSON report to this path")
    p.set_defaults(fn=cmd_suite)
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0 or getattr(args, "trials", 0) < 0:
        parser.error("seed and trials must be nonnegative")
    if getattr(args, "n_max", 2) < 2:
        parser.error("n-max must be at least 2")
    try:
        return args.fn(args)
    except ParseError as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2
    except NcrepError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
