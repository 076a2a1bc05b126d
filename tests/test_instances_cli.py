"""Instance files, random generators, and the command line surface."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dense_oracle import projector_matrix
from ncrep import algebras, cli
from ncrep.errors import InvariantViolation, ParseError
from ncrep.instances import (
    decode_matrix,
    encode_matrix,
    instance_from_dict,
    instance_to_dict,
    parse_instance,
    random_block_instance,
    random_central_density,
    random_density,
    random_partition,
)
from ncrep.states import is_D_central

T2 = {
    "n": 2,
    "D": {"blocks": [[0], [1]]},
    "A": {"triangular_over": [[0], [1]]},
    "state": {"tracial": True},
    "character": {"block_compression": True},
}

M3_CORNER = {
    "n": 3,
    "D": {"blocks": [[0], [1], [2]]},
    "state": {"density": [[[0, 0]] * 3, [[0, 0]] * 3, [[0, 0], [0, 0], [1, 0]]]},
}

SKEW = {
    "n": 2,
    "D": {"blocks": [[0], [1]]},
    "state": {"density": [[[0.5, 0], [0.2, 0]], [[0.2, 0], [0.5, 0]]]},
}


def write_instance(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    back = decode_matrix(encode_matrix(x), "probe")
    assert np.array_equal(back, x)


def test_decode_rejects_bad_shapes():
    with pytest.raises(ParseError):
        decode_matrix("nope", "probe")
    with pytest.raises(ParseError):
        decode_matrix([[1.0, 2.0]], "probe")
    with pytest.raises(ParseError):
        # 2x3 of pairs: not square
        decode_matrix([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]], "probe")


def test_parse_canonical_triangular(tmp_path):
    inst = parse_instance(write_instance(tmp_path, "t2.json", T2))
    assert inst.n == 2 and inst.a.dim == 3 and inst.d.dim == 2
    assert inst.phi is not None and inst.phi.blocks == [[0], [1]]
    assert np.allclose(inst.state.density, np.eye(2) / 2)
    x = np.array([[1.0, 5.0], [0.0, 2.0]])
    assert np.allclose(inst.phi(x), np.diag([1.0, 2.0]))


def test_a_block_compression_character_builds_no_second_D(tmp_path, monkeypatch):
    # T2's D is the one block-diagonal algebra built: the character writes its projections from A's
    # blocks rather than reading them off a block-diagonal algebra of its own
    built, original = [], algebras.block_diagonal_algebra
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ncrep"]:
        if getattr(module, "block_diagonal_algebra", None) is original:
            monkeypatch.setattr(module, "block_diagonal_algebra", lambda *args: built.append(args) or original(*args))
    inst = parse_instance(write_instance(tmp_path, "t2.json", T2))
    assert len(built) == 1 and inst.phi.blocks == [[0], [1]]


def test_round_trip_is_semantically_idempotent():
    for n, conjugate, seed_ in ((4, False, 1), (5, True, 2), (3, True, 3)):
        inst = random_block_instance(n, np.random.default_rng(seed_), conjugate=conjugate)
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert back.n == inst.n
        assert np.allclose(
            projector_matrix(back.d.space), projector_matrix(inst.d.space), atol=1e-12
        )
        assert np.allclose(
            projector_matrix(back.a.space), projector_matrix(inst.a.space), atol=1e-12
        )
        assert np.allclose(back.state.density, inst.state.density, rtol=0, atol=1e-14)
        assert np.allclose(back.phi.map_matrix, inst.phi.map_matrix, atol=1e-12)


def test_a_nearly_tracial_density_is_written_out():
    # diag(1/3 + 1e-6, 1/3 - 1e-6, 1/3) is within numpy's default rtol of I/3,
    # but it is not the trace and must not be written as {"tracial": true}
    density = np.diag([1 / 3 + 1e-6, 1 / 3 - 1e-6, 1 / 3])
    inst = instance_from_dict(dict(M3_CORNER, state={"density": encode_matrix(density)}))
    assert "density" in instance_to_dict(inst)["state"]
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert np.allclose(back.state.density, density, rtol=0, atol=1e-14)


def test_non_multiplicative_character_matrix_rejected(tmp_path):
    # unital, fixes D, lands in D, but Phi(E01)^2 != Phi(E01 E01) = 0
    c = 0.5
    rows = np.zeros((4, 4))
    rows[0] = [1.0, c, 0.0, 0.0]
    rows[3] = [0.0, -c, 0.0, 1.0]
    data = dict(T2)
    data["character"] = {"matrix": [[[float(v), 0.0] for v in row] for row in rows]}
    with pytest.raises(InvariantViolation, match="multiplicative"):
        parse_instance(write_instance(tmp_path, "bad.json", data))


def test_wrong_dimension_density_rejected(tmp_path):
    data = dict(SKEW)
    data["state"] = {"density": [[[1.0, 0.0]]]}
    with pytest.raises(ParseError, match="shape"):
        parse_instance(write_instance(tmp_path, "bad.json", data))


def test_missing_file_and_bad_text(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_instance(str(tmp_path / "nope.json"))
    path = tmp_path / "garbage.json"
    path.write_text("{not text(")
    with pytest.raises(ParseError, match="not valid"):
        parse_instance(str(path))


def test_structural_gates():
    with pytest.raises(ParseError, match="'n'"):
        instance_from_dict({"D": {"blocks": [[0]]}, "state": {"tracial": True}})
    with pytest.raises(ParseError, match="'D'"):
        instance_from_dict({"n": 2, "state": {"tracial": True}})
    with pytest.raises(ParseError, match="state"):
        instance_from_dict({"n": 2, "D": {"blocks": [[0], [1]]}})
    with pytest.raises(ParseError, match="character"):
        instance_from_dict(
            {"n": 2, "D": {"blocks": [[0], [1]]}, "state": {"tracial": True},
             "character": {"block_compression": True}}
        )


NOT_INTEGERS = {
    "fractional n": dict(T2, n=2.7),
    "boolean n": dict(T2, n=True),
    "integral float n": dict(T2, n=2.0),
    "string n": dict(T2, n="2"),
    "fractional D blocks": dict(T2, D={"blocks": [[0.9], [1.7]]}),
    "boolean D blocks": dict(T2, D={"blocks": [[False], [True]]}),
    "fractional A blocks": dict(T2, A={"triangular_over": [[0], [1.0]]}),
}


@pytest.mark.parametrize("case", NOT_INTEGERS)
def test_n_and_block_indices_must_be_json_integers(case, tmp_path, capsys):
    # nothing is truncated: 2.7 is not read as 2, true as 1 or [[0.9], [1.7]] as [[0], [1]]
    data = NOT_INTEGERS[case]
    match = "'n'" if "n" in case.split() else "blocks must be lists of indices"
    with pytest.raises(ParseError, match=match):
        instance_from_dict(data)
    code, out, err = run_cli(capsys, "diagnose", write_instance(tmp_path, "bad.json", data))
    assert code == 2 and out == "" and err.startswith("input error: ")


def test_normalize_option():
    data = dict(SKEW)
    data["state"] = {"density": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}
    with pytest.raises(ParseError, match="normalize"):
        instance_from_dict(data)
    data["state"] = dict(data["state"], normalize=True)
    inst = instance_from_dict(data)
    assert np.allclose(inst.state.density, np.eye(2) / 2)


def test_generator_specs():
    unit = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    diag = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    e00 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    e11 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    data = {
        "n": 2,
        "D": {"generators": [diag]},
        "A": {"generators": [unit, e00, e11]},
        "state": {"tracial": True},
    }
    inst = instance_from_dict(data)
    assert inst.d.dim == 2 and inst.a.dim == 3
    # generator-described A carries no block tags, so the compression spec fails
    with pytest.raises(ParseError, match="triangular_over"):
        instance_from_dict(dict(data, character={"block_compression": True}))
    canonical = instance_from_dict(T2)
    explicit = dict(data, character={"matrix": encode_matrix(canonical.phi.map_matrix)})
    inst = instance_from_dict(explicit)
    assert np.allclose(inst.phi(np.array([[1.0, 5.0], [0.0, 2.0]])), np.diag([1.0, 2.0]))


@seed(8)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10**6))
def test_random_partition_property(n, rng_seed):
    blocks = random_partition(n, np.random.default_rng(rng_seed))
    assert [i for blk in blocks for i in blk] == list(range(n))
    assert all(blk == list(range(blk[0], blk[-1] + 1)) for blk in blocks)


def test_random_states():
    rng = np.random.default_rng(5)
    om = random_density(4, rng)
    assert om.is_state and om.is_faithful
    inst = random_block_instance(5, rng)
    central = random_central_density(5, inst.d, rng)
    assert central.is_state and central.is_faithful
    assert is_D_central(central, inst.d, inst.m)[0]


def test_random_block_instance_conjugation():
    inst = random_block_instance(4, np.random.default_rng(6), conjugate=True)
    assert inst.d.blocks is None and inst.phi.blocks is None
    assert inst.a.contains(np.eye(4))
    # the conjugated character still validates, so rebuilding it must succeed
    instance_from_dict(instance_to_dict(inst))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_diagnose_tracial_instance(tmp_path, capsys):
    path = write_instance(tmp_path, "t2.json", T2)
    code, out, _ = run_cli(capsys, "diagnose", path)
    report = json.loads(out)
    assert code == 0 and report["equivalences_hold"] and report["constructed"]
    assert report["character"]["route"] == "tracial"
    assert all(c["pass"] for c in report["character"]["checks"])


def test_cli_diagnose_support_ideal(tmp_path, capsys):
    path = write_instance(tmp_path, "m3.json", M3_CORNER)
    code, out, _ = run_cli(capsys, "diagnose", path)
    report = json.loads(out)
    assert code == 0 and not report["constructed"] and not report["faithful_on_D"]
    unit = decode_matrix(report["support_ideal_unit"], "unit")
    assert np.allclose(unit, np.diag([0.0, 0.0, 1.0]))


def test_cli_diagnose_skew_instance(tmp_path, capsys):
    path = write_instance(tmp_path, "skew.json", SKEW)
    code, out, _ = run_cli(capsys, "diagnose", path)
    report = json.loads(out)
    assert code == 0 and not report["central"] and not report["constructed"]
    assert report["equivalences_hold"] and report["central_violation"] > 0.1
    # with a character on top, the unreachable pipeline turns into a failure
    data = dict(SKEW, A={"triangular_over": [[0], [1]]}, character={"block_compression": True})
    path = write_instance(tmp_path, "skew_char.json", data)
    code, out, _ = run_cli(capsys, "diagnose", path)
    assert code == 1 and "NotCentral" in json.loads(out)["character"]["error"]


def test_cli_represent(tmp_path, capsys):
    path = write_instance(tmp_path, "t2.json", T2)
    code, out, _ = run_cli(capsys, "represent", path)
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["route"] == "tracial"
    assert np.allclose(decode_matrix(report["rho_density"], "rho"), np.eye(2) / 2)


def test_cli_represent_error_exits(tmp_path, capsys):
    code, _, err = run_cli(capsys, "represent", write_instance(tmp_path, "m3.json", M3_CORNER))
    assert code == 2 and "no character" in err
    data = dict(SKEW, A={"triangular_over": [[0], [1]]}, character={"block_compression": True})
    code, _, err = run_cli(capsys, "represent", write_instance(tmp_path, "s.json", data))
    assert code == 1 and "NotCentral" in err
    code, _, err = run_cli(capsys, "represent", str(tmp_path / "nope.json"))
    assert code == 2


def test_cli_jensen(tmp_path, capsys):
    path = write_instance(tmp_path, "t2.json", T2)
    code, out, _ = run_cli(capsys, "jensen", path, "--trials", "10", "--seed", "3")
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["trials"] == 10
    assert report["inequality_passes"] == 10


def test_cli_suite_deterministic(capsys):
    args = ("suite", "all", "--n-max", "3", "--trials", "4", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["ok"] and len(report["assertions"]) == 13
    names = [a["name"] for a in report["assertions"]]
    assert "hoffman-rossi.routes_agree" in names and "jensen.inner_suites_pass" in names


def test_cli_suite_trials_zero(capsys):
    code, out, _ = run_cli(capsys, "suite", "diagnosis", "--trials", "0")
    assert code == 0 and json.loads(out)["ok"]


def test_cli_suite_fault_injection(monkeypatch, capsys):
    def failing_suite(n_max, trials, seed):
        return [cli._assertion("injected_fault", 1.0, 0.0)], []

    monkeypatch.setitem(cli._SUITES, "diagnosis", failing_suite)
    code, out, _ = run_cli(capsys, "suite", "diagnosis", "--trials", "0")
    report = json.loads(out)
    assert code == 1 and not report["ok"]
    assert any(a["name"] == "injected_fault" and not a["pass"] for a in report["assertions"])


def test_cli_suite_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "suite", "expectations", "--trials", "3", "--seed", "2", "--report", str(target)
    )
    assert code == 0 and target.read_text() == out


def test_cli_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "jensen", "--seed", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
