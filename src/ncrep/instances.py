"""Instance files and random generators for the verification suites.

An instance bundles the ambient M_n with a *-subalgebra D, a reference
functional, and optionally a subalgebra A carrying a character Phi : A -> D.
Files are JSON objects; matrices are encoded as row-major arrays of
[re, im] pairs so the format stays language neutral and bit stable.
"""

from dataclasses import dataclass

import json

import numpy as np

from .algebras import (
    block_diagonal_algebra,
    block_upper_triangular,
    commutant,
    full_matrix_algebra,
    generate_algebra,
    generate_star_algebra,
)
from .errors import ParseError
from .linalg import dagger
from .representing import DCharacter, _block_character, block_compression_character
from .states import PositiveFunctional


def encode_matrix(x):
    x = np.asarray(x, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in x]


def decode_matrix(data, what):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as err:
        raise ParseError(f"{what}: not an array of [re, im] pairs ({err})")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(f"{what}: expected square rows of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass
class InstanceDescription:
    """A parsed, fully validated instance. a and phi are None when the file
    describes no character."""

    n: int
    m: object
    d: object
    state: object
    a: object = None
    phi: object = None


def _parse_blocks(data, what):
    try:
        return [[int(i) for i in blk] for blk in data]
    except (TypeError, ValueError) as err:
        raise ParseError(f"{what}: blocks must be lists of indices ({err})")


def instance_from_dict(data):
    """Build and validate an instance from plain containers.

    Raises ParseError for structural problems and lets the algebra, state,
    and character validators name any violated invariant.
    """
    if not isinstance(data, dict):
        raise ParseError("instance must be an object")
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("instance needs an integer ambient dimension 'n'")
    if n <= 0:
        raise ParseError(f"ambient dimension must be positive, got {n}")
    m = full_matrix_algebra(n)

    d_spec = data.get("D")
    if not isinstance(d_spec, dict):
        raise ParseError("instance needs a 'D' object with 'blocks' or 'generators'")
    if "blocks" in d_spec:
        d = block_diagonal_algebra(n, _parse_blocks(d_spec["blocks"], "D"))
    elif "generators" in d_spec:
        gens = [decode_matrix(g, "D generator") for g in d_spec["generators"]]
        if any(g.shape != (n, n) for g in gens):
            raise ParseError("D generators must be n x n")
        d = generate_star_algebra(gens)
    else:
        raise ParseError("'D' needs 'blocks' or 'generators'")

    a = None
    a_spec = data.get("A")
    if a_spec is not None:
        if not isinstance(a_spec, dict):
            raise ParseError("'A' must be an object with 'triangular_over' or 'generators'")
        if "triangular_over" in a_spec:
            a = block_upper_triangular(n, _parse_blocks(a_spec["triangular_over"], "A"))
        elif "generators" in a_spec:
            gens = [decode_matrix(g, "A generator") for g in a_spec["generators"]]
            if any(g.shape != (n, n) for g in gens):
                raise ParseError("A generators must be n x n")
            a = generate_algebra(gens)
        else:
            raise ParseError("'A' needs 'triangular_over' or 'generators'")

    s_spec = data.get("state")
    if not isinstance(s_spec, dict):
        raise ParseError("instance needs a 'state' object")
    if s_spec.get("tracial"):
        state = PositiveFunctional.tracial(n)
    elif "density" in s_spec:
        rho = decode_matrix(s_spec["density"], "state density")
        if rho.shape != (n, n):
            raise ParseError(f"state density has shape {rho.shape}, the ambient needs ({n}, {n})")
        if s_spec.get("normalize"):
            mass = float(np.trace(rho).real)
            if mass <= 0:
                raise ParseError("state density has nonpositive trace, cannot normalize")
            rho = rho / mass
        state = PositiveFunctional(rho)
        if not state.is_state:
            raise ParseError(
                "state density does not have unit trace; set \"normalize\": true to rescale"
            )
    else:
        raise ParseError("'state' needs 'tracial' or 'density'")

    phi = None
    c_spec = data.get("character")
    if c_spec is not None:
        if a is None:
            raise ParseError("a character description needs an 'A' entry")
        if not isinstance(c_spec, dict):
            raise ParseError("'character' must be an object")
        if c_spec.get("block_compression"):
            if getattr(a, "blocks", None) is None:
                raise ParseError("block_compression needs A given as 'triangular_over'")
            phi = block_compression_character(a, d)
        elif "matrix" in c_spec:
            kmat = decode_matrix(c_spec["matrix"], "character matrix")
            if kmat.shape != (n * n, n * n):
                raise ParseError(f"character matrix must be n^2 x n^2, got {kmat.shape}")
            phi = DCharacter(kmat, a, d)
        else:
            raise ParseError("'character' needs 'block_compression' or 'matrix'")

    return InstanceDescription(n=n, m=m, d=d, state=state, a=a, phi=phi)


def parse_instance(path):
    """Read, decode, and validate an instance file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid instance text: {err}")
    return instance_from_dict(data)


def instance_to_dict(inst):
    """Plain-container form of an instance; parses back to an equal instance."""
    out = {"n": inst.n}
    if getattr(inst.d, "blocks", None) is not None:
        out["D"] = {"blocks": [list(b) for b in inst.d.blocks]}
    else:
        out["D"] = {"generators": [encode_matrix(x) for x in inst.d.basis]}
    if inst.a is not None:
        if getattr(inst.a, "blocks", None) is not None:
            out["A"] = {"triangular_over": [list(b) for b in inst.a.blocks]}
        else:
            out["A"] = {"generators": [encode_matrix(x) for x in inst.a.basis]}
    eye = np.eye(inst.n) / inst.n
    if np.allclose(inst.state.density, eye, rtol=0, atol=1e-14):
        out["state"] = {"tracial": True}
    else:
        out["state"] = {"density": encode_matrix(inst.state.density), "normalize": False}
    if inst.phi is not None:
        if getattr(inst.phi, "blocks", None) is not None:
            out["character"] = {"block_compression": True}
        else:
            out["character"] = {"matrix": encode_matrix(inst.phi.map_matrix)}
    return out


def random_partition(n, rng):
    """Ordered partition of range(n) into contiguous blocks of random sizes."""
    sizes = []
    left = n
    while left:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    return blocks


def random_density(n, rng):
    """Faithful state: rho = XX* + 1e-3 I, normalized."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ dagger(x) + 1e-3 * np.eye(n)
    return PositiveFunctional(rho / float(np.trace(rho).real))


def random_central_density(n, d, rng):
    """Faithful D-central state: a random density projected onto commutant(D).

    The projection onto a *-algebra is a trace-preserving expectation, so
    positivity and the faithfulness floor survive it.
    """
    rho = random_density(n, rng).density
    c = commutant(d)
    proj = c.project(rho)
    proj = (proj + dagger(proj)) / 2
    return PositiveFunctional(proj / float(np.trace(proj).real))


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_block_instance(n, rng, conjugate=False):
    """Block character instance with the tracial state, optionally rotated off
    the coordinate axes by a Haar unitary (which erases the block tags)."""
    blocks = random_partition(n, rng)
    a, d, phi = _block_character(n, blocks, haar_unitary(n, rng) if conjugate else None)
    return InstanceDescription(
        n=n, m=full_matrix_algebra(n), d=d, state=PositiveFunctional.tracial(n), a=a, phi=phi
    )
