"""Byte-level pins of the flag walks and the grid operators.

The other tests check that results are invariant under relabeling; these
pin the exact outputs (canonical relabelings, isomorphism mappings, fan and
link start points and senses, derived semmap texts, face orders), so a
rewrite of the flag walks or of the grid constructions must reproduce them
byte for byte.
"""

import hashlib
import random

from sematlas import constructions, semmap
from sematlas.atlas import fixture_catalog, load_fixture
from sematlas.classify import canonical_form, find_isomorphism
from sematlas.constructions import SeriesParams, equivelar_series
from sematlas.core import is_orientable

GOLDEN_SHA256 = "e292dea90b71c1f927d0194c0c0e393e464543950c0f4f765a69c493e1eacaf5"
GRID_SHA256 = "f3bd259ed92c0c26fe20af73d23c5128e06d6e0bc3a962ed06debbc72f1edc8e"


def _records():
    for i, entry in enumerate(fixture_catalog()):
        base = load_fixture(entry.id)
        perm = list(range(base.n_vertices))
        random.Random(1000 + i).shuffle(perm)
        for m in (base, base.relabel(perm)):
            cf = canonical_form(m)
            yield f"{entry.id} form {cf.form!r} {cf.relabeling}"
            yield f"orientable {is_orientable(m)}"
            for v in range(m.n_vertices):
                yield f"{v} fan {m.fan(v)} link {m.link(v)}"
            yield semmap.serialize(constructions.dual(m))
            yield semmap.serialize(constructions.truncate(m))
            if not is_orientable(m):
                yield semmap.serialize(constructions.double_cover(m)[0])
        iso = find_isomorphism(base, base.relabel(perm))
        yield f"iso {iso.mapping}"


def test_flag_walk_outputs_are_pinned():
    h = hashlib.sha256()
    for rec in _records():
        h.update(rec.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_SHA256


LINK_CYCLES_SHA256 = "c148b0a2fde18101fe728cb3d9d54d4be0d5366168d0d65270c20f57cf2aae65"


def test_link_cycles_are_pinned():
    # the closed-star boundaries of every atlas map and of one seeded
    # relabeling of each, start point and sense included
    h = hashlib.sha256()
    for i, entry in enumerate(fixture_catalog()):
        base = load_fixture(entry.id)
        perm = list(range(base.n_vertices))
        random.Random(1000 + i).shuffle(perm)
        for m in (base, base.relabel(perm)):
            for v in range(m.n_vertices):
                h.update(f"{entry.id} {v} {m.link_cycle(v)}\n".encode())
    assert h.hexdigest() == LINK_CYCLES_SHA256


def _series():
    """Every series build for n = 3..16, torus twists -7..7."""
    for n in range(3, 17):
        for surface, fam in (("torus", "6^3"), ("klein_bottle", "3^6"),
                             ("klein_bottle", "4^4"), ("klein_bottle", "6^3")):
            yield SeriesParams(fam, surface, n)
        for twist in range(-7, 8):
            for fam in ("3^6", "4^4"):
                yield SeriesParams(fam, "torus", n, twist=twist)


def _outcome(build, arg):
    """The built map, or the name of the typed error it raised."""
    try:
        return build(arg)
    except ValueError as exc:
        return type(exc).__name__


def test_grid_operator_outputs_are_pinned():
    # face order is pinned too: dual and truncate label their output by it
    h = hashlib.sha256()
    for params in _series():
        outs = [_outcome(equivelar_series, params)]
        if params.family == "4^4" and not isinstance(outs[0], str):
            outs += [_outcome(op, outs[0]) for op in (
                constructions.subdivide_layer_diagonals,
                constructions.subdivide_alternate_diagonals,
                constructions.subdivide_to_3636)]
        for m in outs:
            rec = m if isinstance(m, str) else semmap.serialize(m) + repr(m.faces)
            h.update(f"{params} {rec}\n".encode())
    assert h.hexdigest() == GRID_SHA256


OPS_3464_SHA256 = "ce0426cb6ab4e6fa35e55b7ec6f59eabff3d74fdfa3f7128c30712e631943979"


def _inputs_3464():
    """The truncated 6^3 torus and Klein series, n = 3..10, then the
    atlas (3,4,6,4) maps."""
    for n in range(3, 11):
        for surface in ("torus", "klein_bottle"):
            params = SeriesParams("6^3", surface, n)
            base = _outcome(equivelar_series, params)
            yield str(params), (base if isinstance(base, str)
                                else _outcome(constructions.truncate, base))
    for entry in fixture_catalog():
        if entry.type.sizes == (3, 4, 6, 4):
            yield entry.id, load_fixture(entry.id)


def test_3464_operator_outputs_are_pinned():
    h = hashlib.sha256()
    for name, m in _inputs_3464():
        outs = [m]
        if not isinstance(m, str):
            built = _outcome(constructions.build_3464_from_312sq, m)
            outs += [built, _outcome(constructions.subdivide_3464_to_346, m)]
            if not isinstance(built, str):
                outs.append(_outcome(constructions.subdivide_3464_to_346, built))
        for out in outs:
            rec = out if isinstance(out, str) else semmap.serialize(out) + repr(out.faces)
            h.update(f"{name} {rec}\n".encode())
    assert h.hexdigest() == OPS_3464_SHA256


GRID_OPERATORS = (constructions.subdivide_layer_diagonals,
                  constructions.subdivide_alternate_diagonals,
                  constructions.subdivide_to_3636)


def _grids():
    """(params, map) for every 4^4 series build that succeeds."""
    for params in _series():
        if params.family == "4^4":
            grid = _outcome(equivelar_series, params)
            if not isinstance(grid, str):
                yield params, grid


def _rec(m):
    return m if isinstance(m, str) else semmap.serialize(m) + repr(m.faces)


READ_BACK_SHA256 = "3947cc10153b479d7937f0fd5fab0279ccca75ba4fee31eece3001d45cc12505"


def test_grid_operators_on_read_back_maps_are_pinned():
    # semmap text stores the faces sorted and in canonical rotation, so the
    # operators must not depend on the generator's face order or rotation
    h = hashlib.sha256()
    for params, grid in _grids():
        read_back = semmap.parse(semmap.serialize(grid))
        for op in GRID_OPERATORS:
            h.update(f"{params} {_rec(_outcome(op, read_back))}\n".encode())
    assert h.hexdigest() == READ_BACK_SHA256


CHAINS_SHA256 = "fbe187c93ba7a960292c8a9bcd97c259a80796fb085d8b6c75d127b31bfe1a8f"


def test_grid_operator_chains_are_pinned():
    # the layer and alternate subdivisions keep the input's tags, so a
    # second grid operator may accept or refuse their output
    h = hashlib.sha256()
    for params, grid in _grids():
        for first in GRID_OPERATORS:
            out = _outcome(first, grid)
            if isinstance(out, str):
                continue
            for second in GRID_OPERATORS:
                rec = _rec(_outcome(second, out))
                h.update(f"{params} {first.__name__} {second.__name__} "
                         f"{rec}\n".encode())
    assert h.hexdigest() == CHAINS_SHA256
