"""The value types: equality, hashing, immutability, pickling and reprs;
and what ``import sematlas`` loads."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import sematlas
from sematlas.atlas import FixtureEntry
from sematlas.classify import CanonicalForm, IntPolynomial, Isomorphism
from sematlas.constructions import ParamOutOfRange, SeriesParams
from sematlas.core import FaceSeqType, SurfaceId
from sematlas.enumeration import ReportRow


def t33344():
    return FaceSeqType((4, 4, 3, 3, 3))


# a maker of each immutable value, a field of it, and its repr
FROZEN = {
    "FaceSeqType": (t33344, "sizes", "FaceSeqType(sizes=(3, 3, 3, 4, 4))"),
    "SeriesParams": (
        lambda: SeriesParams("4x4", "klein", 5), "n",
        "SeriesParams(family='4^4', surface='klein_bottle', n=5, twist=None)"),
    "SurfaceId": (
        lambda: SurfaceId.from_invariants(0, False), "name",
        "SurfaceId(euler_characteristic=0, orientable=False, name='klein_bottle')"),
    "Isomorphism": (
        lambda: Isomorphism((2, 0, 1)), "mapping", "Isomorphism(mapping=(2, 0, 1))"),
    "CanonicalForm": (
        lambda: CanonicalForm(b"3\n0 1 2\n", (0, 1, 2)), "form",
        "CanonicalForm(form=b'3\\n0 1 2\\n', relabeling=(0, 1, 2))"),
    "IntPolynomial": (
        lambda: IntPolynomial((1, 0, -1)), "coefficients",
        "IntPolynomial(coefficients=(1, 0, -1))"),
    "FixtureEntry": (
        lambda: FixtureEntry("T_1_10__3-3-3-4-4", t33344(), "torus", 10, "fig"),
        "n",
        "FixtureEntry(id='T_1_10__3-3-3-4-4', type=FaceSeqType(sizes=(3, 3, 3, 4, 4)), "
        "surface='torus', n=10, provenance='fig')"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_value_contract(name):
    make, field, text = FROZEN[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    again = pickle.loads(pickle.dumps(a))
    assert type(again) is type(a) and again == a and repr(again) == text


def test_face_seq_type_normalises_and_hashes_its_sizes():
    t = t33344()
    assert str(t) == "(3,3,3,4,4)" and len(t) == 5 and t.degree == 5
    assert hash(t) == hash(((3, 3, 3, 4, 4),))
    assert t == FaceSeqType(sizes=[3, 4, 4, 3, 3]) != FaceSeqType((3, 3, 4, 3, 4))
    assert t != (3, 3, 3, 4, 4)
    with pytest.raises(AttributeError):
        del t.sizes


@pytest.mark.parametrize("sizes", [(3, 3), (3, 2, 4), (4, 4, 4, 0)])
def test_face_seq_type_refuses_bad_sizes(sizes):
    with pytest.raises(ValueError):
        FaceSeqType(sizes)


def test_series_params_normalises_and_checks():
    p = SeriesParams("44", "torus", 7, twist=-4)
    assert (p.family, p.surface, p.n, p.twist) == ("4^4", "torus", 7, -4)
    assert p == SeriesParams(family="4^4", surface="torus", n=7, twist=-4)
    assert p != SeriesParams("4^4", "torus", 7)
    for args, kwargs in [(("5^5", "torus", 8), {}), (("4^4", "plane", 8), {}),
                         (("4^4", "torus", 2), {}),
                         (("4^4", "klein", 5), {"twist": -4}),
                         (("6^3", "torus", 7), {"twist": -3})]:
        with pytest.raises(ParamOutOfRange):
            SeriesParams(*args, **kwargs)


def test_isomorphism_indexes_its_mapping():
    iso = Isomorphism((2, 0, 1))
    assert [iso[v] for v in range(3)] == [2, 0, 1] and iso.mapping == (2, 0, 1)
    assert iso != Isomorphism((0, 1, 2))


def test_report_row_contract(t_1_10, k_1_10):
    t = t33344()
    a, b = ReportRow(t, 8), ReportRow(type=t, n=8)
    assert repr(a) == ("ReportRow(type=FaceSeqType(sizes=(3, 3, 3, 4, 4)), n=8, "
                       "infeasible_reason=None)")
    assert a == b and a.maps is not b.maps and a.orientations is not b.orientations
    a.maps.append(t_1_10)
    assert b.maps == [] and a != b
    row = ReportRow(t, 10, [t_1_10, k_1_10], [True, False])
    assert (row.total, row.orientable, row.non_orientable) == (2, 1, 1)
    assert row != ReportRow(t, 10, [t_1_10, k_1_10], [True, True])
    gated = ReportRow(t, 0, infeasible_reason="no n")
    assert gated == ReportRow(t, 0, [], [], "no n") != ReportRow(t, 0)
    again = pickle.loads(pickle.dumps(row))
    assert again == row and again.maps is not row.maps
    row.n = 12  # rows are mutable
    assert row.n == 12
    with pytest.raises(TypeError):
        hash(row)


def test_import_loads_no_heavy_stdlib_module():
    """``import sematlas`` pays only for what every command needs; csv and
    multiprocessing load where they are used, and the atlas finds its data
    beside its own file rather than through importlib.resources.  ``-S``
    keeps site hooks out of the check."""
    src = Path(sematlas.__file__).resolve().parents[1]
    heavy = ("dataclasses", "inspect", "csv", "multiprocessing",
             "importlib.resources", "tempfile")
    code = ("import sematlas, sematlas.cli, sys; "
            f"print(*(m for m in {heavy!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
