import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sematlas import semmap
from sematlas.atlas import _data_root
from sematlas.cli import main
from sematlas.constructions import SeriesParams, equivelar_series
from sematlas.core import InvalidMapError, PolyhedralMap


GOOD = """\
# a comment
semmap 1
vertices 4
face 0 1 2
face 0 1 3
face 0 2 3
face 1 2 3
"""


def test_parse_basic():
    m = semmap.parse(GOOD)
    assert m.n_vertices == 4
    assert m.n_faces == 4


def test_round_trip_identity(atlas):
    for m in atlas.values():
        again = semmap.parse(semmap.serialize(m))
        assert again == m


def test_canonical_serialization_is_stable(t_1_10):
    # serializing a differently-ordered face list gives identical bytes
    reordered = PolyhedralMap(10, list(reversed(t_1_10.faces)))
    assert semmap.serialize(reordered) == semmap.serialize(t_1_10)


def test_tags_round_trip():
    m = semmap.parse(GOOD)
    tagged = PolyhedralMap(4, m.faces, tags={"series": {"n": 3}})
    again = semmap.parse(semmap.serialize(tagged))
    assert again.tags == {"series": {"n": 3}}


@pytest.mark.parametrize("text", [
    "vertices 4\nface 0 1 2\n",
    "semmap 2\nvertices 4\n",
    "semmap 1\nface 0 1 2\n",
    "semmap 1\nvertices x\n",
    "semmap 1\nvertices 4 junk\nface 0 1 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    "semmap 1\nverticesX 4\nface 0 1 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    "semmap 1\nvertices 4\nedge 0 1\n",
    "semmap 1\nvertices 4\nface 0 one 2\n",
    # int() reads each of these as a valid count or label
    "semmap 1\nvertices +4\nface 0 1 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    "semmap 1\nvertices 0_4\nface 0 1 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    "semmap 1\nvertices \u0664\nface 0 1 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    "semmap 1\nvertices 4\nface +0 1 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    # a sign is no digit, so this is a format error, not a bad label
    "semmap 1\nvertices 4\nface -1 0 2\nface 0 1 3\nface 0 2 3\nface 1 2 3\n",
    "# tag: {bad\n" + GOOD,
])
def test_format_errors(text):
    with pytest.raises(semmap.SemmapFormatError):
        semmap.parse(text)


def test_comment_written_and_ignored(t_1_10, tmp_path):
    path = tmp_path / "m.map"
    semmap.save(t_1_10, path, comment="first torus map")
    assert "# first torus map" in path.read_text()
    assert semmap.load(path) == t_1_10


def test_unreadable_file_is_an_os_error(tmp_path):
    with pytest.raises(OSError, match="cannot read"):
        semmap.load(tmp_path / "missing.map")
    bad = tmp_path / "non-utf-8.map"
    bad.write_bytes(b"\xff\xfe semmap 1\n")
    with pytest.raises(OSError, match="cannot read"):
        semmap.load(bad)


@pytest.mark.parametrize("tag", ["[1,2]", '"ab"', "5", "null", "true"])
def test_tag_that_is_not_an_object_is_a_format_error(tag):
    with pytest.raises(semmap.SemmapFormatError):
        semmap.parse(f"# tag: {tag}\n" + GOOD)


ATLAS_TEXTS = [p.read_text() for p in sorted(_data_root().glob("*.map"))]


@st.composite
def mutated_semmap(draw):
    """An atlas semmap with a few lines deleted, duplicated, truncated,
    renumbered or inserted as tag comments."""
    lines = draw(st.sampled_from(ATLAS_TEXTS)).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(lines)))
        op = draw(st.sampled_from(["delete", "duplicate", "truncate",
                                   "renumber", "tag"]))
        if op == "tag":
            tag = draw(st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=5),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                max_leaves=5))
            lines.insert(i, "# tag: " + json.dumps(tag))
            continue
        if i == len(lines):
            continue
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            words = lines[i].split()
            digits = [k for k, w in enumerate(words) if w.isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                words[k] = str(draw(st.integers(min_value=-2, max_value=60)))
                lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@given(mutated_semmap())
@settings(max_examples=300, deadline=None)
def test_mutated_atlas_semmaps_raise_only_typed_errors(text):
    try:
        semmap.parse(text)
    except (semmap.SemmapFormatError, InvalidMapError):
        pass


#: The 4^4 grid maps whose ``series`` (with its ``twist``) and ``coords``
#: tags the grid operators and the SVG export read.
GRIDS = [equivelar_series(SeriesParams("4^4", surface, n, twist=twist))
         for surface, n, twist in (("torus", 7, None), ("torus", 8, -4),
                                   ("klein_bottle", 8, None))]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**9, 10**9)
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@st.composite
def mutated_grid(draw):
    """A 4^4 grid map with a few keys of its tag objects dropped or set
    to an arbitrary JSON value: the series or coords tag itself, a series
    key (often ``twist``), a vertex of ``coords`` or one of its entries."""
    grid = draw(st.sampled_from(GRIDS))
    tags = copy.deepcopy(grid.tags)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        where = draw(st.sampled_from(["tags", "series", "twist", "coords", "entry"]))
        series, coords = tags.get("series"), tags.get("coords")
        if where == "tags":
            obj, key = tags, draw(st.sampled_from(["series", "coords"]))
        elif where in ("series", "twist") and isinstance(series, dict):
            obj = series
            key = "twist" if where == "twist" or not series else draw(
                st.sampled_from(sorted(series)))
        elif where in ("coords", "entry") and isinstance(coords, dict) and coords:
            obj, key = coords, draw(st.sampled_from(sorted(coords)))
            if where == "entry" and isinstance(obj[key], list) and obj[key]:
                obj, key = obj[key], draw(st.integers(0, len(obj[key]) - 1))
        else:
            continue
        if draw(st.booleans()):
            with contextlib.suppress(KeyError):  # a twist the map lacks
                del obj[key]
        else:
            obj[key] = draw(JSON_VALUES)
    return PolyhedralMap(grid.n_vertices, grid.faces, tags=tags)


@given(mutated_grid())
@settings(max_examples=100, deadline=None)
def test_mutated_grid_tags_give_only_typed_errors(m):
    """The grid operators and the SVG export turn any malformed tag into
    an exit code of the documented kind, with one ``error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "grid.map")
        semmap.save(m, path)
        for argv in (*(["derive", "--ops", op, path] for op in (
                "subdivide-layer", "subdivide-alternate", "subdivide-3636")),
                     ["export", "--format", "svg", path]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            if code:
                assert err.getvalue().startswith("error: ")
                assert len(err.getvalue().splitlines()) == 1
