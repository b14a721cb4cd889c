import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sematlas import semmap
from sematlas.atlas import _data_root
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
    "semmap 1\nvertices 4\nedge 0 1\n",
    "semmap 1\nvertices 4\nface 0 one 2\n",
])
def test_format_errors(text):
    with pytest.raises(semmap.SemmapFormatError):
        semmap.parse(text)


def test_comment_written_and_ignored(t_1_10, tmp_path):
    path = tmp_path / "m.map"
    semmap.save(t_1_10, path, comment="first torus map")
    assert "# first torus map" in path.read_text()
    assert semmap.load(path) == t_1_10


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
