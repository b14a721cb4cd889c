"""Relabeling-invariance and normalization properties, hypothesis-driven."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from sematlas import semmap
from sematlas.classify import canonical_form, edge_graph_char_poly
from sematlas.core import FaceSeqType, PolyhedralMap, canonical_face, is_orientable, validate
from sematlas.enumeration import ALL_FLAT_TYPES

from conftest import K_1_10_FACES, T_1_10_FACES, TETRAHEDRON

POOL = [
    (TETRAHEDRON, 4),
    (T_1_10_FACES, 10),
    (K_1_10_FACES, 10),
]


def pool_map(index: int) -> PolyhedralMap:
    faces, n = POOL[index]
    return validate(faces, n)


@st.composite
def map_and_permutation(draw):
    idx = draw(st.integers(min_value=0, max_value=len(POOL) - 1))
    m = pool_map(idx)
    perm = draw(st.permutations(list(range(m.n_vertices))))
    return m, list(perm)


@given(map_and_permutation())
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_relabeling_invariant(mp):
    m, perm = mp
    assert canonical_form(m.relabel(perm)).form == canonical_form(m).form


@given(map_and_permutation())
@settings(max_examples=25, deadline=None)
def test_char_poly_is_relabeling_invariant(mp):
    m, perm = mp
    assert (edge_graph_char_poly(m.relabel(perm)).coefficients
            == edge_graph_char_poly(m).coefficients)


@given(map_and_permutation())
@settings(max_examples=25, deadline=None)
def test_orientability_is_relabeling_invariant(mp):
    m, perm = mp
    assert is_orientable(m.relabel(perm)) == is_orientable(m)


@given(map_and_permutation())
@settings(max_examples=25, deadline=None)
def test_serialization_round_trips(mp):
    m, perm = mp
    relabeled = m.relabel(perm)
    assert semmap.parse(semmap.serialize(relabeled)) == relabeled


@given(st.lists(st.integers(min_value=3, max_value=12), min_size=3, max_size=6),
       st.integers(min_value=0, max_value=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_face_seq_type_normalization(sizes, rotation, reflect):
    rotated = sizes[rotation % len(sizes):] + sizes[:rotation % len(sizes)]
    if reflect:
        rotated = list(reversed(rotated))
    assert FaceSeqType(tuple(rotated)) == FaceSeqType(tuple(sizes))


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=9,
                unique=True),
       st.integers(min_value=0, max_value=8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_canonical_face_key(face, rotation, reflect):
    rotated = face[rotation % len(face):] + face[:rotation % len(face)]
    if reflect:
        rotated = list(reversed(rotated))
    assert canonical_face(rotated) == canonical_face(face)
    assert min(canonical_face(face)) == canonical_face(face)[0]


def least_rotation(seq) -> tuple:
    """Every rotation of both directions, compared: the normal form by
    brute force."""
    seq = tuple(seq)
    rotations = [s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq))]
    return min(rotations)


def _with_flat_types(test):
    """Add every flat type, forwards and reversed, as explicit examples."""
    for t in ALL_FLAT_TYPES:
        test = example(list(t.sizes), False)(test)
        test = example(list(reversed(t.sizes)), True)(test)
    return test


@given(st.one_of(
           st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=9, unique=True),
           st.lists(st.integers(min_value=3, max_value=5), min_size=1,
                    max_size=9)),
       st.booleans())
@_with_flat_types
@settings(max_examples=150, deadline=None)
def test_canonical_face_is_the_least_rotation(seq, as_tuple):
    """Distinct entries take the linear path and repeated ones the loop;
    both must give the least of all 2k rotations, for lists and tuples."""
    got = canonical_face(tuple(seq) if as_tuple else seq)
    assert type(got) is tuple
    assert got == least_rotation(seq)
