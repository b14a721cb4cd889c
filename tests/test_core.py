import pickle
import random

import pytest

from sematlas.core import (
    BadLabel,
    Disconnected,
    EdgeDegreeViolation,
    FaceIntersectionViolation,
    FaceSeqType,
    FaceTooSmall,
    LinkNotSingleCycle,
    RepeatedVertexInFace,
    cyclic_equal,
    euler_characteristic,
    face_sequence,
    is_orientable,
    is_semi_equivelar,
    surface_id,
    validate,
)


class TestValidation:
    def test_tetrahedron(self, tetrahedron):
        assert tetrahedron.n_vertices == 4
        assert tetrahedron.n_edges == 6
        assert tetrahedron.n_faces == 4

    def test_pillow_rejected(self):
        with pytest.raises(FaceIntersectionViolation):
            validate([(0, 1, 2), (0, 2, 1)], 3)

    def test_flat_example_counts(self, t_1_10):
        assert (t_1_10.n_vertices, t_1_10.n_edges, t_1_10.n_faces) == (10, 25, 15)

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            validate([(0, 1, 5)], 3)

    def test_unused_vertex(self):
        with pytest.raises(BadLabel):
            validate([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 5)

    def test_repeated_vertex(self):
        with pytest.raises(RepeatedVertexInFace):
            validate([(0, 1, 0, 2)], 3)

    def test_degenerate_inputs(self):
        with pytest.raises(Disconnected):
            validate([], 0)
        with pytest.raises(Disconnected):
            validate([], 4)


class TestInvariants:
    def test_face_sequence_tetrahedron(self, tetrahedron):
        assert face_sequence(tetrahedron, 0) == (3, 3, 3)

    def test_face_sequence_flat(self, t_1_10):
        assert cyclic_equal(face_sequence(t_1_10, 0), (4, 3, 3, 3, 4))

    def test_semi_equivelar(self, tetrahedron, t_1_10):
        assert is_semi_equivelar(tetrahedron) == FaceSeqType((3, 3, 3))
        assert is_semi_equivelar(t_1_10) == FaceSeqType((3, 3, 3, 4, 4))

    def test_stellating_a_face_breaks_the_type(self, tetrahedron):
        # replace face (1,2,3) by a cone over a new apex
        faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                 (1, 2, 4), (2, 3, 4), (1, 3, 4)]
        m = validate(faces, 5)
        assert is_semi_equivelar(m) is None

    def test_euler_characteristic(self, tetrahedron, t_1_10, k_1_10):
        assert euler_characteristic(tetrahedron) == 2
        assert euler_characteristic(t_1_10) == 0
        assert euler_characteristic(k_1_10) == 0

    def test_orientability(self, tetrahedron, t_1_10, k_1_10):
        assert is_orientable(tetrahedron)
        assert is_orientable(t_1_10)
        assert not is_orientable(k_1_10)

    def test_surface_id(self, tetrahedron, t_1_10, k_1_10, rp2):
        assert surface_id(tetrahedron).name == "sphere"
        assert surface_id(t_1_10).name == "torus"
        assert surface_id(k_1_10).name == "klein_bottle"
        assert surface_id(rp2).name == "other(chi=1, non-orientable)"

    def test_handshake(self, atlas):
        for m in atlas.values():
            assert sum(len(f) for f in m.faces) == 2 * m.n_edges

    def test_degree_law(self, atlas, catalog):
        for fid, m in atlas.items():
            t = catalog[fid].type
            assert all(m.degree(v) == len(t) for v in range(m.n_vertices))
            assert 2 * m.n_edges == m.n_vertices * len(t)

    def test_orientability_invariant_under_relabeling(self, k_1_10, t_1_10):
        rng = random.Random(7)
        for m in (k_1_10, t_1_10):
            want = is_orientable(m)
            for _ in range(5):
                perm = list(range(m.n_vertices))
                rng.shuffle(perm)
                assert is_orientable(m.relabel(perm)) == want


class TestLinkCycles:
    def test_printed_links_of_first_torus_map(self, t_1_10):
        # the full boundary cycles of the closed stars, e.g. around 7 and 9
        assert cyclic_equal(t_1_10.link_cycle(7), (6, 9, 4, 3, 8, 1, 0))
        assert cyclic_equal(t_1_10.link_cycle(9), (4, 5, 8, 1, 2, 6, 7))
        assert cyclic_equal(t_1_10.link_cycle(0), (1, 2, 3, 4, 5, 6, 7))

    def test_link_is_neighbours_in_fan_order(self, tetrahedron):
        assert sorted(tetrahedron.link(0)) == [1, 2, 3]


class TestFlagTable:
    def test_involutions_and_incidences(self, atlas):
        for fid, m in sorted(atlas.items()):
            s1, vertex, face, start = m.flags
            assert len(s1) == 4 * m.n_edges, fid
            for x in range(len(s1)):
                u, w = m.edges[x // 4]
                assert vertex[x] == (u, w)[(x >> 1) & 1], fid
                assert face[x] == m.edge_faces(u, w)[x & 1], fid
                # s1 is a fixed-point-free involution keeping vertex and face
                assert s1[x] != x and s1[s1[x]] == x, fid
                assert (vertex[s1[x]], face[s1[x]]) == (vertex[x], face[x]), fid
                assert vertex[s1[x] ^ 2] != vertex[x ^ 2], fid
            for v in range(m.n_vertices):
                assert vertex[start[v]] == v and face[start[v]] == m.vertex_faces(v)[0]

    def test_edge_and_vertex_faces_match_the_face_list(self, atlas):
        # the incidences recomputed from ``m.faces`` alone, not the flags
        for fid, stored in sorted(atlas.items()):
            for m in (stored, pickle.loads(pickle.dumps(stored))):
                n = m.n_vertices
                holding: dict[frozenset, list[int]] = {}
                for fi, face in enumerate(m.faces):
                    for i in range(len(face)):
                        pair = frozenset((face[i - 1], face[i]))
                        holding.setdefault(pair, []).append(fi)
                for u in range(n):
                    for w in range(u + 1, n):
                        fs = holding.get(frozenset((u, w)))
                        if fs is None:
                            with pytest.raises(KeyError):
                                m.edge_faces(u, w)
                            continue
                        assert m.edge_faces(u, w) == m.edge_faces(w, u) == tuple(fs)
                        assert len(fs) == 2 and fs[0] < fs[1], fid
                for v in range(n):
                    want = tuple(fi for fi, f in enumerate(m.faces) if v in f)
                    assert m.vertex_faces(v) == want, fid

    def test_fan_and_link_walk_one_rotation(self, t_1_10):
        for v in range(t_1_10.n_vertices):
            fan, link = t_1_10.fan(v), t_1_10.link(v)
            assert len(fan) == len(link) == t_1_10.degree(v)
            for i, fi in enumerate(fan):
                # fan face i holds the edges to link[i] and link[i + 1]
                corner = {link[i], link[(i + 1) % len(link)]}
                face = t_1_10.faces[fi]
                k = face.index(v)
                assert {face[k - 1], face[(k + 1) % len(face)]} == corner


def test_relabel_and_face_sequence_refuse_bad_arguments(t_1_10):
    with pytest.raises(ValueError):
        t_1_10.relabel([0] * 10)
    with pytest.raises(ValueError):
        face_sequence(t_1_10, t_1_10.n_vertices)


class TestFaceSeqType:
    def test_normalization(self):
        assert FaceSeqType((4, 3, 3, 3, 4)) == FaceSeqType((3, 3, 3, 4, 4))
        assert FaceSeqType((4, 3, 4, 3, 3)) == FaceSeqType((3, 3, 4, 3, 4))
        assert FaceSeqType((3, 4, 6, 4)).sizes == (3, 4, 6, 4)

    def test_parse(self):
        assert FaceSeqType.parse("3,3,3,4,4").sizes == (3, 3, 3, 4, 4)
        assert FaceSeqType.parse(" 3, 3;3 ,4,4 ").sizes == (3, 3, 3, 4, 4)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            FaceSeqType((3, 3))
        with pytest.raises(ValueError):
            FaceSeqType((2, 3, 3))


MALFORMED_CORPUS = [
    # (faces, n, expected diagnostic)
    ([(0, 1, 5)], 3, BadLabel),
    ([(0, 1, -1)], 3, BadLabel),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 5, BadLabel),
    ([(7, 8, 9)], 3, BadLabel),
    ([(0, 1)], 2, FaceTooSmall),
    ([(0,)], 1, FaceTooSmall),
    ([(0, 1), (0, 1, 2)], 3, FaceTooSmall),
    ([(0, 1, 0, 2)], 3, RepeatedVertexInFace),
    ([(0, 1, 2, 1)], 3, RepeatedVertexInFace),
    ([(0, 1, 2), (0, 2, 1)], 3, FaceIntersectionViolation),
    ([(0, 1, 2, 3), (0, 4, 2, 5)], 6, FaceIntersectionViolation),
    ([(0, 1, 2, 3), (0, 1, 2, 4)], 5, FaceIntersectionViolation),
    ([(0, 1, 2), (0, 1, 2, 3)], 4, FaceIntersectionViolation),
    ([(0, 1, 2)], 3, EdgeDegreeViolation),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3)], 4, EdgeDegreeViolation),
    ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], 5, EdgeDegreeViolation),
    ([(0, 1, 2), (1, 2, 3)], 4, EdgeDegreeViolation),
    # two tetrahedra pinched at vertex 0: its faces form two separate fans
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
      (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)], 7, LinkNotSingleCycle),
    # two disjoint tetrahedra
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
      (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)], 8, Disconnected),
    ([], 0, Disconnected),
]


def test_disconnected_names_the_least_unreachable_vertex():
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
             (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
    with pytest.raises(Disconnected, match="^vertex 4 unreachable from vertex 0$"):
        validate(faces, 8)


@pytest.mark.parametrize("faces,n,expected", MALFORMED_CORPUS)
def test_malformed_corpus(faces, n, expected):
    with pytest.raises(expected):
        validate(faces, n)


def test_malformed_corpus_has_twenty_entries():
    assert len(MALFORMED_CORPUS) == 20


def test_huge_vertex_count_is_a_bad_label_not_a_memory_error():
    with pytest.raises(BadLabel, match="vertex 3 occurs in no face"):
        validate([(0, 1, 2)], 10 ** 11)
