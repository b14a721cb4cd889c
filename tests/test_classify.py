import ast
import pickle
import random
from pathlib import Path

import pytest

from sematlas import classify, semmap
from sematlas.classify import (
    CohomologyInvariantError,
    NotFlat,
    adjacency_matrix,
    canonical_form,
    charpoly,
    edge_graph_char_poly,
    find_isomorphism,
    homological_systole,
    is_vertex_transitive,
)
from sematlas.constructions import (ParamOutOfRange, SeriesParams,
                                    equivelar_series, truncate)
from sematlas.core import canonical_face, flag_walk, validate
from sematlas.enumeration import classify_all

from oracles import (
    brute_force_systole,
    exhaustive_canonical_form,
    faddeev_leverrier_charpoly,
    gauss_determinant,
    pinned_is_vertex_transitive,
    reduction_systole,
    reference_least_walk,
)


@pytest.fixture(scope="module")
def oracle_maps(atlas):
    """The maps the oracle tests share: the atlas, the 3^6, 4^4 and 6^3
    torus and Klein-bottle series for n = 3..10, their truncations, and
    the census to 16 vertices."""
    series = []
    for n in range(3, 11):
        for family in ("3^6", "4^4", "6^3"):
            for surface in ("torus", "klein_bottle"):
                try:
                    series.append(equivelar_series(SeriesParams(family, surface, n)))
                except ParamOutOfRange:
                    pass
    maps = [atlas[k] for k in sorted(atlas)] + series
    maps += [truncate(m) for m in series]
    maps += [m for row in classify_all(16) for m in row.maps]
    return maps


def with_relabelings(maps, seed):
    """Each map, then a relabeling of it drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for m in maps:
        perm = list(range(m.n_vertices))
        rng.shuffle(perm)
        yield m
        yield m.relabel(perm)


class TestIsomorphism:
    def test_identity_up_to_permutation(self, t_1_10):
        rng = random.Random(3)
        for _ in range(5):
            perm = list(range(10))
            rng.shuffle(perm)
            other = t_1_10.relabel(perm)
            iso = find_isomorphism(t_1_10, other)
            assert iso is not None
            # certificate: apply and compare the face sets
            image = sorted(canonical_face(tuple(iso[v] for v in f))
                           for f in t_1_10.faces)
            assert tuple(image) == other.face_keys

    def test_torus_klein_not_isomorphic(self, t_1_10, k_1_10):
        assert find_isomorphism(t_1_10, k_1_10) is None
        assert find_isomorphism(k_1_10, t_1_10) is None

    def test_symmetric_on_fixture_pairs(self, atlas):
        small = {k: m for k, m in atlas.items() if m.n_vertices <= 12}
        ids = sorted(small)
        for i, a in enumerate(ids):
            for b in ids[i:]:
                ab = find_isomorphism(small[a], small[b]) is not None
                ba = find_isomorphism(small[b], small[a]) is not None
                assert ab == ba

    def test_reflexive(self, atlas):
        for m in atlas.values():
            assert find_isomorphism(m, m) is not None

    def test_pin(self, t_1_10):
        iso = find_isomorphism(t_1_10, t_1_10, pin=(0, 3))
        assert iso is not None and iso[0] == 3

    @pytest.mark.parametrize("pin", [(0, 10), (10, 0), (-1, 3), (3, -1)])
    def test_pin_outside_the_map_raises(self, t_1_10, pin):
        with pytest.raises(ValueError):
            find_isomorphism(t_1_10, t_1_10, pin=pin)

    def test_vertex_transitivity(self, tetrahedron, t_1_10):
        assert is_vertex_transitive(tetrahedron)
        assert is_vertex_transitive(t_1_10)

    def test_non_transitive_map(self, tetrahedron):
        faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                 (1, 2, 4), (2, 3, 4), (1, 3, 4)]
        m = validate(faces, 5)
        assert not is_vertex_transitive(m)

    def test_matches_the_pinned_search(self, oracle_maps):
        # one orbit of the canonical-form search decides what a pinned
        # find_isomorphism per vertex decided before
        verdicts = []
        for each in with_relabelings(oracle_maps, 14):
            want = pinned_is_vertex_transitive(each)
            assert is_vertex_transitive(each) == want
            verdicts.append(want)
        # both verdicts occur, so neither constant answer passes
        assert 0 < sum(verdicts) < len(verdicts)


class TestCanonicalForm:
    def test_relabeling_invariance(self, t_1_10, tetrahedron):
        rng = random.Random(11)
        for m in (t_1_10, tetrahedron):
            want = canonical_form(m).form
            for _ in range(20):
                perm = list(range(m.n_vertices))
                rng.shuffle(perm)
                assert canonical_form(m.relabel(perm)).form == want

    def test_canonical_relabeling_reproduces_form(self, t_1_10):
        cf = canonical_form(t_1_10)
        relabeled = t_1_10.relabel(cf.relabeling)
        assert canonical_form(relabeled).form == cf.form

    def test_matches_the_exhaustive_form(self, oracle_maps):
        # the orbit cut must keep the every-start-flag form and relabeling
        for each in with_relabelings(oracle_maps, 12):
            assert canonical_form(each) == exhaustive_canonical_form(each)

    def test_matches_the_best_only_pairing(self, oracle_maps):
        # pairing each walk with the first walk of its serialization keeps
        # the form, relabeling and orbit of pairing it with the best only
        for each in with_relabelings(oracle_maps, 18):
            form, relabeling, orbit = reference_least_walk(each)
            assert classify._least_walk(each) == (form, relabeling, tuple(orbit))

    @staticmethod
    def counting_walks(monkeypatch) -> list:
        walks = []

        def counting_walk(m, start):
            walks.append(start)
            return flag_walk(m, start)

        monkeypatch.setattr(classify, "flag_walk", counting_walk)
        return walks

    def test_walks_one_start_flag_per_orbit(self, monkeypatch):
        # the 60-vertex 4^4 torus grid has 480 flags in 4 orbits
        m = equivelar_series(SeriesParams("4^4", "torus", 30))
        assert len(m.flags.s1) == 480
        walks = self.counting_walks(monkeypatch)
        canonical_form(m)
        assert len(walks) <= 7

    def test_prunes_on_every_automorphism_found(self, monkeypatch):
        # the truncated grid is not vertex-transitive: walks from other
        # orbits than the winner's pair up too
        m = truncate(equivelar_series(SeriesParams("4^4", "torus", 7)))
        assert (m.n_vertices, len(m.flags.s1)) == (56, 336)
        walks = self.counting_walks(monkeypatch)
        canonical_form(m)
        assert len(walks) <= 14

    def test_the_search_is_kept_per_map(self, monkeypatch):
        m = truncate(equivelar_series(SeriesParams("4^4", "torus", 7)))
        twin = truncate(equivelar_series(SeriesParams("4^4", "torus", 7)))
        digest = hash(m)
        unsearched = pickle.dumps(m)
        walks = self.counting_walks(monkeypatch)
        want = canonical_form(m)
        searched = len(walks)
        assert not is_vertex_transitive(m)
        assert canonical_form(m) == want
        assert len(walks) == searched
        # the kept result changes neither equality nor hash
        assert m == twin and twin == m and hash(m) == digest == hash(twin)
        perm = list(range(m.n_vertices))
        random.Random(19).shuffle(perm)
        for other in (m.relabel(perm), semmap.parse(semmap.serialize(m)),
                      pickle.loads(pickle.dumps(m)), pickle.loads(unsearched)):
            assert canonical_form(other).form == want.form
            assert not is_vertex_transitive(other)

    def test_equality_iff_isomorphic_on_small_fixtures(self, atlas):
        small = sorted(k for k, m in atlas.items() if m.n_vertices <= 14)
        forms = {k: canonical_form(atlas[k]).form for k in small}
        for i, a in enumerate(small):
            for b in small[i + 1:]:
                same = forms[a] == forms[b]
                iso = find_isomorphism(atlas[a], atlas[b]) is not None
                assert same == iso


class TestCharPoly:
    def test_triangle_graph(self):
        poly = charpoly([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert poly.coefficients == (-2, -3, 0, 1)
        assert str(poly) == "x^3 - 3x - 2"

    def test_leading_and_degree(self, t_1_10):
        poly = edge_graph_char_poly(t_1_10)
        assert poly.degree == 10
        assert poly.coefficients[-1] == 1

    def test_invariant_under_relabeling(self, k_1_10):
        perm = list(range(10))
        random.Random(5).shuffle(perm)
        assert (edge_graph_char_poly(k_1_10).coefficients
                == edge_graph_char_poly(k_1_10.relabel(perm)).coefficients)

    def test_value_at_zero_is_signed_determinant(self, atlas):
        for fid in ("T_1_10__3-3-3-4-4", "K_1_12__3-3-3-4-4", "T_1_18__3-4-6-4"):
            m = atlas[fid]
            A = adjacency_matrix(m)
            p0 = edge_graph_char_poly(m)(0)
            assert p0 == (-1) ** m.n_vertices * gauss_determinant(A)

    def test_against_sympy(self, t_1_10):
        sympy = pytest.importorskip("sympy")
        A = sympy.Matrix(adjacency_matrix(t_1_10))
        want = list(reversed(A.charpoly().all_coeffs()))
        assert list(edge_graph_char_poly(t_1_10).coefficients) == want

    def test_isomorphic_maps_share_polys(self, t_1_10):
        perm = list(range(10))
        random.Random(1).shuffle(perm)
        assert (edge_graph_char_poly(t_1_10).coefficients
                == edge_graph_char_poly(t_1_10.relabel(perm)).coefficients)

    def test_matches_faddeev_leverrier(self, atlas):
        matrices = [adjacency_matrix(m) for _, m in sorted(atlas.items())]
        matrices.append(adjacency_matrix(
            equivelar_series(SeriesParams("4^4", "torus", 30))))
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(0, 10)
            matrices.append([[rng.randint(-5, 5) for _ in range(n)]
                             for _ in range(n)])
        # entries near +-10^6: the slot width must hold r^n, not just r
        big = 10 ** 6
        for n in (1, 2, 5, 8):
            matrices.append([[rng.choice((big, -big, big - 1, 1 - big, 0, 1))
                              for _ in range(n)] for _ in range(n)])
        matrices.append([[big] * 6 for _ in range(6)])
        matrices.append([[-big if i == j else big for j in range(6)]
                         for i in range(6)])
        for A in matrices:
            assert charpoly(A) == faddeev_leverrier_charpoly(A), A

    @pytest.mark.parametrize("matrix", [
        [[1, 2, 3]],
        [[0, 1], [1]],
        [[0, 1], [1, 0], [1, 1]],
    ])
    def test_refuses_a_matrix_that_is_not_square(self, matrix):
        with pytest.raises(ValueError):
            charpoly(matrix)


class TestSystole:
    def test_sphere_rejected(self, tetrahedron):
        with pytest.raises(NotFlat):
            homological_systole(tetrahedron)

    def test_projective_plane_rejected(self, rp2):
        with pytest.raises(NotFlat):
            homological_systole(rp2)

    def test_matches_brute_force_on_small_fixtures(self, atlas):
        for fid, m in sorted(atlas.items()):
            if m.n_vertices <= 14:
                assert homological_systole(m) == brute_force_systole(m), fid

    def test_square_torus_grid(self):
        from sematlas.constructions import SeriesParams, equivelar_series
        m = equivelar_series(SeriesParams("4^4", "torus", 7))
        assert homological_systole(m) == brute_force_systole(m)

    def test_relabeling_invariance(self, k_1_10):
        perm = list(range(10))
        random.Random(9).shuffle(perm)
        assert homological_systole(k_1_10) == homological_systole(k_1_10.relabel(perm))

    def test_matches_the_reduction(self, oracle_maps):
        # the cohomology labels give the face-boundary reduction's systole
        for each in with_relabelings(oracle_maps, 16):
            assert homological_systole(each) == reduction_systole(each)

    def test_missing_cycle_is_an_error_not_an_assert(self, tetrahedron, monkeypatch):
        # a raised error survives ``python -O``, which strips asserts; the
        # tetrahedron passed off as flat leaves 0 edges over, not 2
        monkeypatch.setattr(classify, "euler_characteristic", lambda m: 0)
        with pytest.raises(CohomologyInvariantError, match="0 edges.*leaves 2"):
            homological_systole(tetrahedron)


def test_no_bare_assert_in_the_library():
    # a check that guards a result must survive ``python -O``, which
    # strips asserts
    root = Path(classify.__file__).parent
    paths = sorted(root.rglob("*.py"))
    assert {root / "classify.py", root / "atlas" / "__init__.py"} <= set(paths)
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
