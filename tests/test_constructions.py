import pytest

from sematlas import semmap
from sematlas.classify import NotFlat, find_isomorphism, is_vertex_transitive
from sematlas.constructions import (
    AlreadyOrientable,
    NoConsistentDiagonalization,
    NotGridMap,
    NotTruncation,
    ParamOutOfRange,
    ParityError,
    SeriesParams,
    build_3464_from_312sq,
    double_cover,
    dual,
    equivelar_series,
    subdivide_3464_to_346,
    subdivide_alternate_diagonals,
    subdivide_layer_diagonals,
    subdivide_to_3636,
    truncate,
    verify_covering,
)
from sematlas.core import (
    FaceSeqType,
    PolyhedralMap,
    euler_characteristic,
    grid_coords,
    is_orientable,
    is_semi_equivelar,
    surface_id,
)
from sematlas.enumeration import enumerate_sems


def series(fam, surf, n, twist=None):
    return equivelar_series(SeriesParams(fam, surf, n, twist=twist))


class TestSeries:
    def test_torus_quads(self):
        m = series("4^4", "torus", 7)
        assert m.n_vertices == 14 and m.n_faces == 14
        assert euler_characteristic(m) == 0 and is_orientable(m)
        assert is_semi_equivelar(m) == FaceSeqType((4, 4, 4, 4))

    def test_klein_quads(self):
        m = series("4^4", "klein", 3)
        assert m.n_vertices == 9 and not is_orientable(m)

    def test_torus_triangles(self):
        m = series("3^6", "torus", 7)
        assert (m.n_vertices, m.n_edges, m.n_faces) == (14, 42, 28)
        assert euler_characteristic(m) == 0

    def test_torus_hexagons(self):
        m = series("6^3", "torus", 7)
        assert m.n_vertices == 14 and m.n_faces == 7
        assert is_semi_equivelar(m) == FaceSeqType((6, 6, 6))

    def test_klein_hexagons_via_dual(self):
        m = series("6^3", "klein", 3)
        assert m.n_vertices == 18
        assert surface_id(m).name == "klein_bottle"

    def test_every_series_output_is_equivelar(self):
        for fam in ("3^6", "4^4", "6^3"):
            for surf, n in (("torus", 8), ("klein", 4)):
                m = series(fam, surf, n)
                t = is_semi_equivelar(m)
                assert t is not None and len(set(t.sizes)) == 1
                assert surface_id(m).name == (
                    "torus" if surf == "torus" else "klein_bottle")

    def test_quotients_beyond_the_pinned_range(self):
        # GRID_SHA256 pins n = 3..16 and torus twists -7..7 only
        from sematlas.constructions import _grid_info, _grid_slots
        for n in (17, 30, 61):
            for fam, sizes in (("3^6", (3,) * 6), ("4^4", (4,) * 4),
                               ("6^3", (6,) * 3)):
                for surf in ("torus", "klein_bottle"):
                    m = series(fam, surf, n)
                    assert is_semi_equivelar(m) == FaceSeqType(sizes)
                    assert surface_id(m).name == surf
                    coords = grid_coords(m)
                    # the 6^3 Klein series, a dual, is the one without coords
                    if (fam, surf) == ("6^3", "klein_bottle"):
                        assert coords is None
                        continue
                    assert len(set(coords.values())) == m.n_vertices
                    if fam != "4^4":
                        continue
                    _surface, _n, _twist, rows, quads = _grid_info(m)
                    assert _grid_slots(m, quads) == list(range(len(quads)))
                    for k, quad in enumerate(quads):
                        (pr, pc), (qr, qc), (rr, rc), (sr, sc) = (
                            coords[v] for v in quad)
                        # quad k in layer k % R of column k // R; p-q and
                        # s-r step one column on, along a row that only
                        # the Klein wrap reflects
                        assert (pr, pc) == (k % rows, k // rows)
                        assert qc == (pc + 1) % n and rc == (sc + 1) % n
                        flip = surf == "klein_bottle" and pc == n - 1
                        assert qr == (-pr if flip else pr) % rows
                        assert rr == (-sr if flip else sr) % rows
        pairs = 0
        for fam in ("3^6", "4^4"):
            for n in range(3, 20):
                for t in range(-12, 12):
                    faces = []
                    for twist in (t, t + n):
                        try:
                            faces.append(series(fam, "torus", n, twist).faces)
                        except ParamOutOfRange:
                            faces.append(None)
                    assert faces[0] == faces[1], (fam, n, t)
                    pairs += 1
        assert pairs == 816

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange):
            series("5^5", "torus", 8)
        with pytest.raises(ParamOutOfRange):
            series("4^4", "plane", 8)
        with pytest.raises(ParamOutOfRange):
            series("6^3", "torus", 5)
        with pytest.raises(ParamOutOfRange):
            series("4^4", "torus", 4)
        with pytest.raises(ParamOutOfRange):
            series("4^4", "klein", 3, twist=-4)


class TestDualAndTruncate:
    def test_tetrahedron_self_dual(self, tetrahedron):
        assert find_isomorphism(dual(tetrahedron), tetrahedron) is not None

    def test_dual_involution(self, t_1_10):
        assert find_isomorphism(dual(dual(t_1_10)), t_1_10) is not None

    def test_dual_preserves_surface(self, k_1_10):
        d = dual(k_1_10)
        assert euler_characteristic(d) == 0
        assert not is_orientable(d)

    def test_truncated_tetrahedron(self, tetrahedron):
        t = truncate(tetrahedron)
        assert t.n_vertices == 12
        assert is_semi_equivelar(t) == FaceSeqType((3, 6, 6))
        assert surface_id(t).name == "sphere"

    def test_truncation_counts(self, t_1_10, tetrahedron):
        generator_outputs = [series(fam, surf, n)
                             for fam in ("3^6", "4^4", "6^3")
                             for surf, n in (("torus", 7), ("klein", 3))]
        for m in (t_1_10, tetrahedron, *generator_outputs):
            t = truncate(m)
            assert t.n_vertices == sum(m.degree(v) for v in range(m.n_vertices))
            assert t.n_faces == m.n_vertices + m.n_faces
            assert t.n_edges == 3 * m.n_edges

    def test_dual_involution_on_fixtures(self, atlas):
        for fid, m in sorted(atlas.items()):
            if m.n_vertices <= 28:
                assert find_isomorphism(dual(dual(m)), m) is not None, fid

    def test_truncate_hexagonal_series(self):
        t = truncate(series("6^3", "torus", 7))
        assert t.n_vertices == 42
        assert is_semi_equivelar(t) == FaceSeqType((3, 12, 12))


class TestLayerSubdivision:
    def test_torus_gives_flat_sem(self):
        out = subdivide_layer_diagonals(series("4^4", "torus", 7))
        assert out.n_vertices == 14
        assert is_semi_equivelar(out) == FaceSeqType((3, 3, 3, 4, 4))
        assert surface_id(out).name == "torus"

    def test_lands_in_enumeration(self):
        out = subdivide_layer_diagonals(series("4^4", "torus", 7))
        cell = enumerate_sems(FaceSeqType((3, 3, 3, 4, 4)), 14)
        hits = [m for m in cell if find_isomorphism(out, m) and is_orientable(m)]
        assert len(hits) == 1

    def test_klein_output_is_valid_but_not_sem(self):
        # the three-row Klein grid leaves one vertex row untouched; no
        # (3,3,3,4,4) map exists on 15 vertices anyway (odd quad count)
        out = subdivide_layer_diagonals(series("4^4", "klein", 5))
        assert out.n_vertices == 15
        assert is_semi_equivelar(out) is None

    def test_untagged_rejected(self, t_1_10):
        with pytest.raises(NotGridMap):
            subdivide_layer_diagonals(t_1_10)


class TestAlternateSubdivision:
    def test_even_twist_grid(self):
        out = subdivide_alternate_diagonals(series("4^4", "torus", 8, twist=-4))
        assert out.n_vertices == 16
        assert is_semi_equivelar(out) == FaceSeqType((3, 3, 4, 3, 4))
        assert is_vertex_transitive(out)

    def test_odd_column_count(self):
        with pytest.raises(ParityError):
            subdivide_alternate_diagonals(series("4^4", "torus", 7))

    def test_odd_twist(self):
        # the drawn series' twist of -3 re-glues the checkerboard to itself
        with pytest.raises(ParityError):
            subdivide_alternate_diagonals(series("4^4", "torus", 8))

    def test_klein_rejected(self):
        with pytest.raises(ParityError):
            subdivide_alternate_diagonals(series("4^4", "klein", 4))

    def test_faces_off_the_tagged_grid_rejected(self):
        # the layer subdivision keeps the grid tags; its triangles are not
        # the grid's quads, so the alternation must not rebuild them away
        layered = subdivide_layer_diagonals(series("4^4", "torus", 8, twist=-4))
        with pytest.raises(NotGridMap):
            subdivide_alternate_diagonals(layered)


class TestGridTags:
    @pytest.mark.parametrize("op", [subdivide_layer_diagonals,
                                    subdivide_to_3636])
    def test_faces_off_the_tagged_twist_rejected(self, op):
        # the coords still lay out the grid, but a twist of -6 glues the
        # wrap quads to other vertices than the stored faces have
        grid = series("4^4", "torus", 8, twist=-4)
        tags = dict(grid.tags, series=dict(grid.tags["series"], twist=-6))
        with pytest.raises(NotGridMap):
            op(PolyhedralMap(grid.n_vertices, grid.faces, tags=tags))

    def test_layer_diagonals_ignore_the_stored_rotation(self):
        # both row edges of the Klein grid's wrap quad in the split layer
        # join rows 1 and 2; its diagonal follows the generator's quad
        grid = series("4^4", "klein", 5)
        turned = PolyhedralMap(grid.n_vertices,
                               [f[2:] + f[:2] for f in grid.faces],
                               tags=grid.tags)
        assert subdivide_layer_diagonals(turned) == subdivide_layer_diagonals(grid)


class TestGridOperatorsReadBack:
    """The grid operators on a grid parsed from its own semmap text."""

    @pytest.mark.parametrize("op, args", [
        (subdivide_layer_diagonals, ("torus", 7)),
        (subdivide_layer_diagonals, ("klein", 5)),
        (subdivide_alternate_diagonals, ("torus", 8, -4)),
    ])
    def test_same_text_as_in_memory(self, op, args):
        grid = series("4^4", *args)
        parsed = semmap.parse(semmap.serialize(grid))
        assert semmap.serialize(op(parsed)) == semmap.serialize(op(grid))

    @pytest.mark.parametrize("args", [("torus", 6), ("klein", 4)])
    def test_3636_isomorphic_to_in_memory(self, args):
        # its labels follow face order, which parsing changes
        grid = series("4^4", *args)
        out = subdivide_to_3636(semmap.parse(semmap.serialize(grid)))
        assert find_isomorphism(out, subdivide_to_3636(grid)) is not None


class TestKagomeSubdivision:
    def test_torus(self):
        out = subdivide_to_3636(series("4^4", "torus", 6))
        assert out.n_vertices == 36  # three per original quad
        assert is_semi_equivelar(out) == FaceSeqType((3, 6, 3, 6))
        assert euler_characteristic(out) == 0
        assert surface_id(out).name == "torus"

    def test_klein_even_columns(self):
        out = subdivide_to_3636(series("4^4", "klein", 4))
        assert out.n_vertices == 36
        assert is_semi_equivelar(out) == FaceSeqType((3, 6, 3, 6))
        assert surface_id(out).name == "klein_bottle"

    def test_klein_odd_columns(self):
        with pytest.raises(ParityError):
            subdivide_to_3636(series("4^4", "klein", 5))

    def test_truncating_it_gives_4_6_12(self):
        out = truncate(subdivide_to_3636(series("4^4", "torus", 6)))
        assert is_semi_equivelar(out) == FaceSeqType((4, 6, 12))
        assert out.n_vertices == 144


class TestExpansion:
    def test_from_hexagonal_series(self):
        tr = truncate(series("6^3", "torus", 7))
        out = build_3464_from_312sq(tr)
        assert out.n_vertices == 24 * 7
        assert is_semi_equivelar(out) == FaceSeqType((3, 4, 6, 4))
        assert euler_characteristic(out) == 0

    def test_12gons_stored_from_a_12_12_edge(self):
        # truncation starts each 12-gon at a triangle edge; rotated by one,
        # each starts at an edge between two 12-gons and the build rotates
        tr = truncate(series("6^3", "torus", 7))
        turned = PolyhedralMap(tr.n_vertices, [f[1:] + f[:1] if len(f) == 12 else f
                                               for f in tr.faces])
        a, b = build_3464_from_312sq(tr), build_3464_from_312sq(turned)
        for out in (a, b):
            assert out.n_vertices == 168
            assert is_semi_equivelar(out) == FaceSeqType((3, 4, 6, 4))
        assert semmap.serialize(a) != semmap.serialize(b)
        assert find_isomorphism(a, b) is not None

    def test_klein_variant(self):
        tr = truncate(series("6^3", "klein", 3))
        out = build_3464_from_312sq(tr)
        assert is_semi_equivelar(out) == FaceSeqType((3, 4, 6, 4))
        assert surface_id(out).name == "klein_bottle"

    def test_wrong_input_rejected(self, t_1_10):
        with pytest.raises(NotTruncation):
            build_3464_from_312sq(t_1_10)


class TestDiagonalization:
    def test_expansion_output(self):
        big = build_3464_from_312sq(truncate(series("6^3", "torus", 7)))
        out = subdivide_3464_to_346(big)
        assert out.n_vertices == big.n_vertices
        assert is_semi_equivelar(out) == FaceSeqType((3, 3, 3, 3, 6))

    def test_on_18_vertex_fixture(self, atlas):
        out = subdivide_3464_to_346(atlas["T_1_18__3-4-6-4"])
        assert is_semi_equivelar(out) == FaceSeqType((3, 3, 3, 3, 6))
        assert find_isomorphism(out, atlas["T_1_18__3-3-3-3-6"]) is not None

    def test_wrong_input_rejected(self, t_1_10):
        with pytest.raises(NoConsistentDiagonalization):
            subdivide_3464_to_346(t_1_10)


class TestDoubleCover:
    def test_first_klein_map(self, k_1_10, atlas):
        cover, proj = double_cover(k_1_10)
        assert cover.n_vertices == 20
        assert is_orientable(cover)
        assert euler_characteristic(cover) == 0
        assert is_semi_equivelar(cover) == FaceSeqType((3, 3, 3, 4, 4))
        assert verify_covering(cover, k_1_10, proj)
        assert find_isomorphism(cover, atlas["T_1_20__3-3-3-4-4"]) is not None

    def test_orientable_rejected(self, t_1_10):
        with pytest.raises(AlreadyOrientable):
            double_cover(t_1_10)

    def test_projective_plane_rejected(self, rp2):
        with pytest.raises(NotFlat):
            double_cover(rp2)

    def test_projection_is_local_isomorphism(self, atlas):
        base = atlas["K_1_18__3-4-6-4"]
        cover, proj = double_cover(base)
        assert verify_covering(cover, base, proj)
        for w in range(cover.n_vertices):
            assert cover.degree(w) == base.degree(proj[w])

    def test_verify_rejects_junk(self, t_1_10, k_1_10):
        assert not verify_covering(t_1_10, k_1_10, {i: i for i in range(10)})
        cover, proj = double_cover(k_1_10)
        bad = dict(proj)
        bad[0], bad[1] = bad[1], bad[0]
        # swapping two fibre members may or may not stay a covering; breaking
        # a fibre definitely must fail
        bad2 = dict(proj)
        bad2[0] = (bad2[0] + 1) % 10
        assert not verify_covering(cover, k_1_10, bad2)


class TestChiAdditivity:
    def test_operators_preserve_flatness(self):
        m = series("4^4", "torus", 8, twist=-4)
        for out in (
            dual(m), truncate(m),
            subdivide_layer_diagonals(m),
            subdivide_alternate_diagonals(m),
            subdivide_to_3636(m),
        ):
            assert euler_characteristic(out) == 0


class TestFaceBudgets:
    def test_subdivision_outputs_match_forced_counts(self):
        from sematlas.enumeration import face_counts

        outputs = [
            (subdivide_layer_diagonals(series("4^4", "torus", 7)),
             FaceSeqType((3, 3, 3, 4, 4))),
            (subdivide_alternate_diagonals(series("4^4", "torus", 8, twist=-4)),
             FaceSeqType((3, 3, 4, 3, 4))),
            (subdivide_to_3636(series("4^4", "torus", 6)),
             FaceSeqType((3, 6, 3, 6))),
        ]
        for m, t in outputs:
            sizes = {}
            for f in m.faces:
                sizes[len(f)] = sizes.get(len(f), 0) + 1
            assert sizes == face_counts(t, m.n_vertices)
            assert 2 * m.n_edges == m.n_vertices * t.degree
