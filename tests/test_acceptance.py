"""Acceptance suite: one test per criterion, run as

    pytest tests/test_acceptance.py -v

so every criterion reports its own pass/fail line.  Two narrowly-scoped
sub-assertions are expected to fail and are isolated in their own tests:
the printed coefficient list for the first 14-vertex torus map and the
stated projection formula for the 24-vertex double cover of the second
12-vertex Klein map are both internally impossible (details in the test
docstrings); every computable fact around them is asserted in the green
tests alongside.
"""

import json

import pytest

from sematlas import semmap
from sematlas.atlas import CLASSIFICATION_IDS, DOUBLE_COVER_PAIRS, load_fixture
from sematlas.classify import canonical_form, edge_graph_char_poly, find_isomorphism
from sematlas.cli import main
from sematlas.constructions import (
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
    euler_characteristic,
    is_orientable,
    is_semi_equivelar,
    surface_id,
    validate,
)
from sematlas.enumeration import enumerate_sems, min_vertices_gate

from oracles import brute_force_systole
from test_core import MALFORMED_CORPUS

T334 = FaceSeqType((3, 3, 3, 4, 4))
T33434 = FaceSeqType((3, 3, 4, 3, 4))


def test_criterion_1_exhaustive_counts_for_the_two_small_types():
    """Counts 0/2/5/3 with orientable splits 0+0, 1+1, 3+2, 2+1 for the
    (3,3,3,4,4) cells, and 0/0/1/0 for (3,3,4,3,4)."""
    want = {8: (0, 0, 0), 10: (2, 1, 1), 12: (5, 3, 2), 14: (3, 2, 1)}
    for n, (total, orient, non) in want.items():
        maps = enumerate_sems(T334, n)
        got_orient = sum(1 for m in maps if is_orientable(m))
        assert (len(maps), got_orient, len(maps) - got_orient) == (total, orient, non)
    for n, total in {8: 0, 10: 0, 12: 1, 14: 0}.items():
        assert len(enumerate_sems(T33434, n)) == total
    print("criterion 1: PASS")


def test_criterion_2_census_below_sixteen_vertices(atlas):
    """Exactly 11 pairwise non-isomorphic maps on <= 15 vertices over the
    two types, 6 orientable + 5 non-orientable, each certified isomorphic
    to its named atlas entry."""
    found = []
    for t in (T334, T33434):
        for n in min_vertices_gate(t, 15):
            found.extend(enumerate_sems(t, n))
    assert len(found) == 11
    orient = sum(1 for m in found if is_orientable(m))
    assert (orient, len(found) - orient) == (6, 5)
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert find_isomorphism(a, b) is None
    named = {fid: atlas[fid] for fid in CLASSIFICATION_IDS
             if atlas[fid].n_vertices <= 15}
    assert len(named) == 11
    matched = set()
    for m in found:
        hits = [fid for fid, fm in named.items()
                if fm.n_vertices == m.n_vertices and find_isomorphism(m, fm)]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == set(named)
    print("criterion 2: PASS")


def test_criterion_3_census_to_twenty_vertices(atlas):
    """The larger types' cells, the infeasibility gates, and the running
    total of 15 maps (9 orientable + 6 non-orientable)."""
    cells = {
        (FaceSeqType((3, 4, 6, 4)), 12): (0, 0),
        (FaceSeqType((3, 4, 6, 4)), 18): (2, 1),
        (FaceSeqType((4, 8, 8)), 16): (0, 0),
        (FaceSeqType((4, 8, 8)), 20): (1, 1),
        (FaceSeqType((3, 3, 3, 3, 6)), 12): (0, 0),
        (FaceSeqType((3, 3, 3, 3, 6)), 18): (1, 1),
    }
    big = []
    for (t, n), (total, orient) in cells.items():
        maps = enumerate_sems(t, n)
        assert len(maps) == total, (t, n)
        assert sum(1 for m in maps if is_orientable(m)) == orient, (t, n)
        big.extend(maps)
    kagome = FaceSeqType((3, 6, 3, 6))
    feasible = min_vertices_gate(kagome, 20)
    assert list(feasible) == [12, 15, 18]
    for n in feasible:
        assert enumerate_sems(kagome, n) == []
    assert list(min_vertices_gate(FaceSeqType((3, 12, 12)), 20)) == []
    assert list(min_vertices_gate(FaceSeqType((4, 6, 12)), 20)) == []

    # completeness: the four larger atlas entries appear among the outputs
    for fid in ("T_1_18__3-4-6-4", "K_1_18__3-4-6-4", "T_1_20__4-8-8",
                "T_1_18__3-3-3-3-6"):
        fm = atlas[fid]
        assert any(m.n_vertices == fm.n_vertices and find_isomorphism(m, fm)
                   for m in big), fid

    small = []
    for t in (T334, T33434):
        for n in min_vertices_gate(t, 15):
            small.extend(enumerate_sems(t, n))
    total = small + big
    orient = sum(1 for m in total if is_orientable(m))
    assert (len(total), orient, len(total) - orient) == (15, 9, 6)
    print("criterion 3: PASS")


# reference coefficient lists the atlas entries are checked against,
# keyed by ascending degree (constant term first)
PRINTED_POLYS = {
    "T_1_12__3-3-3-4-4": {12: 1, 10: -30, 9: -24, 8: 237, 7: 192, 6: -708,
                          5: -408, 4: 708, 3: 208, 2: -240},
    "T_2_12__3-3-3-4-4": {12: 1, 10: -30, 9: -32, 8: 237, 7: 360, 6: -484,
                          5: -696, 4: 516, 3: 368, 2: -240},
    "K_1_12__3-3-3-4-4": {12: 1, 10: -30, 9: -24, 8: 243, 7: 192, 6: -868,
                          5: -528, 4: 1527, 3: 576, 2: -1278, 1: -216, 0: 405},
    "K_2_12__3-3-3-4-4": {12: 1, 10: -30, 9: -32, 8: 235, 7: 368, 6: -452,
                          5: -784, 4: 359, 3: 592, 2: -158, 1: -144, 0: 45},
    "T_2_14__3-3-3-4-4": {14: 1, 12: -35, 11: -28, 10: 399, 9: 420, 8: -2107,
                          7: -2384, 6: 5544, 5: 6244, 4: -6790, 3: -7112,
                          2: 3157, 1: 2184, 0: -845},
}

PRINTED_T_1_14 = {14: 1, 12: -34, 11: -30, 10: 344, 9: 467, 8: -1179,
                  7: -2119, 6: 597, 5: 2264, 4: 632, 3: -559, 2: -365,
                  1: -74, 0: -5}


def _coeff_dict(m):
    return {k: c for k, c in enumerate(edge_graph_char_poly(m).coefficients) if c}


def test_criterion_4_characteristic_polynomials(atlas):
    """Five of the six printed coefficient lists match exactly; the
    recomputed seventh polynomial is pairwise distinct from all others."""
    for fid, want in PRINTED_POLYS.items():
        assert _coeff_dict(atlas[fid]) == want, fid
    polys = {fid: tuple(edge_graph_char_poly(atlas[fid]).coefficients)
             for fid in list(PRINTED_POLYS) +
             ["T_3_12__3-3-3-4-4", "T_1_14__3-3-3-4-4"]}
    t312 = polys["T_3_12__3-3-3-4-4"]
    assert all(t312 != p for fid, p in polys.items()
               if fid != "T_3_12__3-3-3-4-4")
    print("criterion 4 (attainable part): PASS")


@pytest.mark.source_defect
def test_criterion_4_t_1_14_printed_polynomial_exact(atlas):
    """EXPECTED TO FAIL: the printed T_1_14 list is not the characteristic
    polynomial of any 14-vertex degree-5 map.

    Its x^12 coefficient reads -34, but that coefficient always equals
    minus the edge count, here -35, for every graph of this degree
    sequence.  The fixture provably is the intended map (its faces embed
    label-for-label under the correspondence stated for the search branch
    that produces it), and the recomputed polynomial is asserted in
    test_t_1_14_recomputed_polynomial.  See the decisions ledger.
    """
    assert _coeff_dict(atlas["T_1_14__3-3-3-4-4"]) == PRINTED_T_1_14


def test_t_1_14_recomputed_polynomial(atlas):
    got = _coeff_dict(atlas["T_1_14__3-3-3-4-4"])
    assert got == {14: 1, 12: -35, 11: -28, 10: 371, 9: 448, 8: -1407,
                   7: -2160, 6: 1288, 5: 2800, 4: 266, 3: -980, 2: -483,
                   1: -84, 0: -5}
    assert got[12] == -atlas["T_1_14__3-3-3-4-4"].n_edges


def test_criterion_5_construction_coherence(atlas):
    """Every series operator yields a validated flat map of the stated
    type; at overlapping sizes the outputs land in the enumeration."""
    t44 = equivelar_series(SeriesParams("4^4", "torus", 7))
    layer = subdivide_layer_diagonals(t44)
    alt = subdivide_alternate_diagonals(
        equivelar_series(SeriesParams("4^4", "torus", 8, twist=-4)))
    kag = subdivide_to_3636(equivelar_series(SeriesParams("4^4", "torus", 6)))
    trunc44 = truncate(t44)
    t63 = equivelar_series(SeriesParams("6^3", "torus", 7))
    t312 = truncate(t63)
    t3464 = build_3464_from_312sq(t312)
    t346 = subdivide_3464_to_346(t3464)
    t4612 = truncate(kag)
    klein63 = dual(equivelar_series(SeriesParams("3^6", "klein", 3)))

    stated = [
        (layer, (3, 3, 3, 4, 4)),
        (alt, (3, 3, 4, 3, 4)),
        (kag, (3, 6, 3, 6)),
        (trunc44, (4, 8, 8)),
        (t312, (3, 12, 12)),
        (t3464, (3, 4, 6, 4)),
        (t346, (3, 3, 3, 3, 6)),
        (t4612, (4, 6, 12)),
        (klein63, (6, 6, 6)),
    ]
    for m, sizes in stated:
        assert euler_characteristic(m) == 0
        assert is_semi_equivelar(m) == FaceSeqType(sizes)

    # overlapping sizes: the 14-vertex subdivision output is one of the
    # enumerated maps, and diagonalizing the 18-vertex (3,4,6,4) map gives
    # the enumerated 18-vertex (3^4,6) map
    cell14 = enumerate_sems(T334, 14)
    assert sum(1 for m in cell14 if find_isomorphism(layer, m)) == 1
    small346 = subdivide_3464_to_346(atlas["T_1_18__3-4-6-4"])
    cell18 = enumerate_sems(FaceSeqType((3, 3, 3, 3, 6)), 18)
    assert sum(1 for m in cell18 if find_isomorphism(small346, m)) == 1
    assert find_isomorphism(small346, atlas["T_1_18__3-3-3-3-6"]) is not None
    print("criterion 5: PASS")


def test_criterion_6_double_covers(atlas):
    """The intrinsic double cover of each of the six non-orientable maps
    verifies as a covering and is isomorphic to its drawn counterpart;
    five of the six stated projection formulas verify directly."""
    for base_id, cover_id in DOUBLE_COVER_PAIRS:
        base, fixture = atlas[base_id], atlas[cover_id]
        cover, proj = double_cover(base)
        assert verify_covering(cover, base, proj), base_id
        assert is_orientable(cover) and euler_characteristic(cover) == 0
        assert is_semi_equivelar(cover) == is_semi_equivelar(base)
        assert find_isomorphism(cover, fixture) is not None, cover_id
    for base_id, cover_id in DOUBLE_COVER_PAIRS:
        if cover_id == "T_1_24__3-3-3-4-4":
            continue  # see test_criterion_6_stated_beta_projection
        base, fixture = atlas[base_id], atlas[cover_id]
        n = base.n_vertices
        stated = {i: i % n for i in range(2 * n)}
        assert verify_covering(fixture, base, stated), (base_id, cover_id)
    print("criterion 6 (attainable part): PASS")


@pytest.mark.source_defect
def test_criterion_6_stated_beta_projection(atlas):
    """EXPECTED TO FAIL: the stated projection {i, i+12} -> v_i from the
    24-vertex cover to the second 12-vertex Klein map contradicts the two
    drawings' printed labels.

    The cover fixture IS a double cover of the base (certified above),
    but none of its 24 covering projections has fibers {i, i+12}: the
    nearest one differs by a swapped 18/19 label pair in the cover figure
    and a reversed middle row against the base labels.  See the ledger.
    """
    base = atlas["K_1_12__3-3-3-4-4"]
    fixture = atlas["T_1_24__3-3-3-4-4"]
    stated = {i: i % 12 for i in range(24)}
    assert verify_covering(fixture, base, stated)


def test_criterion_7_oracle_and_property_suites(atlas):
    """Canonical-form equality iff isomorphism on all small fixture pairs;
    systole equals exhaustive-cycle brute force at <= 16 vertices; the
    twenty malformed inputs each raise their named diagnostic."""
    small = sorted(fid for fid, m in atlas.items() if m.n_vertices <= 14)
    forms = {fid: canonical_form(atlas[fid]).form for fid in small}
    for i, a in enumerate(small):
        for b in small[i + 1:]:
            assert ((forms[a] == forms[b])
                    == (find_isomorphism(atlas[a], atlas[b]) is not None))

    from sematlas.classify import homological_systole
    checked = 0
    for fid, m in sorted(atlas.items()):
        if m.n_vertices <= 16:
            assert homological_systole(m) == brute_force_systole(m), fid
            checked += 1
    extra = subdivide_alternate_diagonals(
        equivelar_series(SeriesParams("4^4", "torus", 8, twist=-4)))
    assert homological_systole(extra) == brute_force_systole(extra)
    assert checked == 11

    assert len(MALFORMED_CORPUS) == 20
    for faces, n, expected in MALFORMED_CORPUS:
        with pytest.raises(expected):
            validate(faces, n)
    print("criterion 7: PASS")


def test_criterion_8_determinism(tmp_path, capsys):
    """Two single-threaded classify runs produce byte-identical artifacts;
    a parallel run, with the default --jobs, produces the same canonical
    set."""
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        code = main(["classify", "--max-vertices", "15", "--types", "all",
                     "--out", str(outdir), "--jobs", "1", "--format", "json"])
        assert code == 0
        outs.append((capsys.readouterr().out,
                     {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))}))
    assert outs[0] == outs[1]

    outdir = tmp_path / "par"
    code = main(["classify", "--max-vertices", "15", "--types", "all",
                 "--out", str(outdir), "--format", "json"])
    assert code == 0
    par_blob = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))}
    assert par_blob == outs[0][1]

    report = json.loads(outs[0][0])
    for row in report["rows"]:
        assert row["total"] == row["orientable"] + row["non_orientable"]
    print("criterion 8: PASS")
