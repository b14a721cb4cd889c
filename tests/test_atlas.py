import pytest

from sematlas.atlas import (
    CLASSIFICATION_IDS,
    DOUBLE_COVER_PAIRS,
    UnknownFixture,
    fixture_catalog,
    load_fixture,
)
from sematlas.classify import canonical_form
from sematlas.core import FaceSeqType, euler_characteristic, is_semi_equivelar, surface_id


def test_catalog_size():
    entries = fixture_catalog()
    assert len(entries) == 21
    small = [e for e in entries if e.n <= 15]
    assert len(small) == 11  # the complete census below 16 vertices
    reps = [e for e in entries if e.id in CLASSIFICATION_IDS]
    assert len(reps) == 15  # the classification representatives below 21


def test_every_entry_validates_and_matches_metadata(atlas, catalog):
    for fid, m in atlas.items():
        e = catalog[fid]
        assert m.n_vertices == e.n
        assert is_semi_equivelar(m) == e.type
        assert surface_id(m).name == e.surface
        assert euler_characteristic(m) == 0


def test_ids_name_surface_and_size(atlas, catalog):
    for fid, e in catalog.items():
        assert fid.startswith(("T_", "K_"))
        assert e.surface == ("torus" if fid.startswith("T_") else "klein_bottle")


def test_unknown_id():
    with pytest.raises(UnknownFixture):
        load_fixture("T_9_99__5-5-5")
    # ids come from the manifest, not from the file system
    with pytest.raises(UnknownFixture):
        load_fixture("../data/T_1_10__3-3-3-4-4")


def test_double_entry_against_printed_links(atlas, t_1_10, k_1_10):
    # the two 10-vertex maps were independently encoded from their printed
    # vertex links; the figure transcriptions must agree label for label
    assert atlas["T_1_10__3-3-3-4-4"] == t_1_10
    assert atlas["K_1_10__3-3-3-4-4"] == k_1_10


def test_stated_identity_correspondence_for_kagome_square_map(atlas):
    # the by-hand construction of the 12-vertex (3,3,4,3,4) map states an
    # identity vertex correspondence; its opening links must embed verbatim
    from sematlas.core import canonical_face

    m = atlas["K_1_12__3-3-4-3-4"]
    keys = {canonical_face(f) for f in m.faces}
    for face in [(0, 1, 2), (0, 4, 5), (0, 1, 7), (2, 8, 3), (2, 8, 9),
                 (0, 2, 3, 4), (0, 5, 6, 7), (2, 1, 6, 9)]:
        assert canonical_face(face) in keys, face


def test_canonical_forms_unique_within_cells(atlas, catalog):
    cells = {}
    for fid, e in catalog.items():
        cells.setdefault((e.type, e.n), []).append(fid)
    for (_t, _n), ids in cells.items():
        forms = {canonical_form(atlas[i]).form for i in ids}
        assert len(forms) == len(ids)


def test_cover_pairs_census():
    bases = {b for b, _c in DOUBLE_COVER_PAIRS}
    assert len(DOUBLE_COVER_PAIRS) == 6
    assert all(b.startswith("K_") for b in bases)


def test_cover_types_match_bases(atlas):
    for base_id, cover_id in DOUBLE_COVER_PAIRS:
        base, cover = atlas[base_id], atlas[cover_id]
        assert cover.n_vertices == 2 * base.n_vertices
        assert is_semi_equivelar(cover) == is_semi_equivelar(base)
