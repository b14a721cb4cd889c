"""Byte-level pins of the flag walks on the atlas maps.

The other tests check that results are invariant under relabeling; this one
pins the exact outputs (canonical relabelings, isomorphism mappings, fan and
link start points and senses, derived semmap texts), so a rewrite of the
flag walks must reproduce them byte for byte.
"""

import hashlib
import random

from sematlas import constructions, semmap
from sematlas.atlas import fixture_catalog, load_fixture
from sematlas.classify import canonical_form, find_isomorphism
from sematlas.core import is_orientable

GOLDEN_SHA256 = "e292dea90b71c1f927d0194c0c0e393e464543950c0f4f765a69c493e1eacaf5"


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
