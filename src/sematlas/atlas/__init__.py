"""The reference atlas: every named small map, shipped as semmap files.

Entries cover the eleven maps on at most 15 vertices, the four further
maps on 18 and 20 vertices, and the six orientation double covers, all
hand-transcribed from fundamental-polygon diagrams and cross-checked
against the exhaustive enumeration.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from ..core import FaceSeqType, PolyhedralMap, SematlasError
from .. import semmap


class UnknownFixture(SematlasError, KeyError):
    pass


class FixtureEntry(NamedTuple):
    id: str
    type: FaceSeqType
    surface: str
    n: int
    provenance: str


def _data_root() -> Path:
    return Path(__file__).parent / "data"


def _manifest() -> dict:
    with (_data_root() / "manifest.json").open(encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def fixture_catalog() -> list[FixtureEntry]:
    """All atlas entries, id-sorted."""
    entries = []
    for fid, meta in sorted(_manifest().items()):
        entries.append(FixtureEntry(
            id=fid,
            type=FaceSeqType.parse(meta["type"]),
            surface=meta["surface"],
            n=int(meta["n"]),
            provenance=meta["provenance"],
        ))
    return entries


def load_fixture(fixture_id: str) -> PolyhedralMap:
    """The validated map behind an atlas id such as 'T_1_10__3-3-3-4-4'."""
    manifest = _manifest()
    if fixture_id not in manifest:
        known = ", ".join(sorted(manifest))
        raise UnknownFixture(f"{fixture_id!r}; known ids: {known}")
    return semmap.load(_data_root() / f"{fixture_id}.map")


#: ids of the six non-orientable maps and their orientation double covers
DOUBLE_COVER_PAIRS = (
    ("K_1_10__3-3-3-4-4", "T_1_20__3-3-3-4-4"),
    ("K_1_12__3-3-3-4-4", "T_1_24__3-3-3-4-4"),
    ("K_2_12__3-3-3-4-4", "T_2_24__3-3-3-4-4"),
    ("K_1_14__3-3-3-4-4", "T_1_28__3-3-3-4-4"),
    ("K_1_12__3-3-4-3-4", "T_24__3-3-4-3-4"),
    ("K_1_18__3-4-6-4", "T_1_36__3-4-6-4"),
)

#: ids of the classification representatives on at most 20 vertices
CLASSIFICATION_IDS = (
    "T_1_10__3-3-3-4-4", "K_1_10__3-3-3-4-4",
    "T_1_12__3-3-3-4-4", "T_2_12__3-3-3-4-4", "T_3_12__3-3-3-4-4",
    "K_1_12__3-3-3-4-4", "K_2_12__3-3-3-4-4",
    "T_1_14__3-3-3-4-4", "T_2_14__3-3-3-4-4", "K_1_14__3-3-3-4-4",
    "K_1_12__3-3-4-3-4",
    "T_1_18__3-4-6-4", "K_1_18__3-4-6-4",
    "T_1_20__4-8-8",
    "T_1_18__3-3-3-3-6",
)
