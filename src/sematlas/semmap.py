"""Reading and writing maps in the "semmap v1" text format.

Layout (UTF-8, LF line endings)::

    semmap 1
    vertices <n>
    face <v0> <v1> ... <vk-1>

Lines starting with ``#`` are comments.  ``# tag: <json>`` comments carry
construction metadata and round-trip through parse/serialize.  Canonical
serialization writes every face in its least rotation/reflection and sorts
the face lines, so isomorphic storage of the same labeled map is unique.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .core import PolyhedralMap, _natural, canonical_face, validate


class SemmapFormatError(ValueError):
    pass


def parse(text: str) -> PolyhedralMap:
    """Parse semmap v1 text into a validated map."""
    lines = text.splitlines()
    tags = {}
    body = []
    for ln in lines:
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comment = stripped[1:].strip()
            if comment.startswith("tag:"):
                try:
                    tag = json.loads(comment[4:].strip())
                except json.JSONDecodeError as exc:
                    raise SemmapFormatError(f"bad tag comment: {comment}") from exc
                if not isinstance(tag, dict):
                    raise SemmapFormatError(f"tag comment is not a JSON object: {comment}")
                tags.update(tag)
            continue
        body.append(stripped)
    if not body or body[0].split() != ["semmap", "1"]:
        raise SemmapFormatError("missing 'semmap 1' header")
    header = body[1].split() if len(body) > 1 else []
    if not header or header[0] != "vertices":
        raise SemmapFormatError("missing 'vertices <n>' line")
    try:
        (count,) = header[1:]
        n = _natural(count)
    except ValueError as exc:
        raise SemmapFormatError(f"bad vertices line: {body[1]!r}") from exc
    faces = []
    for ln in body[2:]:
        parts = ln.split()
        if parts[0] != "face":
            raise SemmapFormatError(f"unexpected line: {ln!r}")
        try:
            faces.append(tuple(_natural(p) for p in parts[1:]))
        except ValueError as exc:
            raise SemmapFormatError(f"bad vertex label in: {ln!r}") from exc
    return validate(faces, n, tags=tags or None)


def serialize(m: PolyhedralMap, comment: str = "") -> str:
    """Canonical semmap v1 text for ``m``."""
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    if m.tags:
        out.append("# tag: " + json.dumps(m.tags, sort_keys=True, separators=(",", ":")))
    out.append("semmap 1")
    out.append(f"vertices {m.n_vertices}")
    for face in sorted(canonical_face(f) for f in m.faces):
        out.append("face " + " ".join(str(v) for v in face))
    return "\n".join(out) + "\n"


def load(path: Union[str, Path]) -> PolyhedralMap:
    """The map in the semmap file at ``path``; OSError when the file
    cannot be read or is not UTF-8."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def save(m: PolyhedralMap, path: Union[str, Path], comment: str = "") -> None:
    Path(path).write_text(serialize(m, comment=comment), encoding="utf-8")
