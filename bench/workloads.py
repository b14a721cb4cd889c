"""The benchmark's three workloads and the checks on their outputs.

A workload is set up once (input preparation, part of ``setup_s``) and then
repeated.  ``run()`` is the timed repetition: it only calls into sematlas and
keeps what came back.  ``check(outcome, checks)`` runs after the clock stops
and compares that outcome against ``golden.json``.

Library functions are always looked up as module attributes at call time,
so the rebinding done by ``layers.Recorder`` sees the benchmark's calls too.

* census-20: ``sematlas classify --max-vertices 20 --types all --format json
  --out DIR`` in-process.  The ROADMAP's end-to-end job; search and
  ``canonical_form`` each carry about half of it, on 90 small maps.
* search-22: ``enumerate_sems`` for type (3,3,4,3,4) on 22 vertices.  Pure
  backtracking with zero completed maps, so ``canonical_form``, dedupe and
  validation do no work: a search change shows here, a ``canonical_form``
  change must not.
* invariants-large: eleven constructed maps of 14 to 60 vertices, each
  built, round-tripped through semmap and measured (canonical form of it and
  of a seeded relabeling, the isomorphism between them, vertex-transitivity,
  systole, characteristic polynomials, type and surface).  The same
  ``canonical_form`` layer on a few large maps instead of many small ones,
  plus the construction layer, with no search at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

from sematlas import atlas, classify, cli, constructions, core, enumeration, semmap

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class Checks:
    """Counts checks made and failed; failures are described on stderr."""

    def __init__(self, log=None):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.log is not None:
                print(f"check failed: {what}", file=self.log)
        return ok


def artifact_digest(report: str, outdir: Path) -> str:
    """SHA-256 over the JSON report, then each written file by name."""
    h = hashlib.sha256(report.encode("utf-8"))
    for path in sorted(outdir.iterdir()):
        h.update(b"\0" + path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _row_key(row: dict) -> list:
    return [row["type"], row["n"], row["total"], row["orientable"],
            row["non_orientable"], row["infeasible_reason"]]


class Census:
    """``classify --max-vertices N --types all --format json --out DIR``."""

    def __init__(self, workdir: Path, max_vertices: int, golden: dict):
        self.workdir = workdir
        self.argv = ["classify", "--max-vertices", str(max_vertices),
                     "--types", "all", "--format", "json"]
        self.golden = golden

    def run(self):
        outdir = Path(tempfile.mkdtemp(prefix="census-", dir=self.workdir))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv + ["--out", str(outdir)])
        return rc, buf.getvalue(), outdir

    def check(self, outcome, checks: Checks) -> None:
        rc, report, outdir = outcome
        try:
            checks.check(rc == 0, f"classify exit code {rc}")
            try:
                rows = [_row_key(r) for r in json.loads(report)["rows"]]
            except (ValueError, KeyError, TypeError) as exc:
                checks.check(False, f"classify report unreadable: {exc}")
                return
            want = self.golden["rows"]
            checks.check(len(rows) == len(want),
                         f"{len(rows)} report rows, golden has {len(want)}")
            for got, exp in zip(rows, want):
                checks.check(got == exp, f"cell row {got} != golden {exp}")
            total = sum(r[2] for r in rows)
            checks.check(total == self.golden["total"],
                         f"{total} classes, golden {self.golden['total']}")
            digest = artifact_digest(report, outdir)
            checks.check(digest == self.golden["sha256"],
                         f"artifact digest {digest} != golden {self.golden['sha256']}")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


class Search:
    """``enumerate_sems`` on one cell."""

    def __init__(self, sizes: tuple[int, ...], n: int, golden_maps: int):
        self.type = core.FaceSeqType(sizes)
        self.n = n
        self.golden_maps = golden_maps

    def run(self):
        return enumeration.enumerate_sems(self.type, self.n)

    def check(self, maps, checks: Checks) -> None:
        checks.check(len(maps) == self.golden_maps,
                     f"{self.type} n={self.n}: {len(maps)} maps, "
                     f"golden {self.golden_maps}")


def _series(family: str, surface: str, n: int):
    return constructions.equivelar_series(constructions.SeriesParams(family, surface, n))


def _cover(family: str, n: int):
    base = _series(family, "klein", n)
    cover, proj = constructions.double_cover(base)
    return cover, (base, proj)


#: name -> (vertex count, builder).  A builder returns the map and, for
#: double covers, the base and projection that ``verify_covering`` checks.
#: The 168- and 216-vertex derived maps take 26 to 43 s each and stay out.
RECIPES = {
    "torus-4^4-7": (14, lambda: (_series("4^4", "torus", 7), None)),
    "torus-4^4-15": (30, lambda: (_series("4^4", "torus", 15), None)),
    "torus-4^4-30": (60, lambda: (_series("4^4", "torus", 30), None)),
    "torus-3^6-15": (30, lambda: (_series("3^6", "torus", 15), None)),
    "torus-6^3-15": (30, lambda: (_series("6^3", "torus", 15), None)),
    "truncate-torus-4^4-7": (
        56, lambda: (constructions.truncate(_series("4^4", "torus", 7)), None)),
    "3636-torus-4^4-6": (
        36, lambda: (constructions.subdivide_to_3636(_series("4^4", "torus", 6)), None)),
    "346-T_1_18__3-4-6-4": (
        18, lambda: (constructions.subdivide_3464_to_346(
            atlas.load_fixture("T_1_18__3-4-6-4")), None)),
    "cover-klein-4^4-5": (30, lambda: _cover("4^4", 5)),
    "cover-klein-3^6-5": (30, lambda: _cover("3^6", 5)),
    "dual-torus-3^6-10": (
        40, lambda: (constructions.dual(_series("3^6", "torus", 10)), None)),
}


def face_key(face) -> tuple[int, ...]:
    """Least rotation or reflection of a face (the benchmark's own copy)."""
    k = len(face)
    forms = []
    for seq in (tuple(face), tuple(reversed(face))):
        forms += [seq[i:] + seq[:i] for i in range(k)]
    return min(forms)


def certified(a, b, mapping) -> bool:
    """Whether ``mapping`` carries the face set of ``a`` onto that of ``b``."""
    if sorted(mapping) != list(range(b.n_vertices)):
        return False
    image = sorted(face_key([mapping[v] for v in f]) for f in a.faces)
    return image == sorted(face_key(f) for f in b.faces)


class Invariants:
    """Build each recipe's map and compute its invariants."""

    def __init__(self, seed: int, names, golden: dict):
        rng = random.Random(seed)
        self.jobs = []
        for name in names:
            n, build = RECIPES[name]
            perm = list(range(n))
            rng.shuffle(perm)
            self.jobs.append((name, build, perm))
        self.golden = golden

    def run(self):
        out = []
        for name, build, perm in self.jobs:
            m, cover_of = build()
            text = semmap.serialize(m)
            other = m.relabel(perm)
            out.append({
                "name": name,
                "map": m,
                "other": other,
                "round_trip": semmap.parse(text),
                "forms": (classify.canonical_form(m).form,
                          classify.canonical_form(other).form),
                "iso": classify.find_isomorphism(m, other),
                "vertex_transitive": classify.is_vertex_transitive(m),
                "systole": classify.homological_systole(m),
                "polys": (classify.edge_graph_char_poly(m).coefficients,
                          classify.edge_graph_char_poly(other).coefficients),
                "type": core.is_semi_equivelar(m),
                "surface": core.surface_id(m).name,
                "covering": (None if cover_of is None else
                             constructions.verify_covering(m, *cover_of)),
            })
        return out

    def check(self, results, checks: Checks) -> None:
        for r in results:
            name, m = r["name"], r["map"]
            gold = self.golden[name]
            checks.check(r["round_trip"] == m, f"{name}: semmap round trip differs")
            checks.check(r["forms"][0] == r["forms"][1],
                         f"{name}: canonical form changed under relabeling")
            checks.check(r["polys"][0] == r["polys"][1],
                         f"{name}: characteristic polynomial changed under relabeling")
            iso = r["iso"]
            checks.check(iso is not None and certified(m, r["other"], iso.mapping),
                         f"{name}: no certified isomorphism to the relabeling")
            if r["covering"] is not None:
                checks.check(r["covering"], f"{name}: verify_covering rejected the cover")
            got = {
                "n": m.n_vertices,
                "type": None if r["type"] is None else ",".join(map(str, r["type"].sizes)),
                "surface": r["surface"],
                "systole": r["systole"],
                "vertex_transitive": r["vertex_transitive"],
            }
            for key, want in gold.items():
                checks.check(got[key] == want, f"{name}: {key} {got[key]!r} != golden {want!r}")


def make(workload: str, workdir: Path, seed: int, golden: dict):
    """The named workload at full size.  Only invariants-large uses the seed."""
    if workload == "census-20":
        return Census(workdir, 20, golden["census-20"])
    if workload == "search-22":
        return Search((3, 3, 4, 3, 4), 22, golden["search-22"]["maps"])
    if workload == "invariants-large":
        return Invariants(seed, list(RECIPES), golden["invariants"])
    raise KeyError(workload)


NAMES = ("census-20", "search-22", "invariants-large")
