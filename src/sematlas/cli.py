"""Command-line interface.

Subcommands: validate, invariants, iso, enumerate, classify, construct,
derive, cover, export, atlas.  Exit codes: 0 success, 1 domain failure
(invalid map, nothing found), 2 usage or I/O error.  The SEM_ATLAS_BUDGET
environment variable caps search nodes for the enumeration commands.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from . import semmap
from .core import (
    FaceSeqType,
    InvalidMapError,
    _natural,
    euler_characteristic,
    is_orientable,
    is_semi_equivelar,
    surface_id,
)
from .classify import (
    NotFlat,
    edge_graph_char_poly,
    find_isomorphism,
    homological_systole,
    is_vertex_transitive,
)
from .enumeration import (
    ALL_FLAT_TYPES,
    BadBudget,
    BudgetExceeded,
    ReportRow,
    SearchTooDeep,
    classify_all,
    enumerate_sems,
    usable_cpus,
)
from . import constructions as cons
from .export import SvgUnsupported, to_dot, to_svg

JSON_SCHEMA = "sematlas/1"


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_or_report(path):
    """The map at ``path``, or None once its ``INVALID:`` line is printed."""
    try:
        return semmap.load(path)
    except (InvalidMapError, semmap.SemmapFormatError) as exc:
        print(f"INVALID: {type(exc).__name__}: {exc}")
        return None


def cmd_validate(args) -> int:
    m = _load_or_report(args.path)
    if m is None:
        return 1
    print(f"OK: {m.n_vertices} vertices, {m.n_edges} edges, {m.n_faces} faces")
    return 0


def _invariant_report(m) -> dict:
    sizes = {}
    for f in m.faces:
        sizes[len(f)] = sizes.get(len(f), 0) + 1
    t = is_semi_equivelar(m)
    sid = surface_id(m)
    poly = edge_graph_char_poly(m)
    try:
        systole = homological_systole(m)
    except NotFlat:
        systole = None
    return {
        "schema": JSON_SCHEMA,
        "vertices": m.n_vertices,
        "edges": m.n_edges,
        "faces_by_size": {str(k): v for k, v in sorted(sizes.items())},
        "euler_characteristic": euler_characteristic(m),
        "orientable": sid.orientable,
        "surface": sid.name,
        "semi_equivelar_type": (",".join(map(str, t.sizes)) if t else None),
        "char_poly_coefficients": list(poly.coefficients),
        "char_poly": str(poly),
        "homological_systole": systole,
        "vertex_transitive": is_vertex_transitive(m),
    }


def cmd_invariants(args) -> int:
    m = _load_or_report(args.path)
    if m is None:
        return 1
    rep = _invariant_report(m)
    if args.json:
        print(json.dumps(rep, indent=1, sort_keys=True))
        return 0
    print(f"vertices            {rep['vertices']}")
    print(f"edges               {rep['edges']}")
    print("faces by size       "
          + " ".join(f"{k}-gons: {v}" for k, v in rep["faces_by_size"].items()))
    print(f"euler characteristic {rep['euler_characteristic']}")
    print(f"orientable          {rep['orientable']}")
    print(f"surface             {rep['surface']}")
    print(f"type                {rep['semi_equivelar_type'] or 'not semi-equivelar'}")
    print(f"char poly           {rep['char_poly']}")
    print(f"char poly coeffs    {rep['char_poly_coefficients']}")
    print(f"homological systole {rep['homological_systole']}")
    print(f"vertex transitive   {rep['vertex_transitive']}")
    return 0


def cmd_iso(args) -> int:
    a, b = semmap.load(args.map_a), semmap.load(args.map_b)
    pin = tuple(args.pin) if args.pin else None
    try:
        iso = find_isomorphism(a, b, pin=pin)
    except ValueError as exc:
        return _usage_error(f"--pin: {exc}")
    if iso is None:
        print("not isomorphic")
        return 1
    print("isomorphic via " + " ".join(f"{i}->{j}" for i, j in enumerate(iso.mapping)))
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_types(text: str):
    if text == "all":
        return list(ALL_FLAT_TYPES)
    return [FaceSeqType.parse(part) for part in text.split(";") if part.strip()]


def cmd_enumerate(args) -> int:
    try:
        t = FaceSeqType.parse(args.type)
    except ValueError as exc:
        return _usage_error(f"--type {args.type!r}: {exc}")
    if args.n < 3:
        return _usage_error("--n must be at least 3")
    maps = enumerate_sems(t, args.n)
    print(f"{len(maps)} map(s) of type {t} on {args.n} vertices")
    if args.out:
        outdir = Path(args.out)
        row = ReportRow(t, args.n, maps, [is_orientable(m) for m in maps])
        for name in _save_cell(outdir, row):
            print(f"  wrote {outdir / (name + '.map')}")
    return 0


def _save_cell(outdir: Path, row: ReportRow) -> list[str]:
    """Save a row's maps into ``outdir`` as ``T_<i>_<n>__<type>.map`` if
    orientable, else ``K_<i>_<n>__<type>.map``, each kind numbered from 1
    in the row's order; return the names."""
    outdir.mkdir(parents=True, exist_ok=True)
    type_slug = "-".join(str(s) for s in row.type.sizes)
    names, counts = [], {"T": 0, "K": 0}
    for m, orientable in zip(row.maps, row.orientations):
        kind = "T" if orientable else "K"
        counts[kind] += 1
        name = f"{kind}_{counts[kind]}_{row.n}__{type_slug}"
        semmap.save(m, outdir / f"{name}.map", comment=name)
        names.append(name)
    return names


def cmd_classify(args) -> int:
    if args.max_vertices < 3:
        return _usage_error("--max-vertices must be at least 3")
    if args.jobs < 1:
        return _usage_error("--jobs must be at least 1")
    try:
        types = _parse_types(args.types)
    except ValueError as exc:
        return _usage_error(f"--types {args.types!r}: {exc}")
    if not types:
        return _usage_error(f"--types {args.types!r} names no type")
    rows = classify_all(args.max_vertices, types, jobs=args.jobs)
    written = {}
    if args.out:
        written = {(r.type, r.n): _save_cell(Path(args.out), r) for r in rows}
    print(_format_report(rows, args.format, written))
    return 0


def _format_report(rows, fmt: str, written) -> str:
    def type_str(t):
        return ",".join(str(s) for s in t.sizes)

    if fmt == "json":
        payload = {"schema": JSON_SCHEMA, "rows": []}
        for r in rows:
            payload["rows"].append({
                "type": type_str(r.type),
                "n": r.n,
                "total": r.total,
                "orientable": r.orientable,
                "non_orientable": r.non_orientable,
                "maps": written.get((r.type, r.n), []),
                "infeasible_reason": r.infeasible_reason,
            })
        return json.dumps(payload, indent=1, sort_keys=True)
    if fmt == "csv":
        import csv  # here, not at the top: the import costs start-up time

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["type", "n", "total", "orientable", "non_orientable",
                    "maps", "infeasible_reason"])
        for r in rows:
            w.writerow([type_str(r.type), r.n, r.total, r.orientable,
                        r.non_orientable,
                        ";".join(written.get((r.type, r.n), [])),
                        r.infeasible_reason or ""])
        return buf.getvalue()
    lines = [f"{'type':16} {'n':>3} {'maps':>5} {'orient.':>8} {'non-or.':>8}  names"]
    for r in rows:
        if r.infeasible_reason:
            lines.append(f"{type_str(r.type):16} {'-':>3} {'-':>5} {'-':>8} "
                         f"{'-':>8}  infeasible: {r.infeasible_reason}")
        else:
            lines.append(f"{type_str(r.type):16} {r.n:>3} {r.total:>5} "
                         f"{r.orientable:>8} {r.non_orientable:>8}  "
                         + " ".join(written.get((r.type, r.n), [])))
    totals = [r for r in rows if not r.infeasible_reason]
    lines.append(f"total maps: {sum(r.total for r in totals)} "
                 f"({sum(r.orientable for r in totals)} orientable, "
                 f"{sum(r.non_orientable for r in totals)} non-orientable)")
    return "\n".join(lines)


def cmd_construct(args) -> int:
    params = cons.SeriesParams(args.family, args.surface, args.n, twist=args.twist)
    m = cons.equivelar_series(params)
    return _emit(m, args)


def _emit(m, args) -> int:
    if args.verify:
        t = is_semi_equivelar(m)
        sid = surface_id(m)
        print(f"verify: type={t} surface={sid.name} "
              f"chi={euler_characteristic(m)}", file=sys.stderr)
    text = semmap.serialize(m)
    _write_text(args.out, text)
    if args.out not in (None, "-"):
        print(f"wrote {args.out} ({m.n_vertices} vertices, {m.n_faces} faces)")
    return 0


DERIVE_OPS = {
    "truncate": cons.truncate,
    "dual": cons.dual,
    "subdivide-layer": cons.subdivide_layer_diagonals,
    "subdivide-alternate": cons.subdivide_alternate_diagonals,
    "subdivide-3636": cons.subdivide_to_3636,
    "build-3464": cons.build_3464_from_312sq,
    "subdivide-3464-to-346": cons.subdivide_3464_to_346,
    "double-cover": lambda m: cons.double_cover(m)[0],
}


def cmd_derive(args) -> int:
    m = semmap.load(args.path)
    for op_name in args.ops.split(","):
        op = DERIVE_OPS.get(op_name.strip())
        if op is None:
            return _usage_error(f"unknown op {op_name!r}; known: "
                                + ", ".join(sorted(DERIVE_OPS)))
        m = op(m)
    return _emit(m, args)


def cmd_cover(args) -> int:
    m = semmap.load(args.path)
    cover, proj = cons.double_cover(m)
    if not cons.verify_covering(cover, m, proj):
        print("error: built cover failed its own covering check", file=sys.stderr)
        return 1
    fibers = {}
    for w, v in proj.items():
        fibers.setdefault(v, []).append(w)
    print("projection: " + " ".join(
        f"{{{a},{b}}}->{v}" for v, (a, b) in sorted(fibers.items())))
    return _emit(cover, args)


def cmd_export(args) -> int:
    m = semmap.load(args.path)
    if args.format == "svg":
        try:
            text = to_svg(m)
        except SvgUnsupported as exc:
            if "coords" in m.tags:
                raise  # malformed coordinates are an error, not a fallback
            print(f"warning: {exc}; falling back to DOT", file=sys.stderr)
            text = to_dot(m)
    else:
        text = to_dot(m)
    _write_text(args.out, text)
    return 0


def cmd_atlas(args) -> int:
    from .atlas import UnknownFixture, fixture_catalog, load_fixture

    if args.get:
        try:
            m = load_fixture(args.get)
        except UnknownFixture as exc:
            print(f"error: unknown atlas id {exc.args[0]}", file=sys.stderr)
            return 1
        _write_text(args.out or f"{args.get}.map", semmap.serialize(m, comment=args.get))
        if args.out != "-":
            print(f"wrote {args.out or args.get + '.map'}")
        return 0
    for e in fixture_catalog():
        print(f"{e.id:24} n={e.n:<3} {e.type}  {e.surface}")
    return 0


def _natural_arg(token: str) -> int:
    """An integer option value in ASCII digits, as in semmap files."""
    try:
        return _natural(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer_arg(token: str) -> int:
    """``_natural_arg`` with one optional leading ``-``."""
    if token.startswith("-"):
        return -_natural_arg(token[1:])
    return _natural_arg(token)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose every usage error raises ``ArgumentError``,
    which ``main`` reports in one line; ``--help`` still exits 0."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sematlas",
        description="Polyhedral maps on the torus and Klein bottle: "
                    "validation, invariants, classification, constructions.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the polyhedral-map conditions")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="print the map's invariants")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("iso", help="find an isomorphism between two maps")
    p.add_argument("map_a")
    p.add_argument("map_b")
    p.add_argument("--pin", nargs=2, type=_natural_arg, metavar=("U", "V"))
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("enumerate", help="all maps of a type and vertex count")
    p.add_argument("--type", required=True, help="expanded type, e.g. 3,3,3,4,4")
    p.add_argument("--n", required=True, type=_natural_arg)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classification table over many types")
    p.add_argument("--max-vertices", type=_natural_arg, required=True)
    p.add_argument("--types", default="all",
                   help="semicolon-separated expanded types, or 'all'")
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--jobs", type=_natural_arg, default=usable_cpus(),
                   help="processes to search the cells in (default: one "
                        "per usable CPU); capped at the usable CPUs and at "
                        "the cells")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct", help="equivelar grid series")
    p.add_argument("--family", required=True, help="3^6 | 4^4 | 6^3 (or 4x4 ...)")
    p.add_argument("--surface", required=True, help="torus | klein")
    p.add_argument("--n", required=True, type=_natural_arg)
    p.add_argument("--twist", type=_integer_arg, default=None,
                   help="vertical wrap shift for torus grids (default -3)")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("derive", help="apply an operator chain to a map")
    p.add_argument("--ops", required=True,
                   help="comma-separated: " + ",".join(sorted(DERIVE_OPS)))
    p.add_argument("path")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("cover", help="orientation double cover")
    p.add_argument("path")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("export", help="DOT or SVG drawing")
    p.add_argument("path")
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("atlas", help="list shipped reference maps or extract one")
    p.add_argument("--get", metavar="ID")
    p.add_argument("--out")
    p.set_defaults(func=cmd_atlas)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _usage_error(str(exc))
    try:
        return args.func(args)
    except (InvalidMapError, semmap.SemmapFormatError, NotFlat, BudgetExceeded,
            SearchTooDeep,
            cons.ParamOutOfRange, cons.NotGridMap, cons.ParityError,
            cons.NoConsistentDiagonalization, cons.AlreadyOrientable,
            cons.NotTruncation, SvgUnsupported) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, BadBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
