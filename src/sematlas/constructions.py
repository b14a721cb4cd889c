"""Infinite families at Euler characteristic 0 and the operators between them.

Every grid series is a quotient of a regular plane tiling.  ``_CELLS``
gives, per family and surface, one translation cell: k vertex classes, R
rows and the cell's faces as (class, dx, dy) offsets.  The map has R rows
of n cells.  On the torus, row R re-enters row 0 shifted by the twist
columns; on the Klein bottle, column n re-enters column 0 with the rows
reflected.  The 4^4 and 3^6 cells have one class (two rows on the torus,
three on the Klein bottle); the 6^3 torus cell has two classes in one row
and a fixed shift of -2; the 6^3 Klein series is the dual of the 3^6 Klein
grid.  The three grid subdivision operators read one table, the 4^4 quads
rebuilt from the map's grid tags, and refuse a map whose faces are not
those quads.  Truncation, dual, the (3,12,12) -> (3,4,6,4) expansion, the
quad-diagonalization to (3^4,6) and the orientation double cover are
intrinsic and work on any valid map.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import NamedTuple, Optional

from .classify import NotFlat
from .core import (
    FaceSeqType,
    PolyhedralMap,
    canonical_face,
    cyclic_equal,
    edge_key,
    euler_characteristic,
    face_edges,
    grid_coords,
    is_orientable,
    is_semi_equivelar,
    two_colour,
    validate,
)


class ParamOutOfRange(ValueError):
    pass


class NotGridMap(ValueError):
    """The operation needs a generator-tagged grid map."""


class ParityError(ValueError):
    """The grid admits no closed alternating pattern."""


class NoConsistentDiagonalization(ValueError):
    pass


class AlreadyOrientable(ValueError):
    """The orientation double cover of an orientable map is disconnected."""


class NotTruncation(ValueError):
    """The operation needs a map of type (3,12,12)."""


FAMILY_ALIASES = {
    "3^6": "3^6", "3x6": "3^6", "36": "3^6",
    "4^4": "4^4", "4x4": "4^4", "44": "4^4",
    "6^3": "6^3", "6x3": "6^3", "63": "6^3",
}


class _SeriesFields(NamedTuple):
    family: str   # one of 3^6, 4^4, 6^3
    surface: str  # torus | klein_bottle
    n: int
    twist: Optional[int] = None


class SeriesParams(_SeriesFields):
    """Parameters of an equivelar grid series.

    The figures' torus series start at n = 7 and the Klein series at
    n = 3; smaller n (or another vertical ``twist``) are accepted exactly
    when the resulting identifications still satisfy every polyhedral
    condition -- the validator is the arbiter.  ``twist`` is the column
    shift of the torus grids' vertical wrap; the drawn series use -3, and
    the alternating subdivision needs an even twist (its figure uses -4).
    """

    __slots__ = ()

    def __new__(cls, family: str, surface: str, n: int,
                twist: Optional[int] = None):
        fam = FAMILY_ALIASES.get(family)
        if fam is None:
            raise ParamOutOfRange(f"unknown family {family!r}")
        surf = {"torus": "torus", "klein": "klein_bottle",
                "klein_bottle": "klein_bottle"}.get(surface)
        if surf is None:
            raise ParamOutOfRange(f"unknown surface {surface!r}")
        if n < 3:
            raise ParamOutOfRange("series need n >= 3")
        if twist is not None and (surf != "torus" or fam == "6^3"):
            raise ParamOutOfRange("twist applies to torus grid families only")
        return super().__new__(cls, fam, surf, n, twist)


def equivelar_series(params: SeriesParams) -> PolyhedralMap:
    """The equivelar map of the requested family, surface and size: the
    quotient of the family's cell, except 6^3 on the Klein bottle, which
    is the dual of the 3^6 Klein grid."""
    fam, surf, n = params.family, params.surface, params.n
    series = {"family": fam, "surface": surf, "n": n}
    twist = params.twist
    if fam == "6^3":
        twist = -2  # the 6^3 torus cell's fixed shift, which no tag records
    elif surf == "torus":
        if twist is None:
            twist = -3
        series["twist"] = twist
    cell = "3^6" if (fam, surf) == ("6^3", "klein_bottle") else fam
    k, rows, _ = _CELLS[cell, surf]
    size = k * n * rows
    faces = _quotient_faces(cell, surf, n, twist)
    try:
        if cell != fam:
            grid = validate(faces, size)
            # dual(grid), validated once with its tag
            return validate([grid.fan(v) for v in range(size)],
                            grid.n_faces, tags={"series": series})
        coords = {str(v): list(divmod(v, k * n)) for v in range(size)}
        return validate(faces, size, tags={"series": series, "coords": coords})
    except ValueError as exc:
        raise ParamOutOfRange(
            f"{fam} on {surf} with n={n} does not close up: {exc}") from exc


#: One translation cell of each grid series' plane tiling, as (k vertex
#: classes, R rows, the cell's faces as (class, dx, dy) offsets).  The
#: 4^4 cell is one quad (p, q, r, s) whose edges p-q and r-s run along a
#: row; 3^6 splits it along the diagonal from p on the torus and from q
#: on the Klein bottle; 6^3 is one hexagon on two classes in one row.
_QUAD = ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1))
_CELLS = {
    ("4^4", "torus"): (1, 2, [_QUAD]),
    ("4^4", "klein_bottle"): (1, 3, [_QUAD]),
    ("3^6", "torus"): (1, 2, [((0, 0, 0), (0, 1, 0), (0, 1, 1)),
                              ((0, 0, 0), (0, 1, 1), (0, 0, 1))]),
    ("3^6", "klein_bottle"): (1, 3, [((0, 0, 0), (0, 1, 0), (0, 0, 1)),
                                     ((0, 1, 0), (0, 1, 1), (0, 0, 1))]),
    ("6^3", "torus"): (2, 1, [((0, 0, 0), (1, 0, 0), (0, 1, 0),
                               (1, 0, 1), (0, 0, 1), (1, -1, 1))]),
}


def _quotient_faces(family: str, surface: str, n: int,
                    twist: Optional[int]) -> list[tuple[int, ...]]:
    """The faces of R rows of n copies of ``family``'s cell: column by
    column, then row by row, then in the cell's face order.  Vertex
    (c, x, y) is c + k * (x mod n + n * (y mod R)) once the surface's wrap
    applies: on the torus row R re-enters row 0 shifted by ``twist``
    columns; on the Klein bottle column n re-enters column 0 with the
    rows reflected, y -> -y."""
    k, rows, cell = _CELLS[family, surface]

    def label(c, x, y):
        if surface == "torus":
            q, y = divmod(y, rows)
            x += q * twist
        elif x // n % 2:
            y = -y
        return c + k * (x % n + n * (y % rows))

    return [tuple(label(c, x + dx, y + dy) for c, dx, dy in face)
            for x in range(n) for y in range(rows) for face in cell]


# -- intrinsic operators ------------------------------------------------------


def dual(m: PolyhedralMap) -> PolyhedralMap:
    """Swap vertices and faces; the dual face at v is v's face fan."""
    faces = [m.fan(v) for v in range(m.n_vertices)]
    return validate(faces, m.n_faces)


def truncate(m: PolyhedralMap) -> PolyhedralMap:
    """Cut every vertex: one new vertex per (vertex, incident edge) pair."""
    ids: dict[tuple[int, int], int] = {}
    faces = []
    for v in range(m.n_vertices):
        start = len(ids)
        for u in m.link(v):
            ids[(v, u)] = len(ids)
        # v's face is the run of ids just assigned, in link order
        faces.append(tuple(range(start, len(ids))))
    for face in m.faces:
        p = len(face)
        new = []
        for i in range(p):
            x, xp, xn = face[i], face[i - 1], face[(i + 1) % p]
            new.append(ids[(x, xp)])
            new.append(ids[(x, xn)])
        faces.append(tuple(new))
    return validate(faces, len(ids))


def double_cover(m: PolyhedralMap) -> tuple[PolyhedralMap, dict[int, int]]:
    """Orientation double cover of a non-orientable flat map.

    Returns the cover plus the two-to-one vertex projection.  Cover vertex
    2v + s lies over v; the two sheets at v are the two senses of its fan.
    """
    if euler_characteristic(m) != 0:
        raise NotFlat("double cover implemented for flat maps only")
    if is_orientable(m):
        raise AlreadyOrientable(
            "orientation double cover of an orientable map is disconnected")
    succ = []
    for v in range(m.n_vertices):
        cycle = m.link(v)
        succ.append({cycle[i]: cycle[(i + 1) % len(cycle)]
                     for i in range(len(cycle))})
    faces = []
    for face in m.faces:
        p = len(face)
        for direction in (1, -1):
            seq = face if direction == 1 else tuple(reversed(face))
            lifted = []
            for i in range(p):
                a, v, bnext = seq[i - 1], seq[i], seq[(i + 1) % p]
                sense = 0 if succ[v][a] == bnext else 1
                lifted.append(2 * v + sense)
            faces.append(tuple(lifted))
    cover = validate(faces, 2 * m.n_vertices)
    projection = {w: w // 2 for w in range(2 * m.n_vertices)}
    return cover, projection


def verify_covering(cover: PolyhedralMap, base: PolyhedralMap,
                    proj: dict[int, int]) -> bool:
    """Whether ``proj`` is a 2-to-1 covering map restricting to an
    isomorphism on every closed vertex star."""
    if cover.n_vertices != 2 * base.n_vertices:
        return False
    if sorted(proj) != list(range(cover.n_vertices)):
        return False
    if Counter(proj.values()) != Counter(dict.fromkeys(range(base.n_vertices), 2)):
        return False
    # an image with a repeated vertex matches no base face and no base link
    images = Counter(canonical_face([proj[w] for w in f]) for f in cover.faces)
    if images != Counter(2 * base.face_keys):
        return False
    return all(cyclic_equal([proj[u] for u in cover.link(w)], base.link(proj[w]))
               for w in range(cover.n_vertices))


# -- grid-tagged subdivision operators ---------------------------------------


def _grid_info(m: PolyhedralMap):
    """(surface, n, twist, R, quads) from a 4^4 series map's tags.

    ``quads`` are the faces of ``_quotient_faces`` for the 4^4 cell,
    written in the map's labels and kept in their order: in each quad
    (p, q, r, s) the edges p-q and r-s run along a row, and quad k lies in
    layer k % R of column k // R (R rows, 2 on the torus and 3 on the
    Klein bottle).  NotGridMap when a tag is missing or malformed, or when
    the coords do not lay out rows 0..R-1 by columns 0..n-1; whether the
    faces are those quads is ``_grid_slots``'s check."""
    series = m.tags.get("series")
    try:
        coord = grid_coords(m)
    except ValueError as exc:
        raise NotGridMap(str(exc)) from exc
    if (not isinstance(series, dict) or series.get("family") != "4^4"
            or coord is None):
        raise NotGridMap("operation needs a tagged (4^4) series map")
    surface, n = series.get("surface"), series.get("n")
    if surface not in ("torus", "klein_bottle"):
        raise NotGridMap(f"series tag has no surface torus or klein_bottle: "
                         f"{surface!r}")
    if type(n) is not int or n < 1:
        raise NotGridMap(f"series tag has no positive integer n: {n!r}")
    twist = series.get("twist", -3)
    if type(twist) is not int:
        raise NotGridMap(f"series tag has no integer twist: {twist!r}")
    rows = _CELLS["4^4", surface][1]
    # the vertex count bounds n before the layout is built from it
    if (rows * n != m.n_vertices
            or sorted(coord.values()) != [(r, c) for r in range(rows)
                                          for c in range(n)]):
        raise NotGridMap(f"coords tag does not lay out {rows} rows of "
                         f"{n} columns")
    by_coord = {rc: v for v, rc in coord.items()}
    quads = [tuple(by_coord[divmod(g, n)] for g in q)
             for q in _quotient_faces("4^4", surface, n, twist)]
    return surface, n, twist, rows, quads


def _grid_slots(m: PolyhedralMap, quads) -> list[int]:
    """The index in ``quads`` of each face of ``m``, in stored order;
    NotGridMap unless the faces are exactly those quads."""
    slot = {canonical_face(q): k for k, q in enumerate(quads)}
    slots = [slot.get(canonical_face(f)) for f in m.faces]
    if len(slots) != len(quads) or None in slots:
        raise NotGridMap("faces are not the quads of the grid its tags describe")
    return slots


def subdivide_layer_diagonals(m: PolyhedralMap) -> PolyhedralMap:
    """One diagonal in every quad of one grid layer, all leaning the same
    way.

    On the two-row torus series every vertex borders the subdivided layer
    from both sides and the result is a semi-equivelar (3,3,3,4,4) map; on
    the three-row Klein series one vertex row never touches a single
    layer, so the output there is a valid map but not semi-equivelar.
    """
    surface, _n, _twist, rows, quads = _grid_info(m)
    # layer 0 of the torus grid; on the Klein grid the row flip splices
    # layers 0 and 2 into one band of 2n quads, and layer 1 is the band of n
    layer = 0 if surface == "torus" else 1
    faces = []
    for face, k in zip(m.faces, _grid_slots(m, quads)):
        if k % rows != layer:
            faces.append(face)
            continue
        p, q, r, s = quads[k]
        faces.append((p, q, s))
        faces.append((q, r, s))
    return validate(faces, m.n_vertices, tags=dict(m.tags))


def subdivide_alternate_diagonals(m: PolyhedralMap) -> PolyhedralMap:
    """Diagonals in a checkerboard half of the quads, no two sharing an edge.

    Splits the quads of the torus grid that the ``series`` and ``coords``
    tags describe, and refuses with NotGridMap any map whose faces are not
    exactly those quads.  Needs an even column count AND an even vertical
    twist: with an odd twist (the drawn series' -3) the two quad layers
    re-glue so that some subdivided pair meets along the wrap, which is
    why the figure for this series carries a twist of -4.  The three-row
    Klein grid has an odd quad cycle along each column; no pattern exists.
    """
    surface, n, twist, rows, quads = _grid_info(m)
    if surface != "torus":
        raise ParityError(
            "three stacked quad layers admit no alternating pattern")
    if n % 2:
        raise ParityError(f"column count {n} is odd; alternation cannot close")
    if twist % 2:
        raise ParityError(
            f"vertical twist {twist} is odd: the checkerboard meets itself "
            f"across the wrap; build the series with an even twist")
    _grid_slots(m, quads)
    faces = []
    for k, (p, q, r, s) in enumerate(quads):
        # lower-layer quads split at odd columns, upper at even, as drawn
        column, layer = divmod(k, rows)
        if layer == 0 and column % 2:
            faces += [(p, q, s), (q, r, s)]
        elif layer == 1 and not column % 2:
            faces += [(p, q, r), (p, r, s)]
        else:
            faces.append((p, q, r, s))
    return validate(faces, m.n_vertices, tags=dict(m.tags))


def subdivide_to_3636(m: PolyhedralMap) -> PolyhedralMap:
    """Overlay a (3,6,3,6) pattern on a (4^4) series map.

    One pair of vertices per carrier edge, one crossing vertex per
    center-class quad, one per cross edge between edge-class quads; the
    grid's own vertices disappear.  The pattern alternates quad classes
    across carrier edges, which fixes the admissible carrier direction
    per surface (rows on the torus, columns on the Klein bottle with an
    even column count).
    """
    surface, n, _twist, rows, quads = _grid_info(m)
    slots = _grid_slots(m, quads)
    torus = surface == "torus"
    # the classes agree across cross edges and differ across carrier edges:
    # on the torus the class is the layer; the Klein grid's three layers
    # close an odd cycle up each column, so there the columns alternate,
    # which the wrap from column n - 1 back to column 0 allows for even n
    if not torus and n % 2:
        raise ParityError("no carrier direction admits an alternating "
                          "center/edge quad coloring")
    classes = [(k % rows if torus else k // rows) % 2 for k in slots]
    # the first stored face is a center quad
    coloring = [c ^ classes[0] for c in classes]
    carriers = {edge_key(*e) for p, q, r, s in quads
                for e in (((p, q), (r, s)) if torus else ((q, r), (s, p)))}

    def carrier(u, v):
        return edge_key(u, v) in carriers

    # orient each quad (c1L, c2L, c2R, c1R): carrier edges (c1L,c2L),(c1R,c2R)
    oriented = [f if carrier(f[0], f[1]) else f[1:] + f[:1] for f in m.faces]

    fresh = count()
    # (carrier edge, endpoint) -> its overlay vertex
    ov = {(e, p): next(fresh) for e in m.edges if carrier(*e) for p in e}
    # center quad index -> crossing vertex; cross edge -> crossing vertex
    bq = {qi: next(fresh) for qi in range(m.n_faces) if coloring[qi] == 0}
    bh = {e: next(fresh) for e in m.edges
          if not carrier(*e) and coloring[m.edge_faces(*e)[0]] == 1}

    faces = []
    # (quad index, vertex) -> the overlay vertex of the quad's carrier there
    at: dict[tuple[int, int], int] = {}
    for qi, (c1l, c2l, c2r, c1r) in enumerate(oriented):
        el, er = edge_key(c1l, c2l), edge_key(c1r, c2r)
        for p, e in ((c1l, el), (c2l, el), (c2r, er), (c1r, er)):
            at[qi, p] = ov[e, p]
        if coloring[qi] == 0:
            faces.append((at[qi, c1l], at[qi, c2l], bq[qi]))
            faces.append((at[qi, c1r], at[qi, c2r], bq[qi]))
        else:
            eb, et = edge_key(c1l, c1r), edge_key(c2l, c2r)
            faces.append((at[qi, c1l], at[qi, c2l], bh[et],
                          at[qi, c2r], at[qi, c1r], bh[eb]))
    # the two quads across a cross edge meet p's two carrier edges, whose
    # overlay vertices at p were numbered in edge order
    for e, crossing in bh.items():
        fa, fb = m.edge_faces(*e)
        for p in e:
            faces.append((*sorted((at[fa, p], at[fb, p])), crossing))
    for (u, v) in m.edges:
        if carrier(u, v):
            continue
        fa, fb = m.edge_faces(u, v)
        if coloring[fa] != 0:
            continue
        faces.append((at[fa, u], at[fb, u], bq[fb],
                      at[fb, v], at[fa, v], bq[fa]))

    # every fresh label lands in a face (validate rejects one that does
    # not), so the next one is the vertex count
    tags = {"series": {"family": "3,6,3,6", "surface": surface, "n": n}}
    return validate(faces, next(fresh), tags=tags)


def build_3464_from_312sq(m: PolyhedralMap) -> PolyhedralMap:
    """Expand a (3,12,12) map into the (3,4,6,4) map on four times the
    vertices: each 12-gon gains an inner 12-vertex ring and a hexagonal
    core, each triangle edge a quad, and each edge between two 12-gons is
    replaced by a hexagon."""
    if is_semi_equivelar(m) != FaceSeqType((3, 12, 12)):
        raise NotTruncation("input must be a semi-equivelar (3,12,12) map")
    tri_edges = {e for f in m.faces if len(f) == 3 for e in face_edges(f)}

    fresh = count(m.n_vertices)
    faces = [tuple(f) for f in m.faces if len(f) == 3]
    # (face index of a 12-gon, its vertex) -> the inner ring vertex under it
    under: dict[tuple[int, int], int] = {}
    for fi, w in enumerate(m.faces):
        if len(w) != 12:
            continue
        # rotate so that (w[0], w[1]) is a triangle edge
        if edge_key(w[0], w[1]) not in tri_edges:
            w = w[1:] + w[:1]
        if edge_key(w[0], w[1]) not in tri_edges:
            raise NotTruncation(f"12-gon {w} has no triangle edge at its start")
        ring = [next(fresh) for _ in range(12)]
        core = [next(fresh) for _ in range(6)]
        under.update(((fi, v), r) for v, r in zip(w, ring))
        faces.append(tuple(core))
        for k in range(6):
            i = 2 * k
            # ring edge under a triangle edge: quad outside, triangle inside
            faces.append((w[i], w[i + 1], ring[i + 1], ring[i]))
            faces.append((ring[i], ring[i + 1], core[k]))
            # ring edge under an old edge: quad toward the core
            faces.append((core[k], ring[i + 1], ring[(i + 2) % 12],
                          core[(k + 1) % 6]))
    # hexagons replacing each edge shared by two 12-gons
    for (u, v) in m.edges:
        if (u, v) in tri_edges:
            continue
        fa, fb = m.edge_faces(u, v)
        faces.append((u, under[(fa, u)], under[(fa, v)],
                      v, under[(fb, v)], under[(fb, u)]))
    # every old vertex keeps its triangle and every fresh label lands in a
    # face (validate rejects one that does not): the next one is the count
    return validate(faces, next(fresh))


def subdivide_3464_to_346(m: PolyhedralMap) -> PolyhedralMap:
    """Cut every quad of a (3,4,6,4) map by one diagonal so each vertex
    ends with four triangles.

    Each vertex lies in exactly two quads and needs the diagonal of
    exactly one of them, an XOR condition that propagates through the
    quad-sharing graph; each connected component leaves two consistent
    choices and the lexicographically smaller face set is taken.
    """
    if is_semi_equivelar(m) != FaceSeqType((3, 4, 6, 4)):
        raise NoConsistentDiagonalization(
            "input must be a semi-equivelar (3,4,6,4) map")
    quads = [fi for fi, f in enumerate(m.faces) if len(f) == 4]
    # vertex -> (quad slot, position parity) of each of its quads, which
    # the type makes exactly two
    incidence: dict[int, list[tuple[int, int]]] = {}
    for k, fi in enumerate(quads):
        for pos, v in enumerate(m.faces[fi]):
            incidence.setdefault(v, []).append((k, pos % 2))

    def neighbours(k):
        for v in m.faces[quads[k]]:
            (k1, p1), (k2, p2) = incidence[v]
            yield (k2 if k1 == k else k1), 1 ^ p1 ^ p2

    walk = two_colour(len(quads), neighbours)
    if walk is None:
        raise NoConsistentDiagonalization(
            "diagonal parity conflicts around a quad cycle")
    components, delta = walk

    def cut(fi: int, d: int):
        a, b, c, e = m.faces[fi]
        if d == 0:
            return [(a, b, c), (a, c, e)]
        return [(b, c, e), (b, e, a)]

    faces = [tuple(f) for f in m.faces if len(f) != 4]
    for comp in components:
        variants = []
        for flip in (0, 1):
            chunk = []
            for k in comp:
                chunk.extend(cut(quads[k], delta[k] ^ flip))
            variants.append(sorted(canonical_face(f) for f in chunk))
        chosen = 0 if variants[0] <= variants[1] else 1
        for k in comp:
            faces.extend(cut(quads[k], delta[k] ^ chosen))
    return validate(faces, m.n_vertices)
