"""Polyhedral maps on closed surfaces and their basic invariants.

A map is stored as a vertex count plus a list of faces, each face a
cyclically ordered tuple of distinct vertex labels.  Construction always
validates the polyhedral-2-manifold conditions: faces are p-cycles with
p >= 3, two faces meet in nothing, a vertex or an edge, every edge lies
in exactly two faces, the faces around each vertex form one closed fan,
and the whole complex is connected.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


class SematlasError(Exception):
    """A domain failure: bad input for the operation asked, reported by the
    command line as one ``error:`` line and exit 1.  Every such class
    derives from it; each keeps its older base (``ValueError``,
    ``RuntimeError``, ``KeyError``) as a second one."""


class InvalidMapError(SematlasError, ValueError):
    """Some polyhedral-map condition fails; str() names the witness."""


class BadLabel(InvalidMapError):
    pass


class FaceTooSmall(InvalidMapError):
    pass


class RepeatedVertexInFace(InvalidMapError):
    pass


class FaceIntersectionViolation(InvalidMapError):
    pass


class EdgeDegreeViolation(InvalidMapError):
    pass


class LinkNotSingleCycle(InvalidMapError):
    pass


class Disconnected(InvalidMapError):
    pass


def _natural(token: str) -> int:
    """A non-negative integer written in ASCII digits only, so ``+4``,
    ``0_4`` and ``\u0664`` (an Arabic-Indic four), which ``int`` reads as 4,
    are refused."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a string of digits 0-9")
    return int(token)


def canonical_face(face: Sequence[int]) -> tuple[int, ...]:
    """Least rotation of a cyclic sequence over both traversal directions:
    the normal form of a face and of a face-sequence type.

    When the entries are distinct, as a face's vertices always are, the
    least rotation starts at the least entry, and of its two directions
    the one with the smaller second entry wins: O(k).  A sequence with a
    repeated entry, such as the type (3,3,4,3,4), compares all 2k
    rotations."""
    seq = tuple(face)
    k = len(seq)
    if k and len(set(seq)) == k:
        i = seq.index(min(seq))
        if seq[i - 1] < seq[(i + 1) % k]:
            seq = seq[::-1]
            i = k - 1 - i
        return seq[i:] + seq[:i]
    best = None
    for seq in (seq, seq[::-1]):
        for i in range(k):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def face_edges(face: Sequence[int]) -> list[tuple[int, int]]:
    """The unordered vertex pairs consecutive in the face cycle."""
    k = len(face)
    return [edge_key(face[i], face[(i + 1) % k]) for i in range(k)]


class _Frozen:
    """An immutable value over its ``__slots__``: compared, hashed, shown and
    pickled as the tuple of its slots' values.  A subclass sets its slots
    in ``__init__`` through ``object.__setattr__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FaceSeqType(_Frozen):
    """A cyclic sequence of face sizes around a vertex, e.g. (3,3,3,4,4).

    Stored normalized: lexicographically least over all rotations and
    reflections, so equal types compare equal.  Immutable.
    """

    __slots__ = ("sizes",)

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 3:
            raise ValueError(f"face-sequence needs length >= 3, got {sizes}")
        if any(s < 3 for s in sizes):
            raise ValueError(f"face sizes must be >= 3, got {sizes}")
        object.__setattr__(self, "sizes", canonical_face(sizes))

    @classmethod
    def parse(cls, text: str) -> "FaceSeqType":
        """Parse an expanded comma-separated type such as '3,3,3,4,4'."""
        parts = [p.strip() for p in text.replace(";", ",").split(",")]
        return cls(tuple(_natural(p) for p in parts if p))

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.sizes) + ")"

    def __len__(self) -> int:
        return len(self.sizes)

    def multiplicity(self, size: int) -> int:
        return self.sizes.count(size)

    @property
    def degree(self) -> int:
        return len(self.sizes)


def cyclic_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """Equality of cyclic sequences up to rotation and reflection."""
    if len(a) != len(b):
        return False
    return canonical_face(a) == canonical_face(b)


class SurfaceId(NamedTuple):
    euler_characteristic: int
    orientable: bool
    name: str

    @classmethod
    def from_invariants(cls, chi: int, orientable: bool) -> "SurfaceId":
        if chi == 2 and orientable:
            name = "sphere"
        elif chi == 0 and orientable:
            name = "torus"
        elif chi == 0 and not orientable:
            name = "klein_bottle"
        else:
            name = f"other(chi={chi}, {'orientable' if orientable else 'non-orientable'})"
        return cls(chi, orientable, name)


class FlagTable(NamedTuple):
    """The map's flags and their involutions (the gem of Lins, "Graph-encoded
    maps", JCTB 32, 1982).

    A flag is a mutually incident (vertex, edge, face) triple.  Flag
    ``4*e + 2*d + s`` lies on edge ``edges[e]``, at its endpoint ``d`` (0 is
    the smaller label), in the edge's face ``s`` (0 is the smaller index),
    so ``edge_faces`` reads an edge's faces here.  s0 (other vertex, same
    edge and face) is ``x ^ 2`` and s2 (other face, same vertex and edge)
    is ``x ^ 1``; only s1 (other edge, same vertex and face) is stored.
    ``vertex`` and ``face`` give each flag's vertex and face index, and
    ``start[v]`` is v's flag in its first face on the edge from the vertex
    before v in that face's cycle.
    """

    s1: tuple[int, ...]
    vertex: tuple[int, ...]
    face: tuple[int, ...]
    start: tuple[int, ...]


class PolyhedralMap:
    """An immutable validated polyhedral map.

    ``tags`` carries optional construction metadata (grid coordinates and
    the like); it is ignored by equality, invariants and serialization
    order, and survives semmap round-trips as ``# tag:`` comments.
    """

    def __init__(self, n_vertices: int, faces: Iterable[Sequence[int]],
                 tags: Optional[Mapping] = None):
        faces = tuple(tuple(int(v) for v in f) for f in faces)
        self.n_vertices = int(n_vertices)
        self.faces = faces
        self.tags = dict(tags) if tags else {}
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n = self.n_vertices
        if n <= 0 or not self.faces:
            raise Disconnected("empty map: no vertices or no faces")

        seen: set[int] = set()
        for fi, face in enumerate(self.faces):
            if len(face) < 3:
                raise FaceTooSmall(f"face {fi} {face} has fewer than 3 vertices")
            for v in face:
                if not 0 <= v < n:
                    raise BadLabel(f"face {fi} uses label {v} outside 0..{n - 1}")
            seen.update(face)
            if len(set(face)) != len(face):
                raise RepeatedVertexInFace(f"face {fi} {face} repeats a vertex")
        # count up through the labels seen, so nothing is sized by n before
        # the faces bound it
        unused = 0
        while unused in seen:
            unused += 1
        if unused < n:
            raise BadLabel(f"vertex {unused} occurs in no face")

        vertex_faces: list[list[int]] = [[] for _ in range(n)]
        for fi, face in enumerate(self.faces):
            for v in face:
                vertex_faces[v].append(fi)

        # pairwise intersection: empty, one vertex, or one shared edge
        face_sets = [frozenset(f) for f in self.faces]
        face_edge_sets = [set(face_edges(f)) for f in self.faces]
        checked: set[tuple[int, int]] = set()
        for v in range(n):
            incident = vertex_faces[v]
            for ai in range(len(incident)):
                for bi in range(ai + 1, len(incident)):
                    fa, fb = incident[ai], incident[bi]
                    key = (fa, fb) if fa < fb else (fb, fa)
                    if key in checked:
                        continue
                    checked.add(key)
                    common = face_sets[fa] & face_sets[fb]
                    if len(common) == 1:
                        continue
                    if len(common) > 2:
                        raise FaceIntersectionViolation(
                            f"faces {fa} and {fb} share vertices {sorted(common)}")
                    u, w = sorted(common)
                    if (u, w) not in face_edge_sets[fa] or (u, w) not in face_edge_sets[fb]:
                        raise FaceIntersectionViolation(
                            f"faces {fa} and {fb} share {{{u},{w}}} which is not "
                            f"an edge of both")

        edge_faces: dict[tuple[int, int], list[int]] = {}
        for fi, face in enumerate(self.faces):
            for e in face_edges(face):
                edge_faces.setdefault(e, []).append(fi)
        for e, fs in edge_faces.items():
            if len(fs) != 2:
                raise EdgeDegreeViolation(
                    f"edge {e} lies in {len(fs)} face(s) {fs}, expected 2")
        self.edges = tuple(sorted(edge_faces))

        self.flags = self._flag_table(edge_faces)
        for v in range(n):
            if len(self._rotation(v)) != len(vertex_faces[v]):
                raise LinkNotSingleCycle(
                    f"faces at vertex {v} split into more than one fan")

        # connectivity: the vertices of the flags reached from flag 0, which
        # lies at vertex 0
        vertex = self.flags.vertex
        reached = {vertex[x] for x in flag_walk(self, 0)}
        if len(reached) != n:
            missing = min(set(range(n)) - reached)
            raise Disconnected(f"vertex {missing} unreachable from vertex 0")

    def _flag_table(self, edge_faces) -> FlagTable:
        """Number the flags as ``FlagTable`` describes and pair them by s1;
        ``edge_faces`` gives each edge's two faces, the lesser index first."""
        edge_index = {e: i for i, e in enumerate(self.edges)}
        n_flags = 4 * len(edge_index)
        s1 = [0] * n_flags
        vertex = [0] * n_flags
        face_of = [0] * n_flags
        start = [-1] * self.n_vertices
        for fi, face in enumerate(self.faces):
            k = len(face)
            # out_flag[i]: the flag at face[i] on the edge to face[i + 1]
            out_flag = []
            for i in range(k):
                u, w = face[i], face[(i + 1) % k]
                e = (u, w) if u < w else (w, u)
                out_flag.append(4 * edge_index[e] + 2 * (u > w)
                                + (edge_faces[e][1] == fi))
            for i in range(k):
                # the corner at face[i] joins the edges from face[i - 1] and
                # to face[i + 1]; s0 of an out-flag lies at the edge's far end
                x, y = out_flag[i - 1] ^ 2, out_flag[i]
                s1[x], s1[y] = y, x
                vertex[x] = vertex[y] = face[i]
                face_of[x] = face_of[y] = fi
                if start[face[i]] < 0:
                    start[face[i]] = x
        return FlagTable(tuple(s1), tuple(vertex), tuple(face_of), tuple(start))

    def _rotation(self, v: int) -> list[int]:
        """The flags of v in fan order, one per face: from ``flags.start[v]``
        step into the next face across the other edge of the corner."""
        s1 = self.flags.s1
        x0 = self.flags.start[v]
        rot = [x0]
        x = s1[x0] ^ 1
        while x != x0:
            rot.append(x)
            x = s1[x] ^ 1
        return rot

    # -- derived data ------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def edge_faces(self, u: int, v: int) -> tuple[int, int]:
        """Indices of the two faces containing edge {u, v}, ascending: the
        faces of its flags ``4*e`` and ``4*e + 1``.  KeyError on a non-edge."""
        key = edge_key(u, v)
        e = bisect_left(self.edges, key)
        if e == len(self.edges) or self.edges[e] != key:
            raise KeyError(key)
        face = self.flags.face
        return (face[4 * e], face[4 * e + 1])

    def vertex_faces(self, v: int) -> tuple[int, ...]:
        """Indices of the faces containing ``v``, ascending."""
        return tuple(sorted(self.fan(v)))

    def fan(self, v: int) -> tuple[int, ...]:
        """Face indices around ``v`` in fan order (one of the two senses)."""
        face_of = self.flags.face
        return tuple(face_of[x] for x in self._rotation(v))

    def link(self, v: int) -> tuple[int, ...]:
        """Neighbours of ``v`` in fan order: the boundary cycle of its star.
        Entry i is the neighbour across the edge by which fan face i is
        entered."""
        vertex = self.flags.vertex
        return tuple(vertex[x ^ 2] for x in self._rotation(v))

    def link_cycle(self, v: int) -> tuple[int, ...]:
        """Boundary cycle of the closed star of ``v``: neighbours plus the
        far vertices of larger faces, in fan order."""
        s1, vertex, _, _ = self.flags
        out: list[int] = []
        for x in self._rotation(v):
            # round x's face from the neighbour on x's edge, stopping before
            # the neighbour on the corner's other edge
            end = vertex[s1[x] ^ 2]
            y = x ^ 2
            while vertex[y] != end:
                out.append(vertex[y])
                y = s1[y] ^ 2
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self._rotation(v))

    # -- identity ----------------------------------------------------------

    @cached_property
    def face_keys(self) -> tuple[tuple[int, ...], ...]:
        """Canonical per-face keys, sorted: the map's equality fingerprint."""
        return tuple(sorted(canonical_face(f) for f in self.faces))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyhedralMap)
                and self.n_vertices == other.n_vertices
                and self.face_keys == other.face_keys)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.face_keys))

    def __repr__(self) -> str:
        return (f"PolyhedralMap(n={self.n_vertices}, E={self.n_edges}, "
                f"F={self.n_faces})")

    def relabel(self, perm: Sequence[int]) -> "PolyhedralMap":
        """Image of the map under vertex bijection v -> perm[v]."""
        if sorted(perm) != list(range(self.n_vertices)):
            raise ValueError("relabeling must be a permutation of all vertices")
        faces = [tuple(perm[v] for v in f) for f in self.faces]
        return PolyhedralMap(self.n_vertices, faces)


def flag_walk(m: PolyhedralMap, start: int) -> Iterator[int]:
    """The flags reachable from ``start`` in breadth-first order, trying
    each flag's neighbours as ``x ^ 2``, ``s1[x]``, ``x ^ 1``.  Lazy, so a
    caller may stop at the first flag it rejects."""
    s1 = m.flags.s1
    seen = bytearray(len(s1))
    seen[start] = 1
    queue = [start]
    for x in queue:  # the queue grows while it is read
        yield x
        for y in (x ^ 2, s1[x], x ^ 1):
            if not seen[y]:
                seen[y] = 1
                queue.append(y)


def two_colour(count: int, neighbours):
    """2-colour the items 0..count-1 along a relation: ``neighbours(i)``
    yields (j, flip) pairs, j to take i's colour XOR flip.  Returns
    (components, colour): each component lists its items in the order the
    walk reaches them, from its least item, which has colour 0.  None when
    some item would need both colours."""
    colour = [-1] * count
    components = []
    for start in range(count):
        if colour[start] != -1:
            continue
        colour[start] = 0
        comp = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j, flip in neighbours(i):
                want = colour[i] ^ flip
                if colour[j] == -1:
                    colour[j] = want
                    comp.append(j)
                    stack.append(j)
                elif colour[j] != want:
                    return None
        components.append(comp)
    return components, colour


def validate(faces: Iterable[Sequence[int]], n: int,
             tags: Optional[Mapping] = None) -> PolyhedralMap:
    """Build a validated map or raise the first violated condition."""
    return PolyhedralMap(n, faces, tags=tags)


def grid_coords(m: PolyhedralMap) -> Optional[dict[int, tuple[int, int]]]:
    """The ``coords`` tag of a generator-built grid map as
    {vertex: (row, column)}, or None when the map has no such tag.

    Raises ValueError unless the tag is an object that maps every vertex
    of ``m``, once, to a [row, column] pair of integers."""
    if "coords" not in m.tags:
        return None
    raw = m.tags["coords"]
    if not isinstance(raw, dict):
        raise ValueError(f"coords tag is not an object: {raw!r}")
    out = {}
    for key, rc in raw.items():
        if not (isinstance(rc, (list, tuple)) and len(rc) == 2
                and all(type(x) is int for x in rc)):
            raise ValueError(f"coords of vertex {key!r} are not a "
                             f"[row, column] pair of integers: {rc!r}")
        try:
            out[_natural(key)] = (rc[0], rc[1])
        except ValueError:
            raise ValueError(f"coords key {key!r} is not a vertex") from None
    if len(raw) != m.n_vertices or sorted(out) != list(range(m.n_vertices)):
        raise ValueError(f"coords tag does not place each of the "
                         f"{m.n_vertices} vertices once")
    return out


def face_sequence(m: PolyhedralMap, v: int) -> tuple[int, ...]:
    """Sizes of the faces around ``v`` in fan order (a rotation class)."""
    if not 0 <= v < m.n_vertices:
        raise ValueError(f"vertex {v} out of range")
    return tuple(len(m.faces[fi]) for fi in m.fan(v))


def is_semi_equivelar(m: PolyhedralMap) -> Optional[FaceSeqType]:
    """The common face-sequence type, or None if vertices disagree.

    Sequences are compared up to rotation and reflection; reflected links
    occur in non-orientable maps, so direction cannot distinguish types.
    """
    first = FaceSeqType(face_sequence(m, 0))
    for v in range(1, m.n_vertices):
        if FaceSeqType(face_sequence(m, v)) != first:
            return None
    return first


def euler_characteristic(m: PolyhedralMap) -> int:
    return m.n_vertices - m.n_edges + m.n_faces


class NotFlat(SematlasError, ValueError):
    """Raised where an operation requires Euler characteristic 0."""


def is_orientable(m: PolyhedralMap) -> bool:
    """Whether the flags 2-colour so that each involution changes the
    colour; the two colour classes are then the map's two orientations."""
    s1 = m.flags.s1

    def neighbours(x):
        return (x ^ 2, 1), (s1[x], 1), (x ^ 1, 1)

    return two_colour(len(s1), neighbours) is not None


def surface_id(m: PolyhedralMap) -> SurfaceId:
    return SurfaceId.from_invariants(euler_characteristic(m), is_orientable(m))
