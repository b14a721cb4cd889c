"""Polyhedral maps on closed surfaces and their basic invariants.

A map is stored as a vertex count plus a list of faces, each face a
cyclically ordered tuple of distinct vertex labels.  Construction always
validates the polyhedral-2-manifold conditions: faces are p-cycles with
p >= 3, two faces meet in nothing, a vertex or an edge, every edge lies
in exactly two faces, the faces around each vertex form one closed fan,
and the whole complex is connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence


class InvalidMapError(ValueError):
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


def canonical_face(face: Sequence[int]) -> tuple[int, ...]:
    """Least rotation of a cyclic sequence over both traversal directions:
    the normal form of a face and of a face-sequence type."""
    best = None
    for seq in (tuple(face), tuple(reversed(face))):
        for i in range(len(seq)):
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


@dataclass(frozen=True)
class FaceSeqType:
    """A cyclic sequence of face sizes around a vertex, e.g. (3,3,3,4,4).

    Stored normalized: lexicographically least over all rotations and
    reflections, so equal types compare equal.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 3:
            raise ValueError(f"face-sequence needs length >= 3, got {sizes}")
        if any(s < 3 for s in sizes):
            raise ValueError(f"face sizes must be >= 3, got {sizes}")
        object.__setattr__(self, "sizes", canonical_face(sizes))

    @classmethod
    def parse(cls, text: str) -> "FaceSeqType":
        """Parse an expanded comma-separated type such as '3,3,3,4,4'."""
        parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
        return cls(tuple(int(p) for p in parts))

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


@dataclass(frozen=True)
class SurfaceId:
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
        self._edge_faces: dict[tuple[int, int], list[int]] = {}
        self._vertex_faces: list[list[int]] = []
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n = self.n_vertices
        if n <= 0 or not self.faces:
            raise Disconnected("empty map: no vertices or no faces")

        seen = [False] * n
        for fi, face in enumerate(self.faces):
            if len(face) < 3:
                raise FaceTooSmall(f"face {fi} {face} has fewer than 3 vertices")
            for v in face:
                if not 0 <= v < n:
                    raise BadLabel(f"face {fi} uses label {v} outside 0..{n - 1}")
                seen[v] = True
            if len(set(face)) != len(face):
                raise RepeatedVertexInFace(f"face {fi} {face} repeats a vertex")
        for v, ok in enumerate(seen):
            if not ok:
                raise BadLabel(f"vertex {v} occurs in no face")

        vertex_faces: list[list[int]] = [[] for _ in range(n)]
        for fi, face in enumerate(self.faces):
            for v in face:
                vertex_faces[v].append(fi)
        self._vertex_faces = vertex_faces

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
        self._edge_faces = edge_faces

        for v in range(n):
            self._fan(v)  # raises LinkNotSingleCycle on failure

        # connectivity over the 1-skeleton
        reached = {0}
        stack = [0]
        adj = self.adjacency
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != n:
            missing = min(set(range(n)) - reached)
            raise Disconnected(f"vertex {missing} unreachable from vertex 0")

    def _fan(self, v: int) -> list[int]:
        """Faces around v in fan order; validates the single-closed-fan rule."""
        incident = self._vertex_faces[v]
        if len(incident) < 3:
            raise LinkNotSingleCycle(
                f"vertex {v} lies in only {len(incident)} face(s)")
        # each face containing v covers the corner between two edges at v
        corner: dict[int, tuple[int, int]] = {}
        edge_to_faces: dict[int, list[int]] = {}
        for fi in incident:
            face = self.faces[fi]
            i = face.index(v)
            a, b = face[i - 1], face[(i + 1) % len(face)]
            corner[fi] = (a, b)
            edge_to_faces.setdefault(a, []).append(fi)
            edge_to_faces.setdefault(b, []).append(fi)
        for u, fs in edge_to_faces.items():
            if len(fs) != 2:
                raise LinkNotSingleCycle(
                    f"edge ({v},{u}) borders {len(fs)} face(s) at vertex {v}")
        start = incident[0]
        fan = [start]
        prev_edge = corner[start][0]
        cur = start
        while True:
            a, b = corner[cur]
            nxt_edge = b if prev_edge == a else a
            f1, f2 = edge_to_faces[nxt_edge]
            nxt = f2 if f1 == cur else f1
            if nxt == start:
                break
            if len(fan) > len(incident):
                raise LinkNotSingleCycle(f"fan at vertex {v} does not close")
            fan.append(nxt)
            prev_edge = nxt_edge
            cur = nxt
        if len(fan) != len(incident):
            raise LinkNotSingleCycle(
                f"faces at vertex {v} split into more than one fan")
        return fan

    # -- derived data ------------------------------------------------------

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._edge_faces))

    @property
    def n_edges(self) -> int:
        return len(self._edge_faces)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples of the 1-skeleton."""
        nbrs: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for u, w in self._edge_faces:
            nbrs[u].add(w)
            nbrs[w].add(u)
        return tuple(tuple(sorted(s)) for s in nbrs)

    def edge_faces(self, u: int, v: int) -> tuple[int, int]:
        """Indices of the two faces containing edge {u, v}."""
        fs = self._edge_faces[edge_key(u, v)]
        return (fs[0], fs[1])

    def vertex_faces(self, v: int) -> tuple[int, ...]:
        return tuple(self._vertex_faces[v])

    def fan(self, v: int) -> tuple[int, ...]:
        """Face indices around ``v`` in fan order (one of the two senses)."""
        return tuple(self._fan(v))

    def link(self, v: int) -> tuple[int, ...]:
        """Neighbours of ``v`` in fan order: the boundary cycle of its star."""
        fan = self._fan(v)
        cycle = []
        # consecutive fan faces share an edge at v; walk those shared edges
        first = fan[0]
        face = self.faces[first]
        i = face.index(v)
        a, b = face[i - 1], face[(i + 1) % len(face)]
        nxt_face = fan[1 % len(fan)]
        shared = set((a, b)) & set(self._corner(nxt_face, v))
        start = (set((a, b)) - shared).pop() if len(shared) == 1 else a
        cycle.append(start)
        prev = start
        for fi in fan:
            a, b = self._corner(fi, v)
            nxt = b if prev == a else a
            cycle.append(nxt)
            prev = nxt
        return tuple(cycle[:-1])

    def _corner(self, fi: int, v: int) -> tuple[int, int]:
        face = self.faces[fi]
        i = face.index(v)
        return (face[i - 1], face[(i + 1) % len(face)])

    def link_cycle(self, v: int) -> tuple[int, ...]:
        """Boundary cycle of the closed star of ``v``: neighbours plus the
        far vertices of larger faces, in fan order."""
        fan = self._fan(v)
        nbrs = self.link(v)
        out: list[int] = []
        for idx, fi in enumerate(fan):
            face = self.faces[fi]
            a = nbrs[idx]
            b = nbrs[(idx + 1) % len(fan)]
            # walk the face from a to b avoiding v
            k = len(face)
            i = face.index(a)
            step = 1 if face[(i + 1) % k] != v else -1
            path = [a]
            while path[-1] != b:
                i = (i + step) % k
                path.append(face[i])
            out.extend(path[:-1])
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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


def validate(faces: Iterable[Sequence[int]], n: int,
             tags: Optional[Mapping] = None) -> PolyhedralMap:
    """Build a validated map or raise the first violated condition."""
    return PolyhedralMap(n, faces, tags=tags)


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


def is_orientable(m: PolyhedralMap) -> bool:
    """Propagate face orientations across shared edges; no conflict means
    the map is orientable."""
    n_faces = m.n_faces
    # +1 keeps the stored traversal, -1 reverses it
    sign = [0] * n_faces
    directed: list[set[tuple[int, int]]] = []
    for face in m.faces:
        k = len(face)
        directed.append({(face[i], face[(i + 1) % k]) for i in range(k)})
    sign[0] = 1
    stack = [0]
    while stack:
        fi = stack.pop()
        face = m.faces[fi]
        k = len(face)
        for i in range(k):
            u, v = face[i], face[(i + 1) % k]
            fa, fb = m.edge_faces(u, v)
            other = fb if fa == fi else fa
            # consistent orientations traverse a shared edge oppositely
            uv_in_other = (u, v) in directed[other]
            needed = -sign[fi] if uv_in_other else sign[fi]
            if sign[other] == 0:
                sign[other] = needed
                stack.append(other)
            elif sign[other] != needed:
                return False
    return True


def surface_id(m: PolyhedralMap) -> SurfaceId:
    return SurfaceId.from_invariants(euler_characteristic(m), is_orientable(m))
