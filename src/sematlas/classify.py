"""Isomorphism certificates, canonical forms and distinguishing invariants.

Isomorphism search works on flags: mutually incident (vertex, edge, face)
triples.  Fixing a flag correspondence forces the rest of the bijection by
deterministic propagation, so testing maps for isomorphism costs one
propagation per candidate start flag.  Orientation-reversing
correspondences arise automatically because all flags on both sides of an
edge are tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import PolyhedralMap, canonical_face, edge_key, euler_characteristic


@dataclass(frozen=True)
class Isomorphism:
    """A vertex bijection sending the face set of one map onto another's."""

    mapping: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def inverse(self) -> "Isomorphism":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Isomorphism(tuple(inv))


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant serialization; equal bytes certify isomorphism."""

    form: bytes
    relabeling: tuple[int, ...]


class NotFlat(ValueError):
    """Raised where an operation requires Euler characteristic 0."""


# -- flags ------------------------------------------------------------------
#
# A flag is (v, u, f): vertex v, the directed edge v->u, and the index f of
# one of the two faces containing {u, v}.  The three involutions move to the
# adjacent flag differing in exactly one component.


def _flags(m: PolyhedralMap) -> list[tuple[int, int, int]]:
    out = []
    for (u, v) in m.edges:
        fa, fb = m.edge_faces(u, v)
        out.extend([(u, v, fa), (u, v, fb), (v, u, fa), (v, u, fb)])
    return out


def _s0(m: PolyhedralMap, fl: tuple[int, int, int]) -> tuple[int, int, int]:
    v, u, f = fl
    return (u, v, f)


def _s1(m: PolyhedralMap, fl: tuple[int, int, int]) -> tuple[int, int, int]:
    v, u, f = fl
    face = m.faces[f]
    i = face.index(v)
    a, b = face[i - 1], face[(i + 1) % len(face)]
    return (v, b if u == a else a, f)


def _s2(m: PolyhedralMap, fl: tuple[int, int, int]) -> tuple[int, int, int]:
    v, u, f = fl
    fa, fb = m.edge_faces(v, u)
    return (v, u, fb if f == fa else fa)


def _propagate(a: PolyhedralMap, b: PolyhedralMap,
               start_a: tuple[int, int, int],
               start_b: tuple[int, int, int]) -> Optional[list[int]]:
    """Force a vertex bijection from one flag correspondence, or None."""
    va = [-1] * a.n_vertices
    vb = [-1] * b.n_vertices
    seen = {start_a: start_b}
    stack = [(start_a, start_b)]
    while stack:
        fa, fb = stack.pop()
        if va[fa[0]] == -1 and vb[fb[0]] == -1:
            va[fa[0]] = fb[0]
            vb[fb[0]] = fa[0]
        elif va[fa[0]] != fb[0] or vb[fb[0]] != fa[0]:
            return None
        if len(a.faces[fa[2]]) != len(b.faces[fb[2]]):
            return None
        for op in (_s0, _s1, _s2):
            na, nb = op(a, fa), op(b, fb)
            prev = seen.get(na)
            if prev is None:
                seen[na] = nb
                stack.append((na, nb))
            elif prev != nb:
                return None
    if -1 in va:
        return None  # cannot happen for connected maps, kept as a guard
    return va


def _certifies(a: PolyhedralMap, b: PolyhedralMap, mapping: Sequence[int]) -> bool:
    if sorted(mapping) != list(range(b.n_vertices)):
        return False
    image = sorted(canonical_face(tuple(mapping[v] for v in f)) for f in a.faces)
    return tuple(image) == b.face_keys


def find_isomorphism(a: PolyhedralMap, b: PolyhedralMap,
                     pin: Optional[tuple[int, int]] = None) -> Optional[Isomorphism]:
    """A certified vertex bijection a -> b, or None.

    With ``pin=(u, v)`` only bijections sending u to v are considered.
    Every returned mapping is re-verified against the full face sets.
    """
    if (a.n_vertices != b.n_vertices or a.n_edges != b.n_edges
            or a.n_faces != b.n_faces):
        return None
    if sorted(map(len, a.faces)) != sorted(map(len, b.faces)):
        return None
    if pin is None:
        start_a = _least_flag(a, 0)
        candidates = _flags(b)
    else:
        u, v = pin
        start_a = _least_flag(a, u)
        candidates = [fl for fl in _flags(b) if fl[0] == v]
    for fb in candidates:
        mapping = _propagate(a, b, start_a, fb)
        if mapping is not None and _certifies(a, b, mapping):
            return Isomorphism(tuple(mapping))
    return None


def _least_flag(m: PolyhedralMap, v: int) -> tuple[int, int, int]:
    u = m.adjacency[v][0]
    fa, fb = m.edge_faces(v, u)
    return (v, u, min(fa, fb))


def canonical_form(m: PolyhedralMap) -> CanonicalForm:
    """Deterministic relabeling-invariant serialization of the map.

    Runs the flag traversal from every start flag, labels vertices in
    first-visit order, and keeps the lexicographically least of the
    resulting canonical serializations.
    """
    best: Optional[bytes] = None
    best_perm: Optional[tuple[int, ...]] = None
    for start in _flags(m):
        perm = _traversal_labels(m, start)
        faces = sorted(canonical_face(tuple(perm[v] for v in f)) for f in m.faces)
        blob = b"\n".join(
            b" ".join(str(v).encode() for v in face) for face in faces)
        blob = str(m.n_vertices).encode() + b"\n" + blob
        if best is None or blob < best:
            best, best_perm = blob, perm
    return CanonicalForm(best, best_perm)


def _traversal_labels(m: PolyhedralMap, start: tuple[int, int, int]) -> tuple[int, ...]:
    """Vertex labels in first-visit order of the flag BFS from ``start``."""
    label = [-1] * m.n_vertices
    nxt = 0
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue):
        fl = queue[qi]
        qi += 1
        if label[fl[0]] == -1:
            label[fl[0]] = nxt
            nxt += 1
        for op in (_s0, _s1, _s2):
            nf = op(m, fl)
            if nf not in seen:
                seen.add(nf)
                queue.append(nf)
    return tuple(label)


def is_isomorphic(a: PolyhedralMap, b: PolyhedralMap) -> bool:
    return find_isomorphism(a, b) is not None


def automorphism_pinning(m: PolyhedralMap, u: int, v: int) -> Optional[Isomorphism]:
    """An automorphism of ``m`` sending u to v, if one exists."""
    return find_isomorphism(m, m, pin=(u, v))


def is_vertex_transitive(m: PolyhedralMap) -> bool:
    """Whether some automorphism carries vertex 0 to every other vertex."""
    known = {0}
    for v in range(1, m.n_vertices):
        if v in known:
            continue
        iso = automorphism_pinning(m, 0, v)
        if iso is None:
            return False
        # images of already-reached vertices extend the orbit for free
        known |= {iso[w] for w in known}
        known.add(v)
    return True


# -- exact characteristic polynomial ----------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coefficients constant-term first."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
            terms.append(("- " if c < 0 else "+ ") + body)
        if not terms:
            return "0"
        first = terms[0]
        text = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([text] + terms[1:])


def charpoly(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) by the division-free
    Samuelson-Berkowitz scheme; exact over arbitrary-precision integers."""
    n = len(matrix)
    if n == 0:
        return IntPolynomial((1,))
    A = [[int(x) for x in row] for row in matrix]
    # grow principal submatrices from the bottom-right corner
    poly = [1, -A[n - 1][n - 1]]  # leading coefficient first
    for s in range(2, n + 1):
        top = n - s
        a = A[top][top]
        R = A[top][top + 1:]
        col = [A[i][top] for i in range(top + 1, n)]
        B = [A[i][top + 1:] for i in range(top + 1, n)]
        items = [1, -a]
        vec = col
        for k in range(2, s + 1):
            items.append(-sum(r * c for r, c in zip(R, vec)))
            if k < s:
                vec = [sum(B[i][j] * vec[j] for j in range(s - 1))
                       for i in range(s - 1)]
        out = [0] * (s + 1)
        for i in range(s + 1):
            lo = max(0, i - s + 1 - 1)
            acc = 0
            for j in range(lo, min(i, s - 1) + 1):
                acc += items[i - j] * poly[j]
            out[i] = acc
        poly = out
    return IntPolynomial(tuple(reversed(poly)))


def adjacency_matrix(m: PolyhedralMap) -> list[list[int]]:
    n = m.n_vertices
    A = [[0] * n for _ in range(n)]
    for (u, v) in m.edges:
        A[u][v] = 1
        A[v][u] = 1
    return A


def edge_graph_char_poly(m: PolyhedralMap) -> IntPolynomial:
    """Characteristic polynomial of the 1-skeleton's adjacency matrix."""
    return charpoly(adjacency_matrix(m))


# -- homological systole ------------------------------------------------------


def _gf2_reduce(vec: int, basis: list[int]) -> int:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def _gf2_insert(vec: int, basis: list[int]) -> bool:
    """Reduce ``vec`` against ``basis``; insert if independent."""
    for b in basis:
        vec = min(vec, vec ^ b)
    if vec == 0:
        return False
    basis.append(vec)
    basis.sort(reverse=True)
    return True


def face_boundary_basis(m: PolyhedralMap) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Edge-index map and a GF(2) basis of the face-boundary space."""
    edge_index = {e: i for i, e in enumerate(m.edges)}
    basis: list[int] = []
    for face in m.faces:
        vec = 0
        k = len(face)
        for i in range(k):
            vec ^= 1 << edge_index[edge_key(face[i], face[(i + 1) % k])]
        _gf2_insert(vec, basis)
    return edge_index, basis


def homological_systole(m: PolyhedralMap) -> int:
    """Length of the shortest 1-skeleton cycle not in the face-boundary
    span over GF(2).

    Candidates are the fundamental cycles of breadth-first trees rooted at
    every vertex: tree path to u, the non-tree edge {u, v}, tree path back
    from v, with shared tree edges cancelling.
    """
    chi = euler_characteristic(m)
    if chi != 0:
        raise NotFlat(f"map has Euler characteristic {chi}, expected 0")
    edge_index, basis = face_boundary_basis(m)
    adj = m.adjacency
    n = m.n_vertices
    best: Optional[int] = None
    for root in range(n):
        parent = [-1] * n
        depth = [0] * n
        order = [root]
        parent[root] = root
        qi = 0
        while qi < len(order):
            u = order[qi]
            qi += 1
            for w in adj[u]:
                if parent[w] == -1:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    order.append(w)
        for (u, v) in m.edges:
            if parent[u] == v or parent[v] == u:
                continue
            vec = 1 << edge_index[(u, v)]
            length = 1
            x, y = u, v
            while x != y:
                if depth[x] >= depth[y]:
                    vec ^= 1 << edge_index[edge_key(x, parent[x])]
                    length += 1
                    x = parent[x]
                else:
                    vec ^= 1 << edge_index[edge_key(y, parent[y])]
                    length += 1
                    y = parent[y]
            if best is not None and length >= best:
                continue
            if _gf2_reduce(vec, basis) != 0:
                best = length
    assert best is not None, "flat map must carry a homologically nontrivial cycle"
    return best
