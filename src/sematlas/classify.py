"""Isomorphism certificates, canonical forms and distinguishing invariants.

Isomorphism search works on flags: mutually incident (vertex, edge, face)
triples, read from each map's integer ``FlagTable``.  Fixing a flag
correspondence forces the rest of the bijection: an isomorphism commutes
with the flag involutions, so it carries the flag walk from one flag onto
the flag walk from its image, step by step.  Testing maps for isomorphism
costs one paired walk per candidate start flag.  Orientation-reversing
correspondences arise automatically because all flags on both sides of an
edge are tried.

``canonical_form``'s search pairs every two walks with equal
serializations, so it prunes on every automorphism it finds; its
union-find classes are automorphism orbits on the flags, and
``is_vertex_transitive`` reads the winning start flag's orbit.  Each map
keeps the search's result, so the two on one map search once.
``homological_systole`` gives each edge a GF(2) cohomology label from a
tree and cotree, and reads the systole off one breadth-first search per root.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional, Sequence

from .core import (NotFlat, PolyhedralMap, _Frozen, canonical_face, edge_key,
                   euler_characteristic, flag_walk)


class Isomorphism(_Frozen):
    """A vertex bijection sending the face set of one map onto another's.
    Immutable; ``iso[v]`` is the image of vertex v."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: tuple[int, ...]):
        object.__setattr__(self, "mapping", mapping)

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]


class CanonicalForm(NamedTuple):
    """Relabeling-invariant serialization; equal bytes certify isomorphism."""

    form: bytes
    relabeling: tuple[int, ...]


def _propagate(steps_a: list[tuple[int, int]], b: PolyhedralMap,
               start_b: int) -> Optional[list[int]]:
    """The vertex bijection that pairs a's flag walk, as (vertex, face size)
    steps, with b's flag walk from ``start_b``; None at the first
    disagreement.  The maps have equal vertex counts."""
    _, vert_b, face_b, _ = b.flags
    va = [-1] * b.n_vertices
    vb = [-1] * b.n_vertices
    for (x, size), fb in zip(steps_a, flag_walk(b, start_b)):
        y = vert_b[fb]
        if va[x] == -1 and vb[y] == -1:
            va[x] = y
            vb[y] = x
        elif va[x] != y or vb[y] != x:
            return None
        if size != len(b.faces[face_b[fb]]):
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

    With ``pin=(u, v)`` only bijections sending u to v are considered;
    a pin naming a vertex outside its map raises ``ValueError``.  Every
    returned mapping is re-verified against the full face sets.
    """
    if pin is not None:
        u, v = pin
        if not (0 <= u < a.n_vertices and 0 <= v < b.n_vertices):
            raise ValueError(f"pin ({u}, {v}) is out of range: the maps have "
                             f"{a.n_vertices} and {b.n_vertices} vertices")
    if (a.n_vertices != b.n_vertices or a.n_edges != b.n_edges
            or a.n_faces != b.n_faces):
        return None
    if sorted(map(len, a.faces)) != sorted(map(len, b.faces)):
        return None
    if pin is None:
        u, candidates = 0, range(len(b.flags.s1))
    else:
        vert_b = b.flags.vertex
        candidates = [x for x in range(len(vert_b)) if vert_b[x] == v]
    # the side-0 flag at u on the edge to its least neighbour
    w = min(a.link(u))
    start_a = 4 * bisect_left(a.edges, edge_key(u, w)) + 2 * (u > w)
    _, vert_a, face_a, _ = a.flags
    steps_a = [(vert_a[x], len(a.faces[face_a[x]])) for x in flag_walk(a, start_a)]
    for fb in candidates:
        mapping = _propagate(steps_a, b, fb)
        if mapping is not None and _certifies(a, b, mapping):
            return Isomorphism(tuple(mapping))
    return None


def _least_walk(m: PolyhedralMap) -> tuple[bytes, tuple[int, ...], tuple[int, ...]]:
    """The least serialization over the start flags, its relabeling, and
    the winning start flag's orbit under the automorphism group.

    Runs the flag traversal from start flags in index order, labels
    vertices in first-visit order, and keeps the first lexicographically
    least of the resulting canonical serializations.  Two walks with the
    same serialization differ by an automorphism, which carries one walk
    onto the other flag by flag.  Each walk is paired with the first
    earlier walk that gave its serialization, its flags joined to that
    walk's in a union-find, and a start flag whose class already holds a
    walked flag is skipped, since its serialization equals that earlier
    flag's (McKay's pruning on every automorphism found).  A walk is thus
    its orbit's first or at least doubles the group of automorphisms
    found: at most (flag orbits) + log2 |Aut| walks.  It holds one walk
    per flag orbit until it returns.  Every flag with the least
    serialization is paired with the winning start flag, so its class is
    its orbit under Aut, which acts freely: |Aut| flags.

    A walk's serialization is the vertex count, then the relabelled faces
    in ``canonical_face``'s normal form, sorted, one line each.  Faces
    have distinct vertices, so each normal form takes one pass; the
    labels' byte tokens and the header are encoded once per map, and
    each walk only joins them.

    The result is kept on the map, like its cached ``face_keys``, so
    ``canonical_form`` and ``is_vertex_transitive`` on one map search
    once.  It is keyed on the map object, not on map equality: an equal
    map with its faces in another order numbers its flags differently.
    """
    kept = m.__dict__.get("_least_walk")
    if kept is not None:
        return kept
    parent = list(range(len(m.flags.s1)))
    walked = bytearray(len(parent))  # per class root: holds a walked flag

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    token = [str(v).encode() for v in range(m.n_vertices)]
    header = str(m.n_vertices).encode() + b"\n"
    first: dict[bytes, tuple[list[int], tuple[int, ...]]] = {}
    for start in range(len(parent)):
        r = root(start)
        if walked[r]:
            continue
        walked[r] = 1
        walk = list(flag_walk(m, start))
        perm = _traversal_labels(m, walk)
        faces = sorted([canonical_face([perm[v] for v in f]) for f in m.faces])
        blob = header + b"\n".join(
            [b" ".join([token[v] for v in face]) for face in faces])
        if blob not in first:
            first[blob] = (walk, perm)
            continue
        for x, y in zip(walk, first[blob][0]):
            rx, ry = root(x), root(y)
            if rx != ry:
                parent[rx] = ry
                walked[ry] |= walked[rx]
    best = min(first)
    best_walk, best_perm = first[best]
    winner = root(best_walk[0])
    orbit = tuple(x for x in range(len(parent)) if root(x) == winner)
    kept = m.__dict__["_least_walk"] = (best, best_perm, orbit)
    return kept


def canonical_form(m: PolyhedralMap) -> CanonicalForm:
    """Deterministic relabeling-invariant serialization (``_least_walk``)."""
    form, relabeling, _ = _least_walk(m)
    return CanonicalForm(form, relabeling)


def _traversal_labels(m: PolyhedralMap, walk: list[int]) -> tuple[int, ...]:
    """Vertex labels in the order the flag walk ``walk`` first reaches the
    vertices."""
    vertex = m.flags.vertex
    label = [-1] * m.n_vertices
    nxt = 0
    for x in walk:
        if label[vertex[x]] == -1:
            label[vertex[x]] = nxt
            nxt += 1
    return tuple(label)


def is_vertex_transitive(m: PolyhedralMap) -> bool:
    """Whether the automorphisms carry vertex 0 to every other vertex: the
    flag orbit that ``canonical_form``'s search finds meets every vertex."""
    vertex = m.flags.vertex
    return len({vertex[x] for x in _least_walk(m)[2]}) == m.n_vertices


# -- exact characteristic polynomial ----------------------------------------


class IntPolynomial(NamedTuple):
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
    """Characteristic polynomial det(xI - A) = sum c_k x^(n-k) from the
    power sums p_k = tr(A^k) by Newton's identities
    k c_k = -(c_{k-1} p_1 + ... + c_0 p_k), c_0 = 1; every division is exact.

    Each row of A^k is one integer holding its n entries in b-bit slots
    (Kronecker substitution), so a row of A^k is a sum of rows of A^(k-1),
    one big-integer add per nonzero entry of A.  With r the largest absolute
    row sum of A, every entry of A^k with k <= n is at most r^n in absolute
    value, and 2^(b-1) > r^n keeps each slot apart from its neighbours."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"charpoly needs a square matrix; got row lengths "
                         f"{[len(row) for row in matrix]}")
    rows = [[(j, int(a)) for j, a in enumerate(row) if a] for row in matrix]
    r = max((sum(abs(a) for _, a in row) for row in rows), default=0)
    b = (r ** n).bit_length() + 2
    half = 1 << (b - 1)
    mask = (1 << b) - 1
    # ``half`` in every slot: a negative entry then borrows from no neighbour
    offset = sum(half << (i * b) for i in range(n))
    power = [1 << (i * b) for i in range(n)]  # the rows of A^0 = I
    sums = []  # p_1, p_2, ...
    coeffs = [1]  # c_0, c_1, ...: leading coefficient first
    for k in range(1, n + 1):
        power = [sum(power[j] if a == 1 else a * power[j] for j, a in row)
                 for row in rows]
        sums.append(sum((((row + offset) >> (i * b)) & mask) - half
                        for i, row in enumerate(power)))
        coeffs.append(-sum(c * p for c, p in zip(coeffs, reversed(sums))) // k)
    return IntPolynomial(tuple(reversed(coeffs)))


def adjacency_matrix(m: PolyhedralMap) -> list[list[int]]:
    n = m.n_vertices
    A = [[0] * n for _ in range(n)]
    for (u, v) in m.edges:
        A[u][v] = 1
        A[v][u] = 1
    return A


def edge_graph_char_poly(m: PolyhedralMap) -> IntPolynomial:
    """Characteristic polynomial of the 1-skeleton, ``adjacency_matrix(m)``."""
    return charpoly(adjacency_matrix(m))


# -- homological systole ------------------------------------------------------


class CohomologyInvariantError(RuntimeError):
    """A tree and cotree left other than 2 - chi edges: a defect, not bad input."""


def _bfs(adj: Sequence[Sequence[tuple[int, int]]], root: int) -> tuple[list[int], list]:
    """Breadth-first order from ``root`` over (neighbour, edge) lists, and
    the (parent, edge) first reaching each node, (root, -1) at the root."""
    reach: list = [None] * len(adj)
    reach[root] = (root, -1)
    order = [root]
    for u in order:
        for w, e in adj[u]:
            if reach[w] is None:
                reach[w] = (u, e)
                order.append(w)
    return order, reach


def homological_systole(m: PolyhedralMap) -> int:
    """Length of the shortest 1-skeleton cycle not in the face-boundary
    span over GF(2), from tree-cotree cohomology labels (Eppstein, SODA
    2003; Erickson and Whittlesey, SODA 2005): a cycle is nontrivial
    exactly when its edge labels XOR to nonzero.  Per root, an edge uv
    nontrivial against the breadth-first tree closes a walk of length
    depth(u) + depth(v) + 1, and the least over all roots is exact by
    Thomassen's 3-path condition (README, "The homological systole")."""
    chi = euler_characteristic(m)
    if chi != 0:
        raise NotFlat(f"map has Euler characteristic {chi}, expected 0")
    face = m.flags.face
    n = m.n_vertices
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, w) in enumerate(m.edges):
        adj[u].append((w, e))
        adj[w].append((u, e))
    off_tree = set(range(m.n_edges)) - {e for _, e in _bfs(adj, 0)[1]}
    dual: list[list[tuple[int, int]]] = [[] for _ in m.faces]
    for e in off_tree:
        f, g = face[4 * e], face[4 * e + 1]
        dual[f].append((g, e))
        dual[g].append((f, e))
    order, reach = _bfs(dual, 0)
    leftover = off_tree - {reach[f][1] for f in order}
    if len(leftover) != 2 - chi:
        raise CohomologyInvariantError(
            f"{len(leftover)} edges lie outside the tree and cotree; a map "
            f"of Euler characteristic {chi} leaves {2 - chi}")
    label = [0] * m.n_edges
    rest = [0] * len(m.faces)  # per face: XOR of its labels fixed so far
    for bit, e in enumerate(leftover):
        label[e] = 1 << bit
        rest[face[4 * e]] ^= label[e]
        rest[face[4 * e + 1]] ^= label[e]
    for f in reversed(order[1:]):  # leaf faces first
        parent, e = reach[f]
        label[e] = rest[f]
        rest[parent] ^= rest[f]
    best = 2 * n
    for root in range(n):
        order, reach = _bfs(adj, root)
        depth = [0] * n
        path = [0] * n
        for w in order[1:]:
            u, e = reach[w]
            depth[w] = depth[u] + 1
            path[w] = path[u] ^ label[e]
        for e, (u, w) in enumerate(m.edges):
            if path[u] ^ path[w] ^ label[e]:
                best = min(best, depth[u] + depth[w] + 1)
    return best
