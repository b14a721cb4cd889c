"""Independent reference implementations used only to check the library."""

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from sematlas.core import (PolyhedralMap, canonical_face, edge_key,
                           euler_characteristic, flag_walk)
from sematlas.classify import (
    CanonicalForm,
    IntPolynomial,
    NotFlat,
    _traversal_labels,
    find_isomorphism,
)
from sematlas.enumeration import _embeddings, _Searcher


def _gf2_reduce(vec: int, basis: list[int]) -> int:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def _neighbours(m: PolyhedralMap) -> list[list[int]]:
    """Each vertex's neighbours, ascending, read off the sorted edge list
    alone: the edges (u, x) with u < x all come before the edges (x, w)."""
    adj: list[list[int]] = [[] for _ in range(m.n_vertices)]
    for u, w in m.edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


def face_boundary_basis(m: PolyhedralMap) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Edge-index map and a GF(2) basis of the face-boundary space, one
    E-bit integer per vector."""
    edge_index = {e: i for i, e in enumerate(m.edges)}
    basis: list[int] = []
    for face in m.faces:
        vec = 0
        k = len(face)
        for i in range(k):
            vec ^= 1 << edge_index[edge_key(face[i], face[(i + 1) % k])]
        # a kept vector has every earlier one's leading bit clear: no sort
        vec = _gf2_reduce(vec, basis)
        if vec:
            basis.append(vec)
    return edge_index, basis


def reduction_systole(m: PolyhedralMap) -> int:
    """``homological_systole`` by reducing cycle vectors: the fundamental
    cycles of breadth-first trees rooted at every vertex (tree path to u,
    the non-tree edge {u, v}, tree path back from v, shared tree edges
    cancelling), each an E-bit integer reduced against the face-boundary
    basis."""
    chi = euler_characteristic(m)
    if chi != 0:
        raise NotFlat(f"map has Euler characteristic {chi}, expected 0")
    edge_index, basis = face_boundary_basis(m)
    adj = _neighbours(m)
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
    if best is None:
        raise RuntimeError("flat map must carry a homologically nontrivial cycle")
    return best


def brute_force_systole(m: PolyhedralMap) -> int:
    """Shortest homologically nontrivial cycle by enumerating every simple
    cycle of the 1-skeleton (pruned only at the current best length)."""
    edge_index, basis = face_boundary_basis(m)
    adj = _neighbours(m)
    best = [m.n_edges + 1]

    def walk(start, path, vec):
        for w in adj[path[-1]]:
            if w < start:
                continue
            if w == start and len(path) >= 3:
                cyc = vec ^ (1 << edge_index[edge_key(path[-1], w)])
                if len(path) < best[0] and _gf2_reduce(cyc, basis) != 0:
                    best[0] = len(path)
                continue
            if w in path:
                continue
            if len(path) + 1 >= best[0]:
                continue
            walk(start, path + [w],
                 vec ^ (1 << edge_index[edge_key(path[-1], w)]))

    for start in range(m.n_vertices):
        walk(start, [start], 0)
    assert best[0] <= m.n_edges, "no nontrivial cycle found"
    return best[0]


def meets_cleanly(faces, face) -> bool:
    """Whether ``face`` may join the committed ``faces`` of a polyhedral
    map: it meets each of them in nothing, one vertex or one common edge,
    and none of its edges already lies in two of them."""

    def edges(f):
        return {frozenset((f[i], f[(i + 1) % len(f)])) for i in range(len(f))}

    new_edges = edges(face)
    for other in faces:
        common = set(other) & set(face)
        if len(common) > 2:
            return False
        if len(common) == 2 and (frozenset(common) not in edges(other)
                                 or frozenset(common) not in new_edges):
            return False
    return all(sum(e in edges(other) for other in faces) < 2 for e in new_edges)


def gauss_determinant(matrix) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    assert det.denominator == 1
    return int(det)


def faddeev_leverrier_charpoly(matrix: Sequence[Sequence[int]]) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) by the Faddeev-LeVerrier
    recurrence M_0 = 0, c_0 = 1, M_k = A(M_{k-1} + c_{k-1} I),
    c_k = -tr(M_k) / k, with det(xI - A) = sum c_k x^(n-k); each product
    runs over A's nonzero entries.  Every division is exact, so the result
    is exact over the integers."""
    n = len(matrix)
    rows = [[(j, int(a)) for j, a in enumerate(row) if a] for row in matrix]
    M = [[0] * n for _ in range(n)]
    coeffs = [1]  # c_0, c_1, ...: leading coefficient first
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        product = []
        for row in rows:
            acc = [0] * n
            for j, a in row:
                acc = [s + a * y for s, y in zip(acc, M[j])]
            product.append(acc)
        M = product
        coeffs.append(-sum(M[i][i] for i in range(n)) // k)
    return IntPolynomial(tuple(reversed(coeffs)))


def counting_merged(frags, a, b, size, far, t):
    """``enumeration._merged`` without the placement test: the new
    fragment must embed in the cyclic type ``t`` on its own, and the
    fragments together are checked only by their face count and by the
    count of each face size."""
    if frags is None:
        return False
    ia = ib = -1
    for i, (path, _sizes) in enumerate(frags):
        for u in far:
            if u in path:
                return False
        if a in path:
            if a != path[0] and a != path[-1]:
                return False
            ia = i
        if b in path:
            if b != path[0] and b != path[-1]:
                return False
            ib = i
    if ia != -1 and ia == ib:
        return None if canonical_face(frags[ia][1] + (size,)) == t else False
    path_a, sizes_a = frags[ia] if ia != -1 else ((a,), ())
    if path_a[0] == a:
        path_a, sizes_a = path_a[::-1], sizes_a[::-1]
    path_b, sizes_b = frags[ib] if ib != -1 else ((b,), ())
    if path_b[-1] == b:
        path_b, sizes_b = path_b[::-1], sizes_b[::-1]
    sizes = sizes_a + (size,) + sizes_b
    if not _embeddings(sizes, t):
        return False
    out = tuple(f for i, f in enumerate(frags) if i not in (ia, ib))
    out += ((path_a + far + path_b, sizes),)
    flat = [s for _path, run in out for s in run]
    if len(flat) + len(out) > len(t) or flat.count(size) > t.count(size):
        return False
    return out


def reference_least_walk(m: PolyhedralMap) -> tuple[bytes, tuple[int, ...], list[int]]:
    """``classify._least_walk`` as it was when a walk was paired only with
    the best walk so far, when their serializations were equal: a walk
    that an earlier walk beats pairs with nothing.  The winner's class is
    still its Aut-orbit, so the form, the relabeling and the orbit are the
    ones to match."""
    parent = list(range(len(m.flags.s1)))
    walked = bytearray(len(parent))  # per class root: holds a walked flag

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    token = [str(v).encode() for v in range(m.n_vertices)]
    header = str(m.n_vertices).encode() + b"\n"
    best: Optional[bytes] = None
    best_perm: Optional[tuple[int, ...]] = None
    best_walk: list[int] = []
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
        if best is None or blob < best:
            best, best_perm, best_walk = blob, perm, walk
        elif blob == best:
            for x, y in zip(walk, best_walk):
                rx, ry = root(x), root(y)
                if rx != ry:
                    parent[rx] = ry
                    walked[ry] |= walked[rx]
    winner = root(best_walk[0])
    return best, best_perm, [x for x in range(len(parent)) if root(x) == winner]


def placeable_run_sets(t: tuple[int, ...]) -> set[tuple[tuple[int, ...], ...]]:
    """Every sorted tuple of size runs that a set of pairwise non-adjacent
    arcs on the cycle of positions of the cyclic type ``t`` reads, each
    arc in either direction.  Such arcs are the maximal runs of a set of
    positions that leaves at least one position free."""
    d = len(t)
    got = set()
    for mask in range((1 << d) - 1):
        free = next(i for i in range(d) if not mask >> i & 1)
        arcs, arc = [], []
        # once round the cycle from a free position, ending on it
        for k in range(1, d + 1):
            i = (free + k) % d
            if mask >> i & 1:
                arc.append(i)
            elif arc:
                arcs.append(arc)
                arc = []
        for steps in product((1, -1), repeat=len(arcs)):
            got.add(tuple(sorted(tuple(t[i] for i in arc[::step])
                                 for arc, step in zip(arcs, steps))))
    return got


class ReferenceSearcher(_Searcher):
    """The search without its speed prunes: no forward check, ``_faces``
    tries every lexicographic completion of the face cycle, skipping only
    labels already in it and closed vertices, and keeps a complete one
    when ``_new_fans`` accepts it, and ``_new_fans`` merges each corner
    with ``counting_merged``, which has no placement test."""

    def _new_fans(self, face):
        p = len(face)
        new = []
        for i, v in enumerate(face):
            far = tuple(face[(i - k) % p] for k in range(2, p - 1))
            frags = counting_merged(self.fragments[v], face[i - 1],
                                    face[(i + 1) % p], p, far, self.t)
            if frags is False:
                return None
            new.append(frags)
        return new

    def _dead_end(self, skip):
        return False

    def _faces(self, prefix, size, used_now):
        if len(prefix) == size:
            if self._new_fans(tuple(prefix)) is not None:
                yield tuple(prefix)
            return
        for cand in range(min(used_now + 1, self.n)):
            if cand in prefix or self.fragments[cand] is None:
                continue
            prefix.append(cand)
            yield from self._faces(prefix, size, max(used_now, cand + 1))
            prefix.pop()


def _least_rotation(face: tuple[int, ...]) -> tuple[int, ...]:
    """A face of distinct labels from its least label, in the direction
    whose second label is the smaller."""
    i = face.index(min(face))
    forward = face[i:] + face[:i]
    backward = forward[:1] + forward[:0:-1]
    return min(forward, backward)


def exhaustive_canonical_form(m: PolyhedralMap) -> CanonicalForm:
    """``canonical_form`` without the automorphism cut: the flag traversal
    from every start flag, vertices labelled in first-visit order, and the
    first lexicographically least serialization kept.  Faces are put in
    normal form here, not by the library's ``canonical_face``."""

    def traversal_labels(start):
        vertex = m.flags.vertex
        label = [-1] * m.n_vertices
        nxt = 0
        for x in flag_walk(m, start):
            if label[vertex[x]] == -1:
                label[vertex[x]] = nxt
                nxt += 1
        return tuple(label)

    best: Optional[bytes] = None
    best_perm: Optional[tuple[int, ...]] = None
    for start in range(len(m.flags.s1)):
        perm = traversal_labels(start)
        faces = sorted(_least_rotation(tuple(perm[v] for v in f)) for f in m.faces)
        blob = b"\n".join(
            b" ".join(str(v).encode() for v in face) for face in faces)
        blob = str(m.n_vertices).encode() + b"\n" + blob
        if best is None or blob < best:
            best, best_perm = blob, perm
    return CanonicalForm(best, best_perm)


def pinned_is_vertex_transitive(m: PolyhedralMap) -> bool:
    """``is_vertex_transitive`` by one pinned isomorphism search per vertex
    not yet reached: whether some automorphism carries vertex 0 to every
    other vertex."""
    known = {0}
    for v in range(1, m.n_vertices):
        if v in known:
            continue
        iso = find_isomorphism(m, m, pin=(0, v))
        if iso is None:
            return False
        # images of already-reached vertices extend the orbit for free
        known |= {iso[w] for w in known}
        known.add(v)
    return True
