"""Exhaustive classification of semi-equivelar maps of a given type.

The search mirrors the by-hand case analysis that classifies small maps:
fix one canonical closed fan around vertex 0, then repeatedly pick the
least vertex whose fan is still open and try every face that can extend
it, with fresh vertices always taking the least unused label.  Pruning
uses the exact per-size face budgets, the edge-in-two-faces rule, the
pairwise face-intersection condition, and the requirement that every
partial fan embeds consecutively in the target cyclic type; it fails
first, checking each corner as soon as a candidate face fixes it and
cutting a node when any open edge admits no face at all.  Survivors
are deduplicated by canonical form, so the output lists every map of the
requested type and vertex count exactly once up to isomorphism.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    FaceSeqType,
    PolyhedralMap,
    canonical_face,
    edge_key,
    euler_characteristic,
    face_edges,
    is_orientable,
    is_semi_equivelar,
)
from .classify import canonical_form

BUDGET_ENV = "SEM_ATLAS_BUDGET"

#: The eight face-sequence types with mixed face sizes admitting flat maps.
ALL_FLAT_TYPES = (
    FaceSeqType((3, 3, 3, 4, 4)),
    FaceSeqType((3, 3, 4, 3, 4)),
    FaceSeqType((3, 4, 6, 4)),
    FaceSeqType((4, 8, 8)),
    FaceSeqType((3, 3, 3, 3, 6)),
    FaceSeqType((3, 6, 3, 6)),
    FaceSeqType((3, 12, 12)),
    FaceSeqType((4, 6, 12)),
)

#: One-size types; their flat series are produced by generators instead.
EQUIVELAR_TYPES = (
    FaceSeqType((3, 3, 3, 3, 3, 3)),
    FaceSeqType((4, 4, 4, 4)),
    FaceSeqType((6, 6, 6)),
)


class BudgetExceeded(RuntimeError):
    """Search node budget ran out before the cell was exhausted."""


class SearchInvariantError(RuntimeError):
    """A check on the search or its results failed: a defect, not bad input."""


@dataclass(frozen=True)
class Infeasible:
    """Witness that no map of the type exists on the vertex count."""

    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class FaceCountProfile:
    counts: tuple[tuple[int, int], ...]  # (face size, count), size-sorted
    n_edges: int

    def count(self, size: int) -> int:
        return dict(self.counts).get(size, 0)


def face_counts(t: FaceSeqType, n: int):
    """Per-size face counts forced by the type, or Infeasible.

    A vertex of type ``t`` meets mult(p) faces of size p, and a p-gon has
    p vertices, so count(p) = n * mult(p) / p; any non-integral count
    rules the pair (t, n) out.
    """
    if n < 1:
        return Infeasible("vertex count must be positive")
    counts = []
    for size in sorted(set(t.sizes)):
        num = n * t.multiplicity(size)
        if num % size:
            return Infeasible(
                f"count of {size}-gons would be {num}/{size}, not an integer")
        counts.append((size, num // size))
    if (n * t.degree) % 2:
        return Infeasible(f"odd incidence total {n * t.degree}")
    return FaceCountProfile(tuple(counts), (n * t.degree) // 2)


def star_vertex_bound(t: FaceSeqType) -> int:
    """Vertices needed by the closed star of a single vertex.

    All link vertices of one vertex are distinct in a polyhedral map, so
    the star needs 1 + sum(p - 2) labels; identifications cannot reduce it.
    """
    return 1 + sum(p - 2 for p in t.sizes)


def min_vertices_gate(t: FaceSeqType, n_max: int) -> list[int]:
    """All vertex counts <= n_max passing divisibility and the star bound."""
    lo = star_vertex_bound(t)
    return [n for n in range(lo, n_max + 1)
            if not isinstance(face_counts(t, n), Infeasible)]


def gate_reason(t: FaceSeqType, n_max: int) -> str:
    """Human-readable reason when the gate rejects every n <= n_max."""
    lo = star_vertex_bound(t)
    if lo > n_max:
        return (f"the closed star of one vertex already needs {lo} vertices, "
                f"more than {n_max}")
    divisors = [p // math.gcd(p, t.multiplicity(p)) for p in set(t.sizes)]
    return (f"no n in {lo}..{n_max} gives integral face counts "
            f"(n must be a multiple of {math.lcm(*divisors)} and >= {lo})")


# -- the backtracking search --------------------------------------------------


@lru_cache(maxsize=None)
def _embeddings(sizes: tuple[int, ...], t: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(offset, direction) pairs embedding ``sizes`` as a consecutive run
    of the cyclic sequence ``t``."""
    d = len(t)
    k = len(sizes)
    if k > d:
        return ()
    out = []
    for direction in (1, -1):
        for off in range(d):
            if all(sizes[i] == t[(off + direction * i) % d] for i in range(k)):
                out.append((off, direction))
    return tuple(out)


@lru_cache(maxsize=None)
def _next_sizes(sizes: tuple[int, ...], t: tuple[int, ...]) -> frozenset[int]:
    """Face sizes that may follow ``sizes`` when the fan keeps growing."""
    d = len(t)
    k = len(sizes)
    return frozenset(t[(off + direction * k) % d]
                     for off, direction in _embeddings(sizes, t))


class _Searcher:
    """Depth-first search state; a face is committed whole or not at all.

    Each vertex's fan is an immutable tuple of open fragments, each a
    (neighbours, sizes) pair of tuples; ``()`` before any face meets the
    vertex and None once its fan closes.  ``_try_face`` checks a face
    completely before it changes anything and returns the old fans of the
    face's vertices, from which ``_undo`` reverses the commit.

    ``fast_prunes`` guards the purely-speed prunes: the corner checks
    during candidate generation, which are the one fan test before
    ``_try_face``, the partial face-intersection check, and the forward
    check of every open edge (``_dead_end``).  The search is complete
    with or without them, which the test suite cross-checks on small
    cells.
    """

    def __init__(self, t: FaceSeqType, n: int, profile: FaceCountProfile,
                 budget: Optional[int], fast_prunes: bool = True):
        self.t = t.sizes
        self.deg = len(t.sizes)
        self.n = n
        self.budget = budget
        self.fast_prunes = fast_prunes
        self.nodes = 0
        self.faces: list[tuple[int, ...]] = []
        self.face_sets: list[frozenset[int]] = []
        self.edge_sets: list[frozenset[tuple[int, int]]] = []
        self.edge_uses: dict[tuple[int, int], int] = {}
        self.vertex_faces: list[list[int]] = [[] for _ in range(n)]
        self.fragments: list[Optional[tuple]] = [()] * n
        self.used = 0
        self.budgets = {size: cnt for size, cnt in profile.counts}
        self.results: list[PolyhedralMap] = []
        self.seen_forms: set[bytes] = set()
        #: open edge (v, end) -> (the last face found to fill it, clock)
        self.witnesses: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
        #: commits and undos so far; the count at each vertex's last one
        self.clock = 0
        self.touched = [0] * n

    # -- fans and faces --

    def _merged(self, frags: Optional[tuple], a: int, b: int, size: int):
        """The fan ``frags`` with the corner a-v-b of a ``size``-gon added:
        the new fragment tuple, None when the corner closes the fan, or
        False when the corner cannot be added."""
        if frags is None:
            return False
        ia = ib = -1
        for i, (nbrs, _sizes) in enumerate(frags):
            if nbrs[0] == a or nbrs[-1] == a:
                ia = i
            if nbrs[0] == b or nbrs[-1] == b:
                ib = i
        if ia != -1 and ia == ib:
            nbrs, sizes = frags[ia]
            # the corner joins the two ends of one fragment: the fan closes
            if nbrs[-1] == a and nbrs[0] == b:
                cyc = sizes + (size,)
            elif nbrs[0] == a and nbrs[-1] == b:
                cyc = tuple(reversed(sizes)) + (size,)
            else:
                return False
            if canonical_face(cyc) != self.t:  # self.t is normalised
                return False
            return None
        # orient the fragment ending at a to end there, the one at b to
        # start there; a missing one is the bare neighbour
        nbrs_a, sizes_a = frags[ia] if ia != -1 else ((a,), ())
        if nbrs_a[0] == a:
            nbrs_a, sizes_a = tuple(reversed(nbrs_a)), tuple(reversed(sizes_a))
        nbrs_b, sizes_b = frags[ib] if ib != -1 else ((b,), ())
        if nbrs_b[-1] == b:
            nbrs_b, sizes_b = tuple(reversed(nbrs_b)), tuple(reversed(sizes_b))
        sizes = sizes_a + (size,) + sizes_b
        # prune: the fragments must still fit the cyclic type (the others
        # passed this check when they were made)
        if not _embeddings(sizes, self.t):
            return False
        out = tuple(f for i, f in enumerate(frags) if i not in (ia, ib))
        out += ((nbrs_a + nbrs_b, sizes),)
        if sum(len(s) for _nbrs, s in out) + len(out) > self.deg:
            return False
        return out

    def _meets_cleanly(self, face: tuple[int, ...]) -> bool:
        """Whether ``face`` meets every committed face in at most a vertex
        or a common edge, and finds none of its edges in two faces."""
        fset = frozenset(face)
        edges = frozenset(face_edges(face))
        # pairwise intersection with existing faces
        shared: dict[int, int] = {}
        for v in face:
            if v < self.used:
                for fi in self.vertex_faces[v]:
                    shared[fi] = shared.get(fi, 0) + 1
        for fi, cnt in shared.items():
            if cnt < 2:
                continue
            if cnt > 2:
                return False
            u, w = sorted(fset & self.face_sets[fi])
            if (u, w) not in self.edge_sets[fi] or (u, w) not in edges:
                return False
        return all(self.edge_uses.get(e, 0) < 2 for e in edges)

    def _try_face(self, face: tuple[int, ...]) -> Optional[tuple]:
        """Commit ``face`` if every incremental condition holds; return the
        old fans of its vertices, or None with nothing changed."""
        if not self._meets_cleanly(face):
            return None
        p = len(face)
        old = tuple(self.fragments[v] for v in face)
        new = []
        for i, frags in enumerate(old):
            frags = self._merged(frags, face[i - 1], face[(i + 1) % p], p)
            if frags is False:
                return None
            new.append(frags)
        fid = len(self.faces)
        self.faces.append(face)
        self.face_sets.append(frozenset(face))
        edges = frozenset(face_edges(face))
        self.edge_sets.append(edges)
        for e in edges:
            self.edge_uses[e] = self.edge_uses.get(e, 0) + 1
        self.clock += 1
        for v, frags in zip(face, new):
            self.vertex_faces[v].append(fid)
            self.fragments[v] = frags
            self.touched[v] = self.clock
        return old

    def _undo(self, face: tuple[int, ...], old: tuple) -> None:
        """Reverse the commit of ``face``, the last face committed, given
        the old fans ``_try_face`` returned."""
        self.faces.pop()
        self.face_sets.pop()
        for e in self.edge_sets.pop():
            if self.edge_uses[e] == 1:
                del self.edge_uses[e]
            else:
                self.edge_uses[e] -= 1
        self.clock += 1
        for v, frags in zip(face, old):
            self.vertex_faces[v].pop()
            self.fragments[v] = frags
            self.touched[v] = self.clock

    # -- slot selection and candidate generation --

    def _open_vertex(self) -> Optional[tuple[int, int, tuple[int, ...]]]:
        """Least open vertex, its chosen open end, and allowed next sizes."""
        for v in range(self.used):
            frags = self.fragments[v]
            if not frags:
                continue
            nbrs, sizes = min(frags)
            # extend at the end with the smaller neighbour label
            if nbrs[0] <= nbrs[-1]:
                nbrs, sizes = tuple(reversed(nbrs)), tuple(reversed(sizes))
            return (v, nbrs[-1], self._allowed(sizes))
        return None

    def _allowed(self, sizes: tuple[int, ...]) -> list[int]:
        """Sizes of a face that may glue onto an open edge, where ``sizes``
        is the fan fragment ending at that edge."""
        return [s for s in sorted(_next_sizes(sizes, self.t))
                if self.budgets.get(s, 0) > 0]

    def _dead_end(self, skip: tuple[int, int]) -> bool:
        """Fail first: whether an open edge other than ``skip`` admits no
        face.  Constraints only tighten along a branch (budgets fall, edge
        uses, fans and faces only grow, fresh labels are interchangeable),
        so such an edge stays unfillable and the node has no completion."""
        for v in range(self.used):
            for nbrs, sizes in self.fragments[v] or ():
                for end, run in ((nbrs[-1], sizes), (nbrs[0], sizes[::-1])):
                    # each open edge once, from its smaller vertex
                    if end > v and (v, end) != skip and not self._fillable(v, end, run):
                        return True
        return False

    def _fillable(self, v: int, end: int, sizes: tuple[int, ...]) -> bool:
        """Whether ``_try_face`` would accept some face that ``_faces``
        gives for the open edge {v, end}.  Such a face has passed its
        corner checks there, so ``_meets_cleanly`` decides.

        The edge keeps the last such face as its witness, with fresh labels
        stored as offsets ~k from ``used``, and the clock of that check.
        The verdict on a face reads only its size's budget, the number of
        free labels and the state of its old vertices, so a witness none of
        whose old vertices a commit or undo has touched since is alive as
        it stands.  Otherwise ``_faces`` replays it, so it lives exactly
        when the search would give it now, and the candidates are searched
        again only when it has died."""
        used = self.used
        entry = self.witnesses.get((v, end))
        if entry is not None:
            path, clock = entry
            face = tuple(u if u >= 0 else used + ~u for u in path)
            size = len(face)
            if self.budgets[size] > 0 and max(face) < self.n:
                if all(self.touched[u] <= clock for u in path if u >= 0):
                    return True
                if size in self._allowed(sizes) and any(
                        self._meets_cleanly(f)
                        for f in self._faces([end, v], size, used, face)):
                    self.witnesses[(v, end)] = (path, self.clock)
                    return True
        for size in self._allowed(sizes):
            for face in self._faces([end, v], size, used):
                if self._meets_cleanly(face):
                    path = tuple(u if u < used else ~(u - used) for u in face)
                    self.witnesses[(v, end)] = (path, self.clock)
                    return True
        return False

    def _admissible(self, prefix: list[int], cand: int, size: int) -> bool:
        """Whether ``cand`` may follow ``prefix`` in a ``size``-gon."""
        prev = prefix[-1]
        e = edge_key(prev, cand)
        uses = self.edge_uses.get(e, 0)
        if uses >= 2:
            return False
        if cand >= self.used:
            return True
        if len(self.vertex_faces[cand]) >= self.deg:
            return False
        pcount = 0
        for fi in self.vertex_faces[cand]:
            if len(self.faces[fi]) == size:
                pcount += 1
            if not self.fast_prunes:
                continue
            # partial face-intersection check: once two shared vertices
            # sit at non-adjacent prefix positions (interior), the faces
            # can never meet in just an edge
            fs = self.face_sets[fi]
            others = [i for i, u in enumerate(prefix) if u in fs]
            if not others:
                continue
            if len(others) >= 2:
                return False
            i = others[0]
            j = len(prefix)
            if i == j - 1:
                if edge_key(prefix[i], cand) not in self.edge_sets[fi]:
                    return False
            elif i != 0:
                return False
        return pcount < self.t.count(size)

    def _closes(self, prefix: list[int], size: int) -> bool:
        """Whether the full ``prefix`` may close into a face."""
        last, end = prefix[-1], prefix[0]
        uses = self.edge_uses.get(edge_key(last, end), 0)
        if uses >= 2:
            return False
        if not self.fast_prunes:
            return True
        # the two closing corners, at ``last`` and at ``end``
        if last < self.used and self._merged(
                self.fragments[last], prefix[-2], end, size) is False:
            return False
        return self._merged(self.fragments[end], last, prefix[1], size) is not False

    def _faces(self, prefix: list[int], size: int, used_now: int,
               path: Optional[tuple[int, ...]] = None):
        """Yield the completions of the face cycle (end, v, w, x1, ...,
        x_{size-3}) that ``prefix`` begins, in lexicographic order, fresh
        labels taking the least unused.  Given ``path``, a face starting
        with ``prefix``, yield only ``path``, and only if it is among them.
        A method rather than a self-calling closure, so a call leaves no
        reference cycle behind."""
        if len(prefix) == size:
            if self._closes(prefix, size):
                yield tuple(prefix)
            return
        cap = min(used_now + 1, self.n)
        cands = range(cap)
        prev, ends = prefix[-1], ()
        if self.fast_prunes and prev < self.used:
            # fail first: the next vertex fixes the corner a-prev-cand,
            # which is then ``_try_face``'s verdict (each corner of a face
            # sits at its own vertex).  Every cand ending no fragment of
            # prev's fan gets the verdict of ``self.n``, which is no vertex.
            frags, a = self.fragments[prev], prefix[-2]
            ends = {u for nbrs, _sizes in frags for u in (nbrs[0], nbrs[-1])}
            ends.discard(a)
            if self._merged(frags, a, self.n, size) is False:
                cands = sorted(u for u in ends if u < cap)
        if path is not None:
            cands = [path[len(prefix)]] if path[len(prefix)] in cands else []
        for cand in cands:
            if cand in prefix:
                continue
            if not self._admissible(prefix, cand, size):
                continue
            if cand in ends and self._merged(frags, a, cand, size) is False:
                continue
            prefix.append(cand)
            yield from self._faces(prefix, size, max(used_now, cand + 1), path)
            prefix.pop()

    # -- main recursion --

    def run(self) -> None:
        self._initial_link()
        self._recurse()

    def _initial_link(self) -> None:
        """Fix the canonical closed fan around vertex 0 (the WLOG step)."""
        t = self.t
        self.used = 2
        link0 = [1]
        faces = []
        for i, p in enumerate(t):
            interior = list(range(self.used, self.used + p - 3))
            self.used += p - 3
            if i < len(t) - 1:
                nxt = self.used
                self.used += 1
            else:
                nxt = 1
            faces.append((0, link0[-1], *interior, nxt))
            link0.append(nxt)
        for f in faces:
            self.budgets[len(f)] -= 1
            if self.budgets[len(f)] < 0:
                raise SearchInvariantError("star exceeds face budget")
            if self._try_face(f) is None:
                raise SearchInvariantError("canonical star must glue cleanly")

    def _recurse(self) -> None:
        self.nodes += 1
        slot = self._open_vertex()
        if self.budget is not None and self.nodes > self.budget:
            where = f"least open vertex {slot[0]}" if slot else "no open vertex"
            raise BudgetExceeded(
                f"exceeded {self.budget} search nodes; reached depth "
                f"{len(self.faces)} (faces committed) with {where} "
                f"(set {BUDGET_ENV})")
        if slot is None:
            self._emit_if_complete()
            return
        v, end, allowed = slot
        if self.fast_prunes and self._dead_end((v, end)):
            return
        for size in allowed:
            # drawn up front: the recursion below commits and undoes faces
            for face in list(self._faces([end, v], size, self.used)):
                # fresh labels inside the face advance the used counter
                new_used = max(self.used, 1 + max(face))
                self.budgets[size] -= 1
                old = self._try_face(face)
                if old is not None:
                    old_used = self.used
                    self.used = new_used
                    self._recurse()
                    self.used = old_used
                    self._undo(face, old)
                self.budgets[size] += 1

    def _emit_if_complete(self) -> None:
        if self.used != self.n:
            return
        if any(vv for vv in self.budgets.values()):
            return
        m = PolyhedralMap(self.n, list(self.faces))
        got = is_semi_equivelar(m)
        if got != FaceSeqType(self.t):
            raise SearchInvariantError(
                f"search emitted a map of type {got}, wanted {FaceSeqType(self.t)}")
        form = canonical_form(m).form
        if form not in self.seen_forms:
            self.seen_forms.add(form)
            self.results.append(m)


def _env_budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV)
    return int(raw) if raw else None


def enumerate_sems(t: FaceSeqType, n: int,
                   budget: Optional[int] = None) -> list[PolyhedralMap]:
    """All maps of type ``t`` on ``n`` vertices, one per isomorphism class.

    Deterministic: repeated runs return identical maps in identical order.
    ``budget`` (or the SEM_ATLAS_BUDGET environment variable) caps the
    number of search nodes; exceeding it raises BudgetExceeded.
    """
    profile = face_counts(t, n)
    if isinstance(profile, Infeasible):
        return []
    if n < star_vertex_bound(t):
        return []
    searcher = _Searcher(t, n, profile, budget if budget is not None else _env_budget())
    searcher.run()
    return searcher.results


@dataclass
class ReportRow:
    type: FaceSeqType
    n: int
    total: int
    orientable: int
    non_orientable: int
    maps: list[PolyhedralMap] = field(repr=False, default_factory=list)
    #: ``is_orientable`` of each map, in the order of ``maps``
    orientations: list[bool] = field(repr=False, default_factory=list)
    infeasible_reason: Optional[str] = None


def classify_all(n_max: int, types: Optional[Sequence[FaceSeqType]] = None,
                 jobs: int = 1) -> list[ReportRow]:
    """Classification table over the given types for all feasible n <= n_max.

    A type the gate rejects for every n gets one row with the reason.  Rows
    come sorted by (type, n).  ``jobs > 1`` searches the cells in that many
    processes; the rows are the same either way.
    """
    rows: list[ReportRow] = []
    cells: list[tuple[FaceSeqType, int]] = []
    for t in (types if types is not None else ALL_FLAT_TYPES):
        ns = min_vertices_gate(t, n_max)
        if not ns:
            rows.append(ReportRow(t, 0, 0, 0, 0,
                                  infeasible_reason=gate_reason(t, n_max)))
        cells.extend((t, n) for n in ns)
    if jobs > 1 and cells:
        import multiprocessing  # here, not at the top: the import costs start-up time

        with multiprocessing.Pool(jobs) as pool:
            results = pool.starmap(enumerate_sems, cells)
    else:
        results = [enumerate_sems(t, n) for t, n in cells]
    for (t, n), maps in zip(cells, results):
        for m in maps:
            chi = euler_characteristic(m)
            if chi != 0:
                raise SearchInvariantError(
                    f"enumerated map of type {t} on {n} vertices has "
                    f"chi = {chi}; closed flat types force 0")
        orientations = [is_orientable(m) for m in maps]
        orient = sum(orientations)
        rows.append(ReportRow(t, n, len(maps), orient, len(maps) - orient,
                              maps=maps, orientations=orientations))
    rows.sort(key=lambda r: (r.type.sizes, r.n))
    return rows
