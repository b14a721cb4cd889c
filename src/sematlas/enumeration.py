"""Exhaustive classification of semi-equivelar maps of a given type.

The search mirrors the by-hand case analysis that classifies small maps:
fix one canonical closed fan around vertex 0, then repeatedly pick the
least vertex whose fan is still open and try every face that can extend
it, with fresh vertices always taking the least unused label.  Pruning
uses the exact per-size face budgets and each vertex's fan: no vertex
may appear twice on its link, which is at once the edge-in-two-faces
rule and the pairwise face-intersection condition, and the fragments
of every partial fan must fit the target cyclic type together, each a
consecutive run of it with a face free between each two.  It fails
first, checking each corner as soon as a candidate face fixes it and
cutting a node when any open edge admits no face at all.  A completed
map is kept only when ``find_isomorphism`` finds no isomorphism to a map
already kept, so the output lists every map of the requested type and
vertex count exactly once up to isomorphism, each class by the first map
the search completes in it.  The kept maps are bucketed by the
coefficients of ``edge_graph_char_poly``, which isomorphic maps share, so
``find_isomorphism`` runs only against the maps of the new map's bucket.

``face_counts`` is the one per-cell gate: it gives the faces of each
size that the type and the vertex count force, the search's budgets, or
None when no map fits the cell.  The census (``classify_all``) also
gates out every type whose regular faces' angles at a vertex do not sum
to 360 degrees, so it searches only types that can be flat.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache, partial
from itertools import product
from typing import Optional, Sequence

from .core import (
    FaceSeqType,
    PolyhedralMap,
    euler_characteristic,
    is_orientable,
    is_semi_equivelar,
)
from .classify import edge_graph_char_poly, find_isomorphism

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


class BudgetExceeded(RuntimeError):
    """Search node budget ran out before the cell was exhausted."""


class SearchTooDeep(RuntimeError):
    """The search recursed past the interpreter's limit: it recurses once
    per committed face, so a cell of about a thousand faces is out of reach."""


class BadBudget(ValueError):
    """SEM_ATLAS_BUDGET holds something other than a non-negative integer."""


class SearchInvariantError(RuntimeError):
    """A check on the search or its results failed: a defect, not bad input."""


def star_vertex_bound(t: FaceSeqType) -> int:
    """Vertices needed by the closed star of a single vertex.

    All link vertices of one vertex are distinct in a polyhedral map, so
    the star needs 1 + sum(p - 2) labels; identifications cannot reduce it.
    """
    return 1 + sum(p - 2 for p in t.sizes)


def face_counts(t: FaceSeqType, n: int) -> Optional[dict[int, int]]:
    """{face size: count} forced on a map of type ``t`` on ``n`` vertices,
    or None when the cell (t, n) holds no map.

    A vertex of type ``t`` meets mult(p) faces of size p, and a p-gon has
    p vertices, so count(p) = n * mult(p) / p.  The cell is empty when n is
    below ``star_vertex_bound(t)`` or off the step ``_n_step(t)``.
    Flatness is no part of it: the search runs on any type.
    """
    if n < star_vertex_bound(t) or n % _n_step(t):
        return None
    return {p: n * t.multiplicity(p) // p for p in sorted(set(t.sizes))}


def _angle_sum(t: FaceSeqType) -> str:
    """The degrees of the regular faces' angles at a vertex of type ``t``,
    exact: "360", or a reduced fraction such as "2700/7".  A map of the
    type on n vertices has Euler characteristic n * (360 - sum) / 360, so
    only "360" allows a flat map.  Integer arithmetic, not ``Fraction``,
    whose import of ``decimal`` would cost the census memory."""
    den = math.lcm(*t.sizes)
    num = sum(180 * (p - 2) * den // p for p in t.sizes)
    g = math.gcd(num, den)
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"


def _n_step(t: FaceSeqType) -> int:
    """The step of the vertex counts that ``face_counts`` admits: n must
    make every face count n * mult(p) / p integral and n * deg (twice the
    edge count) even."""
    steps = [p // math.gcd(p, t.multiplicity(p)) for p in set(t.sizes)]
    return math.lcm(2 // math.gcd(2, t.degree), *steps)


def min_vertices_gate(t: FaceSeqType, n_max: int) -> range:
    """The vertex counts n <= n_max that ``face_counts`` admits, the
    multiples of one step at or above ``star_vertex_bound(t)``, as a range,
    so a huge ``n_max`` costs nothing up front; none when the regular
    faces' angles at a vertex do not sum to 360 degrees."""
    if _angle_sum(t) != "360":
        return range(0)
    step = _n_step(t)
    return range(-(-star_vertex_bound(t) // step) * step, n_max + 1, step)


def gate_reason(t: FaceSeqType, n_max: int) -> str:
    """Human-readable reason when the gate rejects every n <= n_max."""
    angles = _angle_sum(t)
    if angles != "360":
        return (f"not flat: the face angles at a vertex sum to {angles} "
                f"degrees, not 360")
    lo = star_vertex_bound(t)
    if lo > n_max:
        return (f"the closed star of one vertex already needs {lo} vertices, "
                f"more than {n_max}")
    return (f"no n in {lo}..{n_max} gives integral face counts "
            f"(n must be a multiple of {_n_step(t)} and >= {lo})")


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


@lru_cache(maxsize=None)
def _placeable(runs: tuple[tuple[int, ...], ...], t: tuple[int, ...]) -> bool:
    """Whether the size runs ``runs`` of one vertex's open fragments fit
    the cyclic type ``t`` together: each a consecutive run of ``t``, in
    either direction, pairwise disjoint and with at least one position
    free between each two.

    A closed fan reads ``t`` around its vertex, and each fragment is a
    run of it.  A vertex lies on at most one fragment, so two fragments
    have distinct ends, and at least one face separates them once the
    fan closes: a fan whose runs cannot be placed so never closes.  Keys
    are multisets of runs of one type, a small finite set, so the cache
    needs no bound."""
    d = len(t)
    if sum(map(len, runs)) + len(runs) > d:
        return False
    # each placement: the positions the run takes, and those with the
    # two beside it, which no other run may take
    options = []
    for run in runs:
        k = len(run)
        options.append([(frozenset((off + step * i) % d for i in range(k)),
                         frozenset((off + step * i) % d for i in range(-1, k + 1)))
                        for off, step in _embeddings(run, t)])
    for choice in product(*options):
        blocked: set[int] = set()
        for own, halo in choice:
            if own & blocked:
                break
            blocked |= halo
        else:
            return True
    return False


@lru_cache(maxsize=4096)
def _merged(frags: Optional[tuple], a: int, b: int, size: int,
            far: tuple[int, ...], t: tuple[int, ...]):
    """The fan ``frags`` with the corner a-v-b of a ``size``-gon added,
    ``far`` its other vertices in order from a to b, in a map of the
    normalised type ``t``: the new fragment tuple, None when the corner
    closes the fan, or False when the corner cannot be added.  A corner
    that joins the two ends of one fragment closes the fan when the
    closed run of sizes is as long as ``t`` and ``_embeddings`` embeds
    it in ``t``, that is when it is a rotation or reflection of the
    type.  A corner that leaves the fan open is refused when a far
    vertex is already on the fan, when a or b lies inside a path, or
    when the fragments' size runs fail ``_placeable``: they must fit the
    cyclic type apart, so one test covers the new fragment's own fit,
    the faces the fan still needs and the count of each size.

    A pure function of immutable fans and the type, so one cache serves
    every search; the forward check re-tests witnesses on fans that have
    not changed, which repeats most calls.  The cache is bounded because
    the search's peak memory is a measured cost."""
    if frags is None:
        return False
    ia = ib = -1
    i = 0
    for path, _sizes in frags:
        # a far vertex on the link would share a face with v but no
        # edge; a neighbour inside a path already has its edge to v
        # in two faces
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
        i += 1
    if ia != -1 and ia == ib:
        # the corner joins the two ends of one fragment: the fan closes,
        # and its cycle of sizes, as long as the type, must be a run of it
        run = frags[ia][1] + (size,)
        return None if len(run) == len(t) and _embeddings(run, t) else False
    # orient the fragment ending at a to end there, the one at b to
    # start there; a missing one is the bare neighbour
    path_a, sizes_a = frags[ia] if ia != -1 else ((a,), ())
    if path_a[0] == a:
        path_a, sizes_a = path_a[::-1], sizes_a[::-1]
    path_b, sizes_b = frags[ib] if ib != -1 else ((b,), ())
    if path_b[-1] == b:
        path_b, sizes_b = path_b[::-1], sizes_b[::-1]
    new = (path_a + far + path_b, sizes_a + (size,) + sizes_b)
    if ia == ib == -1:
        out = frags + (new,)
    else:
        out = tuple([f for j, f in enumerate(frags)
                     if j != ia and j != ib]) + (new,)
    if not _placeable(tuple(sorted([run for _path, run in out])), t):
        return False
    return out


class _Searcher:
    """Depth-first search state with one acceptance test per face.

    Each vertex's fan is an immutable tuple of open fragments, each a
    (link path, sizes) pair of tuples: the path runs neighbour, the far
    vertices of a face, neighbour, and so on around the vertex, so its
    two ends are the fragment's open neighbours.  A fan is ``()`` before
    any face meets the vertex and None once it closes.  ``_new_fans``
    decides, without changing anything, whether a face may be committed:
    every corner's fan merge accepts it.  The merge is the module-level
    ``_merged``, a cached pure function of the fan, the corner and the
    type, so its cache keeps no reference to a searcher.  No vertex may
    appear twice on a link, so the merge alone decides how faces
    intersect and how many faces hold an edge.  ``_faces`` yields only
    such faces, so ``_commit`` cannot fail.  ``_commit`` and ``_undo``
    alone move the search state: the faces, the fans, the face budgets
    and ``used``, the count of labels taken.  ``_commit`` returns the
    old fans of the face's vertices and the old ``used``, from which
    ``_undo`` reverses it.  The fan list reaches ``max(t)`` labels past
    ``used``, every label a face can take, not ``n``: a cell's size
    costs no memory before the search reaches it.

    The search fails first: the corner checks during candidate
    generation, the test of each candidate vertex's link paths against
    the face built so far, and the forward check of every open edge
    (``_dead_end``) only cut sooner what ``_new_fans`` would refuse.
    The test suite's ``ReferenceSearcher`` searches without them and
    finds the same maps on small cells.  The forward check keeps one
    witness face per open edge and re-tests it only at the corners
    whose fan has changed (``_fillable``); it searches an edge anew
    fresh labels first, while the branching takes faces in
    lexicographic order, which fixes the maps emitted.
    """

    def __init__(self, t: FaceSeqType, n: int, budget: Optional[int]):
        self.type = t
        self.t = t.sizes
        self.deg = len(t.sizes)
        self.n = n
        self.budget = budget
        self.nodes = 0
        self.faces: list[tuple[int, ...]] = []
        #: the fans of labels below ``used + max(t)``; the rest are ``()``
        self.fragments: list[Optional[tuple]] = [()] * max(self.t)
        self.used = 0
        self.budgets = face_counts(t, n)
        self.results: list[PolyhedralMap] = []
        #: ``edge_graph_char_poly`` coefficients -> the kept maps with them
        self.buckets: dict[tuple[int, ...], list[PolyhedralMap]] = {}
        #: open edge (v, end) -> the last face found to fill it, fresh
        #: labels stored as offsets ~k from ``used``, and the fans of its
        #: vertices when it was last accepted
        self.witnesses: dict[tuple[int, int], tuple[tuple, tuple]] = {}

    # -- fans and faces --

    def _corner(self, face: tuple[int, ...], i: int):
        """``_merged`` on the corner of ``face`` at its ``i``-th vertex,
        with the type ``self.t``: the vertex's fan once ``face`` is
        committed, or False when the corner is refused."""
        p = len(face)
        return _merged(self.fragments[face[i]], face[i - 1],
                       face[(i + 1) % p], p,
                       (face[i:] + face[:i])[-2:1:-1], self.t)

    def _new_fans(self, face: tuple[int, ...]) -> Optional[list]:
        """The fans of ``face``'s vertices once it is committed, or None
        when it may not be: ``_corner`` at each vertex.  The one
        acceptance test; it changes nothing."""
        new = []
        for i in range(len(face)):
            frags = self._corner(face, i)
            if frags is False:
                return None
            new.append(frags)
        return new

    def _commit(self, face: tuple[int, ...], fans: list) -> tuple:
        """Commit ``face`` with the fans ``_new_fans`` gave it, taking one
        face of its size from the budget; fresh labels in it advance
        ``used``, and the fan list by as many ``()``.  Return the old fans
        of its vertices and the old ``used``."""
        used = self.used
        old = (tuple(self.fragments[v] for v in face), used)
        self.faces.append(face)
        self.budgets[len(face)] -= 1
        self.used = max(used, 1 + max(face))
        self.fragments += [()] * (self.used - used)
        for v, frags in zip(face, fans):
            self.fragments[v] = frags
        return old

    def _undo(self, face: tuple[int, ...], old: tuple) -> None:
        """Reverse the commit of ``face``, the last face committed, given
        what ``_commit`` returned."""
        fans, used = old
        self.faces.pop()
        self.budgets[len(face)] += 1
        for v, frags in zip(face, fans):
            self.fragments[v] = frags
        # the fans ``_commit`` appended are all ``()`` again
        del self.fragments[len(self.fragments) - (self.used - used):]
        self.used = used

    # -- slot selection and candidate generation --

    def _open_vertex(self) -> Optional[tuple[int, int]]:
        """Least open vertex and its chosen open end."""
        for v in range(self.used):
            frags = self.fragments[v]
            if not frags:
                continue
            path, _sizes = min(frags)
            # extend at the end with the smaller neighbour label
            return (v, min(path[0], path[-1]))
        return None

    def _run(self, v: int, end: int) -> tuple[int, ...]:
        """Sizes of the fragment of ``v``'s fan that ends at ``end``, in
        order towards ``end``."""
        for path, sizes in self.fragments[v]:
            if path[-1] == end:
                return sizes
            if path[0] == end:
                return sizes[::-1]
        raise SearchInvariantError(f"{v}-{end} is no open edge")

    def _allowed(self, v: int, end: int) -> list[int]:
        """Sizes of a face that may glue onto the open edge {v, end}: the
        fragments ending at the edge, at both of its ends, must extend by
        the size, and the size must have budget left."""
        both = (_next_sizes(self._run(v, end), self.t)
                & _next_sizes(self._run(end, v), self.t))
        return [s for s in sorted(both) if self.budgets[s] > 0]

    def _dead_end(self, skip: tuple[int, int]) -> bool:
        """Fail first: whether an open edge other than ``skip`` admits no
        face.  Constraints only tighten along a branch (budgets fall, fans
        and faces only grow, fresh labels are interchangeable), so such an
        edge stays unfillable and the node has no completion."""
        for v in range(self.used):
            for path, _sizes in self.fragments[v] or ():
                for end in (path[-1], path[0]):
                    # each open edge once, from its smaller vertex
                    if end > v and (v, end) != skip and not self._fillable(v, end):
                        return True
        return False

    def _fillable(self, v: int, end: int) -> bool:
        """Whether ``_faces`` gives some face for the open edge {v, end}.

        The edge keeps the last face found as its witness, with the fans
        of the face's vertices when it was last accepted.  The witness is
        alive when its fresh labels (offsets from ``used``) are distinct
        and below ``n`` and its size has budget left, and ``_merged``
        accepts every corner whose vertex's fan is no longer the stored
        object.  That is exact: the witness keeps each stored fan alive,
        so no other fan takes its ``id``; a fan that is the same object
        holds only labels below ``used``, then and now, and fresh labels
        lie on no fan, so ``_merged``'s verdict at that corner stands.
        A live witness takes the current fans.  A dead one, or one that
        holds a label a backtrack freed and the fan list no longer
        reaches, sends the edge back to ``_faces``, fresh labels first:
        a witness that takes fresh labels meets few used vertices, whose
        fans are the ones that change."""
        used = self.used
        fragments = self.fragments
        witness = self.witnesses.get((v, end))
        if witness is not None:
            labels, fans = witness
            face = tuple([u if u >= 0 else used + ~u for u in labels])
            top = max(face)
            if (top < self.n and top < len(fragments)
                    and len(set(face)) == len(face)
                    and self.budgets[len(face)] > 0):
                now = tuple([fragments[u] for u in face])
                for i, fan in enumerate(now):
                    if fan is not fans[i] and self._corner(face, i) is False:
                        break
                else:
                    self.witnesses[(v, end)] = (labels, now)
                    return True
        for size in self._allowed(v, end):
            for face in self._faces([end, v], size, used, fresh_first=True):
                self.witnesses[(v, end)] = (
                    tuple(u if u < used else ~(u - used) for u in face),
                    tuple(fragments[u] for u in face))
                return True
        return False

    def _admissible(self, prefix: list[int], cand: int) -> bool:
        """Whether ``cand`` may follow ``prefix`` in a face."""
        if cand >= self.used:
            return True
        frags = self.fragments[cand]
        if frags is None:
            return False
        # cand's link may hold only the prefix's last vertex, along an
        # edge in one face, or its first, where the face may close: any
        # other prefix vertex there would share a second face with cand
        inner = prefix[1:-1]
        for path, _sizes in frags:
            if path[0] in inner or path[-1] in inner:
                return False
            for u in path[1:-1]:
                if u in prefix:
                    return False
        return True

    def _closes(self, prefix: list[int], size: int) -> bool:
        """Whether the full ``prefix`` may close into a face that
        ``_new_fans`` accepts."""
        # the other corners passed while the prefix grew, and
        # ``_admissible`` kept each vertex off the links of all but the
        # first; the two closing corners remain, and the one at ``end``
        # also checks its far vertices
        last, end = prefix[-1], prefix[0]
        if last < self.used and _merged(
                self.fragments[last], prefix[-2], end, size, (), self.t) is False:
            return False
        return _merged(self.fragments[end], last, prefix[1], size,
                       tuple(prefix[-2:1:-1]), self.t) is not False

    def _faces(self, prefix: list[int], size: int, used_now: int,
               fresh_first: bool = False):
        """Yield the faces that may be committed among the completions of
        the face cycle (end, v, w, x1, ..., x_{size-3}) that ``prefix``
        begins, fresh labels taking the least unused: in lexicographic
        order, which the branching follows, or with ``fresh_first`` in
        the reverse order of each position's candidates, which only the
        forward check asks for.  The loop that picks the last position's
        candidates tests each with ``_closes`` itself, with no call of
        its own.  A method rather than a self-calling closure, so a call
        leaves no reference cycle behind."""
        cap = min(used_now + 1, self.n)
        cands = range(cap - 1, -1, -1) if fresh_first else range(cap)
        prev, ends = prefix[-1], ()
        if prev < self.used:
            # fail first: the next vertex fixes the corner a-prev-cand,
            # which is then ``_new_fans``'s verdict there (each corner of
            # a face sits at its own vertex), save for its far vertices,
            # which ``_admissible`` and ``_closes`` check.  Every cand
            # ending no fragment of prev's fan gets the verdict of
            # ``self.n``, which is no vertex; ``_admissible`` refuses one
            # inside a path.
            frags, a = self.fragments[prev], prefix[-2]
            ends = {u for path, _sizes in frags for u in (path[0], path[-1])}
            ends.discard(a)
            if _merged(frags, a, self.n, size, (), self.t) is False:
                cands = sorted((u for u in ends if u < cap), reverse=fresh_first)
        for cand in cands:
            if cand in prefix:
                continue
            if not self._admissible(prefix, cand):
                continue
            if cand in ends and _merged(frags, a, cand, size, (), self.t) is False:
                continue
            prefix.append(cand)
            if len(prefix) < size:
                yield from self._faces(prefix, size, max(used_now, cand + 1),
                                       fresh_first)
            elif self._closes(prefix, size):
                yield tuple(prefix)
            prefix.pop()

    # -- main recursion --

    def run(self) -> None:
        self._initial_link()
        self._recurse()

    def _initial_link(self) -> None:
        """Fix the canonical closed fan around vertex 0 (the WLOG step):
        its faces in the order of the type, each from the last link
        vertex through fresh labels to the next.  ``face_counts`` admits
        no n below the star's labels, so the budgets hold the star."""
        fresh, prev = 2, 1
        for i, p in enumerate(self.t):
            nxt = fresh + p - 3 if i < self.deg - 1 else 1
            face = (0, prev, *range(fresh, fresh + p - 3), nxt)
            fresh, prev = fresh + p - 2, nxt
            fans = self._new_fans(face)
            if fans is None:
                raise SearchInvariantError("canonical star must glue cleanly")
            self._commit(face, fans)

    def _recurse(self) -> None:
        self.nodes += 1
        slot = self._open_vertex()
        if self.budget is not None and self.nodes > self.budget:
            where = f"least open vertex {slot[0]}" if slot else "no open vertex"
            raise BudgetExceeded(
                f"exceeded {self.budget} search nodes in cell "
                f"{self.type}, n = {self.n}; reached depth "
                f"{len(self.faces)} (faces committed) with {where} "
                f"(set {BUDGET_ENV})")
        if slot is None:
            self._emit_if_complete()
            return
        v, end = slot
        if self._dead_end(slot):
            return
        for size in self._allowed(v, end):
            # drawn up front: the recursion below commits and undoes faces
            for face in list(self._faces([end, v], size, self.used)):
                old = self._commit(face, self._new_fans(face))
                self._recurse()
                self._undo(face, old)

    def _emit_if_complete(self) -> None:
        """Keep the completed map unless it is isomorphic to a kept one.

        Isomorphic maps have equal ``edge_graph_char_poly`` coefficients,
        the map's bucket key, so ``find_isomorphism``, the one test of
        sameness, runs only against the kept maps of the same bucket; the
        key only skips pairs it proves distinct.  The first map of each
        class still wins, and ``results`` keeps the order of completion."""
        if self.used != self.n:
            return
        if any(vv for vv in self.budgets.values()):
            return
        m = PolyhedralMap(self.n, list(self.faces))
        got = is_semi_equivelar(m)
        if got != self.type:
            raise SearchInvariantError(
                f"search emitted a map of type {got}, wanted {self.type}")
        bucket = self.buckets.setdefault(edge_graph_char_poly(m).coefficients, [])
        if all(find_isomorphism(m, kept) is None for kept in bucket):
            bucket.append(m)
            self.results.append(m)


def _env_budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV)
    # ASCII digits only: ``int`` also reads other scripts' digits
    if raw and not (raw.isascii() and raw.isdigit()):
        raise BadBudget(f"{BUDGET_ENV}={raw!r} is not a non-negative integer")
    return int(raw) if raw else None


def enumerate_sems(t: FaceSeqType, n: int,
                   budget: Optional[int] = None) -> list[PolyhedralMap]:
    """All maps of type ``t`` on ``n`` vertices, one per isomorphism class.

    Deterministic: repeated runs return identical maps in identical order.
    ``budget`` (or the SEM_ATLAS_BUDGET environment variable) caps the
    number of search nodes; exceeding it raises BudgetExceeded, and a
    malformed variable BadBudget.
    """
    return _search_cell(t, n, _env_budget() if budget is None else budget)


def _search_cell(t: FaceSeqType, n: int,
                 budget: Optional[int]) -> list[PolyhedralMap]:
    """``enumerate_sems`` with ``budget`` as given, None for no cap: the
    environment is not read.  The census runs it through ``_cell_row``."""
    if face_counts(t, n) is None:
        return []
    searcher = _Searcher(t, n, budget)
    try:
        searcher.run()
    except RecursionError:
        # the search recurses once per face; a shallower overflow came
        # from elsewhere and is not the cell's depth
        if 2 * len(searcher.faces) < sys.getrecursionlimit():
            raise
        raise SearchTooDeep(
            f"cell {t}, n = {n}: the search reached depth "
            f"{len(searcher.faces)} (faces committed), past the "
            f"interpreter's recursion limit") from None
    return searcher.results


class ReportRow:
    """One census cell, its maps one per class; or, with ``n`` 0 and no
    maps, a type the gate rejects for every n, with the reason.  The counts
    are read off ``maps`` and ``orientations``, so they cannot disagree.
    ``orientations`` holds ``is_orientable`` of each map, in the order of
    ``maps``; each row gets its own lists when none are given."""

    __slots__ = ("type", "n", "maps", "orientations", "infeasible_reason")

    def __init__(self, type: FaceSeqType, n: int,
                 maps: Optional[list[PolyhedralMap]] = None,
                 orientations: Optional[list[bool]] = None,
                 infeasible_reason: Optional[str] = None):
        self.type = type
        self.n = n
        self.maps = [] if maps is None else maps
        self.orientations = [] if orientations is None else orientations
        self.infeasible_reason = infeasible_reason

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return (f"ReportRow(type={self.type!r}, n={self.n!r}, "
                f"infeasible_reason={self.infeasible_reason!r})")

    @property
    def total(self) -> int:
        return len(self.maps)

    @property
    def orientable(self) -> int:
        return sum(self.orientations)

    @property
    def non_orientable(self) -> int:
        return self.total - self.orientable


def _cell_row(cell: tuple[FaceSeqType, int], budget: Optional[int]) -> ReportRow:
    """The census row of one cell: its maps, each checked to have Euler
    characteristic 0, and their orientability.  Module-level, so worker
    processes can run it."""
    t, n = cell
    maps = _search_cell(t, n, budget)
    for m in maps:
        chi = euler_characteristic(m)
        if chi != 0:
            raise SearchInvariantError(
                f"enumerated map of type {t} on {n} vertices has "
                f"chi = {chi}; closed flat types force 0")
    return ReportRow(t, n, maps, [is_orientable(m) for m in maps])


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def classify_all(n_max: int, types: Optional[Sequence[FaceSeqType]] = None,
                 jobs: int = 1) -> list[ReportRow]:
    """Classification table over the given types for all feasible n <= n_max.

    A type the gate rejects for every n gets one row with the reason.  A
    type named twice is searched once.  Rows come sorted by (type, n).
    SEM_ATLAS_BUDGET is read once, before any cell is searched.  The cells
    are searched as the gate yields them, so a budget ends even a census
    with a huge ``n_max`` at its first cell that exhausts it.  ``jobs > 1``
    searches them in a pool of ``jobs`` processes, capped at the usable
    CPUs (``usable_cpus``) and at the cells; where the cap leaves one, no
    process starts.  The rows, and the error a failing cell raises (the
    first in census order), are the same either way.
    """
    gates = {t: min_vertices_gate(t, n_max)
             for t in (types if types is not None else ALL_FLAT_TYPES)}
    rows = [ReportRow(t, 0, infeasible_reason=gate_reason(t, n_max))
            for t, ns in gates.items() if not ns]
    cells = ((t, n) for t, ns in gates.items() for n in ns)
    row = partial(_cell_row, budget=_env_budget())
    procs = min(jobs, usable_cpus())
    # each range is sliced before ``len``, which overflows past sys.maxsize
    procs = min(procs, sum(len(ns[:procs]) for ns in gates.values()))
    if procs > 1:
        import multiprocessing  # here, not at the top: the import costs start-up time

        # ``imap`` draws the cells lazily (its feeder thread waits while
        # the workers' pipe is full) and yields the rows in census order,
        # so a failure is the one that one process raises
        with multiprocessing.Pool(procs) as pool:
            rows += pool.imap(row, cells)
    else:
        rows += map(row, cells)
    rows.sort(key=lambda r: (r.type.sizes, r.n))
    return rows
