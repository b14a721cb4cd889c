import gc
import hashlib
import multiprocessing
import os
import re
from collections import Counter
from itertools import product

import pytest

from sematlas import enumeration
from sematlas.classify import IntPolynomial, canonical_form, find_isomorphism
from sematlas.core import (
    FaceSeqType,
    PolyhedralMap,
    canonical_face,
    euler_characteristic,
    is_orientable,
    is_semi_equivelar,
)
from sematlas.enumeration import (
    BudgetExceeded,
    SearchInvariantError,
    classify_all,
    enumerate_sems,
    face_counts,
    gate_reason,
    min_vertices_gate,
    star_vertex_bound,
)
from sematlas.semmap import serialize

from oracles import ReferenceSearcher, meets_cleanly, placeable_run_sets

T334 = FaceSeqType((3, 3, 3, 4, 4))


class TestFaceCounts:
    def test_example_10(self):
        counts = face_counts(T334, 10)
        assert counts == {3: 10, 4: 5}
        # each edge lies in two faces and at two vertices: 2E = n * deg
        assert sum(p * c for p, c in counts.items()) == 10 * T334.degree == 2 * 25

    def test_parity_infeasible(self):
        assert face_counts(T334, 9) is None

    def test_below_the_star_bound(self):
        # the counts are integral (4 triangles, 2 quads, 10 edges), but
        # one vertex's closed star needs 8 vertices
        assert face_counts(T334, 4) is None
        assert enumerate_sems(T334, 4) == []

    def test_kagome_counts(self):
        assert face_counts(FaceSeqType((3, 6, 3, 6)), 12) == {3: 8, 6: 4}


class TestGate:
    def test_small_type_range(self):
        assert list(min_vertices_gate(T334, 15)) == [8, 10, 12, 14]

    def test_large_links_infeasible(self):
        assert list(min_vertices_gate(FaceSeqType((3, 12, 12)), 20)) == []
        assert list(min_vertices_gate(FaceSeqType((4, 6, 12)), 20)) == []

    def test_star_bounds_are_constructive(self):
        assert star_vertex_bound(FaceSeqType((3, 12, 12))) == 22
        assert star_vertex_bound(T334) == 8
        assert star_vertex_bound(FaceSeqType((4, 8, 8))) == 15

    def test_the_gate_is_the_face_count_filter(self):
        """The gate computes the admissible n arithmetically; it must give
        exactly the n that ``face_counts`` admits, for every flat type
        (and none for the others) at every n_max <= 60.  The step alone
        must reproduce ``face_counts`` on every type, flat or not, so the
        parity of n * deg is checked too: (5,5,5) needs even n."""
        from itertools import combinations_with_replacement

        from sematlas.enumeration import _angle_sum, _n_step

        types = {FaceSeqType(sizes)
                 for deg, pool in ((3, (3, 4, 5, 6, 7, 8, 9, 10, 12, 15,
                                        18, 20, 24, 42)),
                                   (4, range(3, 13)), (5, range(3, 9)),
                                   (6, range(3, 7)))
                 for sizes in combinations_with_replacement(pool, deg)}
        flat = 0
        for t in types:
            admitted = [n for n in range(61) if face_counts(t, n) is not None]
            assert admitted == [n for n in range(star_vertex_bound(t), 61)
                                if n % _n_step(t) == 0], t
            is_flat = _angle_sum(t) == "360"
            flat += is_flat
            for n_max in range(61):
                want = [n for n in admitted if n <= n_max] if is_flat else []
                assert list(min_vertices_gate(t, n_max)) == want, (t, n_max)
        assert _n_step(FaceSeqType((5, 5, 5))) == 10
        assert flat == 17

    def test_gate_reasons(self):
        assert "22" in gate_reason(FaceSeqType((3, 12, 12)), 20)
        assert "12" in gate_reason(FaceSeqType((4, 6, 12)), 20)


class TestSearch:
    def test_smallest_cell_empty(self):
        assert enumerate_sems(T334, 8) == []

    def test_ten_vertex_cell(self, t_1_10, k_1_10):
        maps = enumerate_sems(T334, 10)
        assert len(maps) == 2
        found = {frozenset((find_isomorphism(m, t_1_10) is not None,
                            find_isomorphism(m, k_1_10) is not None))
                 for m in maps}
        assert found == {frozenset({True, False})}

    def test_outputs_validate_and_match_type(self):
        for m in enumerate_sems(T334, 12):
            assert is_semi_equivelar(m) == T334
            assert euler_characteristic(m) == 0

    def test_pairwise_non_isomorphic(self):
        maps = enumerate_sems(T334, 12)
        for i, a in enumerate(maps):
            for b in maps[i + 1:]:
                assert find_isomorphism(a, b) is None

    def test_budget_counts_match_profile(self):
        for m in enumerate_sems(T334, 12):
            assert Counter(len(f) for f in m.faces) == face_counts(T334, 12)

    def test_deterministic(self):
        a = [canonical_form(m).form for m in enumerate_sems(T334, 12)]
        b = [canonical_form(m).form for m in enumerate_sems(T334, 12)]
        assert a == b

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            enumerate_sems(T334, 12, budget=5)

    def test_budget_exceeded_says_how_far_it_got(self):
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_sems(T334, 12, budget=5)
        got = re.search(r"depth (\d+) \(faces committed\) with least open "
                        r"vertex (\d+)", str(exc.value))
        assert got, str(exc.value)
        depth, vertex = map(int, got.groups())
        # past the five faces of the fixed star around vertex 0, short of
        # the map's 15; vertex 0's own fan is closed
        assert 5 < depth < 15 and 0 < vertex < 12
        assert "in cell (3,3,3,4,4), n = 12;" in str(exc.value)

    def test_fans_are_not_sized_by_n(self):
        """The fan list covers the labels a face can take, not ``n``, so a
        huge cell allocates nothing up front."""
        from sematlas.enumeration import _Searcher

        assert len(_Searcher(T334, 2**62, None).fragments) == 4

    def test_emitted_type_check_is_not_an_assert(self, monkeypatch):
        # a typed error survives ``python -O``, which strips asserts
        monkeypatch.setattr(enumeration, "is_semi_equivelar", lambda m: None)
        with pytest.raises(SearchInvariantError):
            enumerate_sems(T334, 10)

    def test_a_shallow_recursion_error_is_not_search_too_deep(self, monkeypatch):
        """Only an overflow at a depth near the interpreter's limit is the
        search's own; one raised a few faces deep comes through unchanged."""
        calls = []

        def overflow(self, slot):
            calls.append(len(self.faces))
            if len(calls) == 3:
                raise RecursionError("injected")
            return False

        monkeypatch.setattr(enumeration._Searcher, "_dead_end", overflow)
        with pytest.raises(RecursionError, match="injected"):
            enumerate_sems(T334, 12)
        assert calls[-1] < 20

    def test_search_leaves_no_reference_cycles(self):
        # everything the search allocates is freed by reference counting
        gc.collect()
        gc.disable()
        try:
            enumerate_sems(FaceSeqType((3, 3, 3, 4, 4)), 12)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_one_kagome_square_map(self):
        maps = enumerate_sems(FaceSeqType((3, 3, 4, 3, 4)), 12)
        assert len(maps) == 1
        assert not is_orientable(maps[0])


class _NoWitnesses(dict):
    """A witness table whose lookups always miss."""

    def get(self, key, default=None):
        return default


def _open_edges(s):
    """Each open edge (v, end), v < end, of a searcher's fans."""
    return [(v, end) for v in range(s.used) for path, _sizes in s.fragments[v] or ()
            for end in (path[-1], path[0]) if end > v]


PRUNE_CELLS = [
    ((3, 3, 3, 4, 4), 10),
    ((3, 3, 3, 4, 4), 12),
    ((3, 3, 4, 3, 4), 12),
    ((3, 4, 6, 4), 18),
    ((3, 6, 3, 6), 15),
    ((4, 8, 8), 16),
]


#: search nodes of the reference search (no speed prunes) on PRUNE_CELLS
REFERENCE_NODES = {
    ((3, 3, 3, 4, 4), 10): 51,
    ((3, 3, 3, 4, 4), 12): 199,
    ((3, 3, 4, 3, 4), 12): 258,
    ((3, 4, 6, 4), 18): 227,
    ((3, 6, 3, 6), 15): 8,
    ((4, 8, 8), 16): 1,
}


class TestPruneSoundness:
    @pytest.mark.parametrize("sizes,n", PRUNE_CELLS)
    def test_speed_prunes_change_nothing(self, sizes, n):
        """The lookahead prunes must be pure accelerators: the reference
        search, which runs without them, yields the identical maps in the
        identical order, from a tree whose size is pinned."""
        from sematlas.enumeration import _Searcher

        t = FaceSeqType(sizes)
        results = []
        for cls in (_Searcher, ReferenceSearcher):
            s = cls(t, n, None)
            s.run()
            results.append([serialize(m) for m in s.results])
        assert results[0] == results[1]
        assert s.nodes == REFERENCE_NODES[(sizes, n)]

    @pytest.mark.parametrize("sizes,n", PRUNE_CELLS)
    def test_witnesses_change_nothing(self, sizes, n):
        """A witness only spares a search: when every lookup misses, the
        forward check searches every open edge anew at every node, and the
        tree and the maps stay the same."""
        from sematlas.enumeration import _Searcher

        t = FaceSeqType(sizes)
        results = {}
        for forget in (False, True):
            s = _Searcher(t, n, None)
            if forget:
                s.witnesses = _NoWitnesses()
            s.run()
            results[forget] = (s.nodes, [serialize(m) for m in s.results])
        assert results[True] == results[False]

    @pytest.mark.parametrize("sizes,n", PRUNE_CELLS)
    def test_each_witness_verdict_is_a_fresh_search(self, sizes, n):
        """At every node, every open edge's ``_fillable`` verdict, which
        re-tests a witness only at the corners whose fan changed, is the
        verdict of searching the edge anew in lexicographic order with no
        witness.  Witnesses are recorded deep in the tree and replayed
        after backtracks, so this checks them where they are stalest."""
        from sematlas.enumeration import _Searcher

        verdicts = Counter()

        class Checked(_Searcher):
            def _dead_end(self, skip):
                for v, end in _open_edges(self):
                    fresh = any(True for size in self._allowed(v, end)
                                for _face in self._faces([end, v], size, self.used))
                    got = self._fillable(v, end)
                    assert got == fresh, (v, end, self.faces)
                    verdicts[got] += 1
                return super()._dead_end(skip)

        s = Checked(FaceSeqType(sizes), n, None)
        s.run()
        plain = _Searcher(FaceSeqType(sizes), n, None)
        plain.run()
        assert s.nodes == plain.nodes
        assert verdicts[True] > 0
        if s.nodes > 1:
            assert verdicts[False] > 0

    @pytest.mark.parametrize("sizes,n", [((3, 3, 3, 4, 4), 10),
                                         ((3, 3, 4, 3, 4), 12)])
    def test_fresh_first_order_yields_the_same_faces(self, sizes, n):
        """The forward check's fresh-first order of ``_faces`` and the
        branching's lexicographic order give the same faces, each once,
        for every open edge and allowed size at every node."""
        from sematlas.enumeration import _Searcher

        reordered = []

        class Checked(_Searcher):
            def _dead_end(self, skip):
                for edge in _open_edges(self):
                    for v, end in (edge, edge[::-1]):
                        for size in self._allowed(v, end):
                            lex = list(self._faces([end, v], size, self.used))
                            fresh = list(self._faces([end, v], size, self.used,
                                                     fresh_first=True))
                            assert len(set(fresh)) == len(fresh)
                            assert sorted(fresh) == lex
                            reordered.append(fresh != lex)
                return super()._dead_end(skip)

        Checked(FaceSeqType(sizes), n, None).run()
        assert any(reordered) and not all(reordered)

    @pytest.mark.parametrize("sizes,n", [((3, 3, 3, 4, 4), 10),
                                         ((3, 3, 4, 3, 4), 12)])
    def test_fan_test_refuses_unclean_faces(self, sizes, n):
        """The fan merges alone refuse every face that meets a committed
        face in more than a vertex or a common edge, or puts an edge in a
        third face; the reference search offers them many such faces.
        Both its own merges and the library's must refuse them."""
        from sematlas.enumeration import _Searcher

        unclean = []

        class Checked(ReferenceSearcher):
            def _new_fans(self, face):
                fans = super()._new_fans(face)
                if not meets_cleanly(self.faces, face):
                    unclean.append((fans, _Searcher._new_fans(self, face)))
                return fans

        t = FaceSeqType(sizes)
        Checked(t, n, None).run()
        assert unclean and all(got == (None, None) for got in unclean)

    @pytest.mark.parametrize("sizes,n", PRUNE_CELLS)
    def test_search_ends_where_the_star_left_it(self, sizes, n):
        """Only ``_commit`` and ``_undo`` move the faces, the fans, the face
        budgets and the used-label count, and each undo reverses its
        commit: once the search is done, all four are as the fixed star
        around vertex 0 left them."""
        from sematlas.enumeration import _Searcher

        def state(s):
            return (list(s.faces), list(s.fragments), s.used, dict(s.budgets))

        star = []

        class Snapshot(_Searcher):
            def _initial_link(self):
                super()._initial_link()
                star.append(state(self))

        s = Snapshot(FaceSeqType(sizes), n, None)
        s.run()
        assert star == [state(s)]
        assert len(s.faces) == len(sizes)
        assert s.used == star_vertex_bound(FaceSeqType(sizes))


def test_corner_check_counts_sizes():
    """Fragments are link paths: neighbour, far vertices, neighbour, and
    so on.  Each fragment alone fits (3,3,3,4,4), but together they would
    give the vertex a third quad, so the corner is refused.  So is a
    corner at a neighbour inside a path, whose edge to the vertex already
    lies in two faces, and a corner whose far vertex is already on the
    fan.  The fragments must also fit apart, each a run of the cyclic
    type with a free face between each two: the two quads of (3,3,3,4,4)
    are adjacent, so two lone quads cannot both fit, and in (3,3,4,3,4)
    neither can a (3,3) run and a lone quad, though each fits alone and
    no size outnumbers its multiplicity."""
    from sematlas.enumeration import _merged

    t = T334.sizes
    quads = (((5, 7, 1, 8, 6), (4, 4)),)
    assert _merged(quads, 2, 9, 4, (3,), t) is False
    assert _merged(quads, 2, 9, 3, (), t)
    assert _merged(quads, 1, 9, 3, (), t) is False
    quad = (((5, 7, 1), (4,)),)
    assert _merged(quad, 2, 9, 4, (3,), t) is False
    assert _merged(quad, 1, 9, 4, (3,), t)
    assert _merged(quad, 1, 9, 4, (7,), t) is False
    pair = (((1, 2, 3), (3, 3)),)
    assert _merged(pair, 5, 6, 4, (), (3, 3, 4, 3, 4)) is False
    assert _merged(pair, 5, 6, 3, (), (3, 3, 4, 3, 4))


CLOSING_TYPES = enumeration.ALL_FLAT_TYPES + tuple(
    FaceSeqType(sizes) for sizes in
    ((3, 3, 3, 3, 3, 3), (4, 4, 4, 4), (6, 6, 6), (3, 4, 4, 4)))


@pytest.mark.parametrize("t", CLOSING_TYPES, ids=str)
def test_closing_corner_reads_the_type(t):
    """A corner that joins the two ends of one fragment closes the fan
    exactly when the closed cycle of sizes is the type up to rotation
    and reflection, with ``canonical_face`` as the oracle: over every
    run of the type's sizes of length deg - 2, deg - 1 and deg, closed
    by a face of each size, so the closed cycle is one short of the
    type's length, as long, or one over."""
    from sematlas.enumeration import _merged

    t = t.sizes
    deg = len(t)
    for length in (deg - 2, deg - 1, deg):
        for run in product(sorted(set(t)), repeat=length):
            # a link path a, far vertices, neighbour, ..., b for the run
            path = tuple(range(1, 2 + sum(p - 2 for p in run)))
            for size in set(t):
                far = tuple(range(100, 100 + size - 3))
                want = None if canonical_face(run + (size,)) == t else False
                got = _merged(((path, run),), path[-1], path[0], size, far, t)
                assert got is want, (run, size)


def test_corner_far_vertices(monkeypatch):
    """``_corner`` hands ``_merged`` the corner at ``face[i]`` with the
    face's other vertices in order from ``face[i - 1]`` round to
    ``face[i + 1]``."""
    from sematlas.enumeration import _Searcher

    monkeypatch.setattr(enumeration, "_merged",
                        lambda frags, a, b, size, far, t: (a, b, size, far))
    for p in range(3, 13):
        face = tuple(range(10, 10 + p))
        searcher = _Searcher(FaceSeqType((p,) * 3), 3 * p, None)
        searcher.fragments = [()] * (10 + p)
        for i in range(p):
            assert searcher._corner(face, i) == (
                face[i - 1], face[(i + 1) % p], p,
                tuple(face[(i - k) % p] for k in range(2, p - 1)))


@pytest.mark.parametrize("t", enumeration.ALL_FLAT_TYPES, ids=str)
def test_placement_test_is_exact(t):
    """``_placeable`` holds exactly on the tuples of runs that pairwise
    non-adjacent arcs of the type's cycle read, over every sorted tuple of
    runs of the cyclic type (in either direction) of total length at most
    its degree."""
    from sematlas.enumeration import _placeable

    t = t.sizes
    d = len(t)
    runs = sorted({tuple(t[(off + step * i) % d] for i in range(k))
                   for off in range(d) for step in (1, -1)
                   for k in range(1, d + 1)})
    # (sorted tuple, index of its last run, total length), grown in place
    tuples = [((), 0, 0)]
    for got, lo, total in tuples:
        tuples.extend((got + (run,), j, total + len(run))
                      for j, run in enumerate(runs[lo:], lo)
                      if total + len(run) <= d)
    placed = {got for got, _lo, _total in tuples if _placeable(got, t)}
    assert placed == placeable_run_sets(t)
    assert len(placed) < len(tuples)


def test_corner_check_cache_is_bounded():
    """The corner check's cache is bounded, so the search's peak memory
    does not grow with the number of distinct fans it meets."""
    from sematlas.enumeration import _merged

    maxsize = _merged.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def test_corner_check_cache_keys_on_the_type():
    """A corner check cached for one type must not answer for another.
    A second quad beside a quad fits (3,3,3,4,4) but not (3,3,4,3,4);
    both searches meet this corner, (3,3,3,4,4) at n = 10 and (3,3,4,3,4)
    at n = 8 and 10.  Searching one cell after the other without clearing
    the cache gives each the nodes and maps of a cold-cache search."""
    from sematlas.enumeration import _merged, _Searcher

    quad = (((6, 0, 1), (4,)),)
    verdicts = [((3, 3, 3, 4, 4), (((2, 6, 0, 1), (4, 4)),)),
                ((3, 3, 4, 3, 4), False)]
    for order in (verdicts, verdicts[::-1]):
        _merged.cache_clear()
        assert [_merged(quad, 2, 6, 4, (), t) for t, _fan in order] == [
            fan for _t, fan in order]

    cells = [(FaceSeqType((3, 3, 3, 4, 4)), 12), (FaceSeqType((3, 3, 4, 3, 4)), 12)]

    def search(t, n):
        s = _Searcher(t, n, None)
        s.run()
        return s.nodes, [serialize(m) for m in s.results]

    cold = []
    for t, n in cells:
        _merged.cache_clear()
        cold.append(search(t, n))
    for order in (cells, cells[::-1]):
        _merged.cache_clear()
        warm = {t: search(t, n) for t, n in order}
        assert [warm[t] for t, _n in cells] == cold


#: (type, n) -> (search nodes, classes) for every flat-type cell with
#: n <= 16.  A refactor of the search must leave it as it is; a prune
#: change alters it on purpose.
SEARCH_TREE = {
    ((3, 3, 3, 4, 4), 8): (1, 0),
    ((3, 3, 3, 4, 4), 10): (23, 2),
    ((3, 3, 3, 4, 4), 12): (111, 5),
    ((3, 3, 3, 4, 4), 14): (209, 3),
    ((3, 3, 3, 4, 4), 16): (472, 7),
    ((3, 3, 4, 3, 4), 8): (1, 0),
    ((3, 3, 4, 3, 4), 10): (35, 0),
    ((3, 3, 4, 3, 4), 12): (131, 1),
    ((3, 3, 4, 3, 4), 14): (225, 0),
    ((3, 3, 4, 3, 4), 16): (547, 3),
    ((3, 4, 6, 4), 12): (1, 0),
    ((4, 8, 8), 16): (1, 0),
    ((3, 3, 3, 3, 6), 12): (14, 0),
    ((3, 6, 3, 6), 12): (1, 0),
    ((3, 6, 3, 6), 15): (2, 0),
}


def test_search_tree_is_pinned():
    from sematlas.enumeration import ALL_FLAT_TYPES, _Searcher

    got = {}
    for t in ALL_FLAT_TYPES:
        for n in min_vertices_gate(t, 16):
            s = _Searcher(t, n, None)
            s.run()
            got[(t.sizes, n)] = (s.nodes, len(s.results))
    assert got == SEARCH_TREE


def _recorded_search(t, n):
    """Every map the search of cell (t, n) completes, in order, and the
    maps it keeps."""
    from sematlas.enumeration import _Searcher

    completed = []

    class Recording(_Searcher):
        def _emit_if_complete(self):
            if self.used == self.n and not any(self.budgets.values()):
                completed.append(PolyhedralMap(self.n, list(self.faces)))
            super()._emit_if_complete()

    s = Recording(t, n, None)
    s.run()
    return completed, s.results


def test_dedupe_keeps_the_first_map_of_each_class():
    """The search keeps a completed map unless it is isomorphic to one
    already kept.  Checked here against canonical forms, an independent
    test of sameness: the kept maps are the first completed map of each
    distinct form, in the order the search completes them."""
    from sematlas.enumeration import ALL_FLAT_TYPES

    n_completed = n_kept = 0
    for t in ALL_FLAT_TYPES:
        for n in min_vertices_gate(t, 16):
            completed, kept = _recorded_search(t, n)
            first = {}
            for m in completed:
                first.setdefault(canonical_form(m).form, m)
            assert ([serialize(m) for m in kept]
                    == [serialize(m) for m in first.values()]), (t, n)
            n_completed += len(completed)
            n_kept += len(kept)
    # the check has teeth: some cells complete one class more than once
    assert n_completed > n_kept


def test_bucket_key_changes_nothing(monkeypatch):
    """The bucket key only skips pairs it proves distinct: with one key for
    every map, ``find_isomorphism`` meets every kept map, and the census
    keeps the same maps in the same order."""
    want = [serialize(m) for r in classify_all(16) for m in r.maps]
    monkeypatch.setattr(enumeration, "edge_graph_char_poly",
                        lambda m: IntPolynomial((1,)))
    assert [serialize(m) for r in classify_all(16) for m in r.maps] == want


def test_dedupe_compares_only_maps_of_one_bucket(monkeypatch):
    """At n <= 20 the characteristic polynomial tells apart every pair of
    non-isomorphic maps of a cell, so each ``find_isomorphism`` call finds
    an isomorphism: one for each of the 46 completed maps beyond the 44
    classes' first ones."""
    found = []

    def recording(a, b, *args, **kwargs):
        got = find_isomorphism(a, b, *args, **kwargs)
        found.append(got is not None)
        return got

    monkeypatch.setattr(enumeration, "find_isomorphism", recording)
    assert sum(r.total for r in classify_all(20)) == 44
    assert len(found) == 46 and all(found)


def test_each_class_is_completed_once_per_rooting_orbit():
    """The orbit-counting identity, a check of completeness and dedupe that
    does not rest on ``find_isomorphism``.  The search roots a map at a
    vertex and at a reading of its fan as the type, and completes each
    rooting once up to the automorphisms, which act freely on rootings.  So
    a class M on n vertices is completed n*s(t)/|Aut(M)| times, with s(t)
    the rotations and reflections that fix the cyclic type and |Aut(M)| the
    size of the flag orbit that the canonical-form search finds."""
    from sematlas.classify import _least_walk
    from sematlas.enumeration import ALL_FLAT_TYPES

    n_completed = n_classes = 0
    for t in ALL_FLAT_TYPES:
        turns = [t.sizes[k:] + t.sizes[:k] for k in range(len(t))]
        s_t = sum(turn == t.sizes for turn in turns) + sum(
            turn[::-1] == t.sizes for turn in turns)
        for n in min_vertices_gate(t, 20):
            completed, kept = _recorded_search(t, n)
            times = Counter(canonical_form(m).form for m in completed)
            assert len(times) == len(kept), (t, n)
            for m in kept:
                form, _, orbit = _least_walk(m)
                assert times[form] * len(orbit) == n * s_t, (t, n)
            n_completed += len(completed)
            n_classes += len(kept)
    assert (n_completed, n_classes) == (90, 44)


#: SHA-256 over the semmap text of every map of ``classify_all(20)``, in
#: row order, recorded when the search still deduplicated by canonical
#: form.  The census must keep its representatives, byte for byte.
CENSUS_20_SHA256 = "2c30c941820fbc9372fde14dfd9a58c395866a02de8e93b704ba72c07d163f02"


def test_census_representatives_are_pinned():
    rows = classify_all(20)
    text = "".join(serialize(m) for r in rows for m in r.maps)
    assert sum(r.total for r in rows) == 44
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_20_SHA256


#: Two cells beyond the census, recorded before the search gained its
#: fail-first prunes: (type, n) -> (classes, SHA-256 over the semmap text
#: of the emitted maps in order).  Pruning may cut nodes, never a map.
BEYOND_CENSUS = {
    ((3, 3, 3, 4, 4), 22): (
        5, "e06631f1ee16978f7e749c43b1fb9b8b0ad180c2ef03b8ceee24f5cc2750f92c"),
    ((3, 6, 3, 6), 21): (
        1, "9fbe31187694fc9d7e9f895bcd7cd8a4cb6751b8b14aa4a2d17813f212516eec"),
}


@pytest.mark.parametrize("sizes,n", sorted(BEYOND_CENSUS))
def test_search_beyond_the_census_is_pinned(sizes, n):
    maps = enumerate_sems(FaceSeqType(sizes), n)
    text = "".join(serialize(m) for m in maps)
    got = (len(maps), hashlib.sha256(text.encode()).hexdigest())
    assert got == BEYOND_CENSUS[(sizes, n)]


class TestClassifyAll:
    def test_table_rows(self):
        rows = classify_all(15, [T334, FaceSeqType((3, 12, 12))])
        feasible = [r for r in rows if not r.infeasible_reason]
        gated = [r for r in rows if r.infeasible_reason]
        assert [(r.n, r.total, r.orientable) for r in feasible] == [
            (8, 0, 0), (10, 2, 1), (12, 5, 3), (14, 3, 2)]
        assert len(gated) == 1 and "22" in gated[0].infeasible_reason
        for r in feasible:
            assert r.total == r.orientable + r.non_orientable
            assert len(r.maps) == r.total

    @pytest.mark.parametrize("sizes,degrees", [
        ((3, 3, 3), "180"), ((3,) * 7, "420"), ((3, 4, 3, 4), "300"),
        ((7, 7, 7), "2700/7")])
    def test_a_type_that_is_not_flat_is_gated(self, sizes, degrees):
        """The census covers Euler characteristic 0, which needs the
        regular faces' angles at a vertex to sum to 360 degrees; any other
        type gets one row with the exact sum and no search."""
        t = FaceSeqType(sizes)
        assert list(min_vertices_gate(t, 30)) == []
        rows = classify_all(30, [t])
        assert [(r.type, r.n, r.total, r.maps) for r in rows] == [(t, 0, 0, [])]
        assert rows[0].infeasible_reason == (
            f"not flat: the face angles at a vertex sum to {degrees} "
            f"degrees, not 360")

    def test_rows_sorted_by_type_then_n(self):
        rows = classify_all(12, [FaceSeqType((3, 12, 12)), T334])
        assert [(r.type, r.n) for r in rows] == [
            (T334, 8), (T334, 10), (T334, 12), (FaceSeqType((3, 12, 12)), 0)]

    def test_a_type_named_twice_is_searched_once(self):
        def table(rows):
            return [(r.type, r.n, r.total, r.orientable, r.infeasible_reason,
                     [serialize(m) for m in r.maps]) for r in rows]

        once = table(classify_all(12, [T334, FaceSeqType((3, 12, 12))]))
        twice = table(classify_all(12, [T334, FaceSeqType((3, 12, 12)),
                                        FaceSeqType((4, 4, 3, 3, 3)), T334,
                                        FaceSeqType((3, 12, 12))]))
        assert twice == once

    @pytest.fixture
    def requested(self, monkeypatch):
        """The worker counts that ``classify_all`` asks pools for.  Each
        pool is a fake that maps in this process, so no process starts."""
        requested = []

        class FakePool:
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        return requested

    @staticmethod
    def table(rows):
        return [(r.type, r.n, r.orientations, [serialize(m) for m in r.maps])
                for r in rows]

    @pytest.mark.parametrize("cpus,pools", [(None, []), (1, []), (3, [3]),
                                            (4, [3])])
    def test_jobs_are_capped_at_the_cpu_count(self, monkeypatch, requested,
                                              cpus, pools):
        """A huge ``jobs`` asks for one worker per usable CPU, never more
        than the census's cells (three here), and none when that leaves one
        or the count is unknown; the rows are those of one process.  The
        usable CPUs are those of the affinity mask, whatever the CPU count;
        without a mask, the CPU count."""
        want = self.table(classify_all(12, [T334]))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = [classify_all(12, [T334], jobs=10**12)]
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
            got.append(classify_all(12, [T334], jobs=10**12))
        assert requested == pools * len(got)
        assert [self.table(rows) for rows in got] == [want] * len(got)

    def test_a_census_of_one_cell_asks_for_no_pool(self, monkeypatch, requested):
        """However many CPUs, one cell is searched in this process; a type
        the gate rejects is no cell."""
        types = [T334, FaceSeqType((3, 12, 12))]
        want = self.table(classify_all(8, types))
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        got = classify_all(8, types, jobs=10**12)
        assert requested == []
        assert [(r.type, r.n) for r in got] == [
            (T334, 8), (FaceSeqType((3, 12, 12)), 0)]
        assert self.table(got) == want

    def test_no_worker_outlives_the_census(self, monkeypatch):
        """A census in a pool leaves no worker process running, whether it
        ends with its rows or with a cell's ``BudgetExceeded``."""
        monkeypatch.delenv(enumeration.BUDGET_ENV, raising=False)
        assert [r.n for r in classify_all(12, [T334], jobs=2)] == [8, 10, 12]
        assert multiprocessing.active_children() == []
        monkeypatch.setenv(enumeration.BUDGET_ENV, "50")
        with pytest.raises(BudgetExceeded):
            classify_all(12, [T334], jobs=2)
        assert multiprocessing.active_children() == []

    def test_the_budget_variable_is_read_once(self, monkeypatch):
        """SEM_ATLAS_BUDGET is read once per census, before any cell is
        searched, also when it is unset; ``enumerate_sems`` reads it only
        when it is given no budget."""
        reads = []
        read = enumeration._env_budget

        def counted():
            reads.append(1)
            return read()

        monkeypatch.delenv(enumeration.BUDGET_ENV, raising=False)
        monkeypatch.setattr(enumeration, "_env_budget", counted)
        rows = classify_all(12, [T334])
        assert [r.n for r in rows] == [8, 10, 12]
        assert len(reads) == 1
        enumerate_sems(T334, 10, budget=100)
        assert len(reads) == 1
        enumerate_sems(T334, 10)
        assert len(reads) == 2
