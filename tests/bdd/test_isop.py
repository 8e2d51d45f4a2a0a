"""Tests for the Minato-Morreale ISOP generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (FALSE, TRUE, BddManager, cover_literals,
                       cover_to_node, isop)
from repro.bdd.isop import literal

from ..conftest import bdd_from_tt

VARS = [0, 1, 2, 3]
tt16 = st.integers(min_value=0, max_value=(1 << 16) - 1)


def fresh_mgr():
    return BddManager(["a", "b", "c", "d"])


class TestIsopBasics:
    def test_constant_false(self):
        mgr = fresh_mgr()
        cover, node = isop(mgr, FALSE, FALSE)
        assert cover == []
        assert node == FALSE

    def test_constant_true(self):
        mgr = fresh_mgr()
        cover, node = isop(mgr, TRUE, TRUE)
        assert cover == [{}]
        assert node == TRUE

    def test_single_literal(self):
        mgr = fresh_mgr()
        a = mgr.var(0)
        cover, node = isop(mgr, a, a)
        assert cover == [{0: True}]
        assert node == a

    def test_full_interval_prefers_small_cover(self):
        mgr = fresh_mgr()
        # [0, 1]: anything is allowed; the empty function suffices.
        cover, node = isop(mgr, FALSE, TRUE)
        assert cover == []
        assert node == FALSE

    def test_invalid_interval_raises(self):
        mgr = fresh_mgr()
        with pytest.raises(ValueError):
            isop(mgr, TRUE, mgr.var(0))

    def test_xor_needs_two_cubes(self):
        mgr = fresh_mgr()
        f = mgr.xor_(mgr.var(0), mgr.var(1))
        cover, node = isop(mgr, f, f)
        assert node == f
        assert len(cover) == 2
        assert cover_literals(cover) == 4

    def test_dont_cares_shrink_cover(self):
        mgr = fresh_mgr()
        a, b = mgr.var(0), mgr.var(1)
        on = mgr.and_(a, b)
        upper = a  # don't care on a & ~b
        cover, node = isop(mgr, on, upper)
        # a single-cube solution "a" exists inside the interval
        assert len(cover) == 1
        assert cover == [{0: True}]


@given(tt16, tt16)
@settings(max_examples=80, deadline=None)
def test_isop_within_interval(lower_tt, dc_tt):
    mgr = fresh_mgr()
    upper_tt = lower_tt | dc_tt
    lower = bdd_from_tt(mgr, VARS, lower_tt)
    upper = bdd_from_tt(mgr, VARS, upper_tt)
    cover, node = isop(mgr, lower, upper)
    assert mgr.implies(lower, node)
    assert mgr.implies(node, upper)


@given(tt16, tt16)
@settings(max_examples=80, deadline=None)
def test_isop_cover_matches_node(lower_tt, dc_tt):
    mgr = fresh_mgr()
    upper_tt = lower_tt | dc_tt
    lower = bdd_from_tt(mgr, VARS, lower_tt)
    upper = bdd_from_tt(mgr, VARS, upper_tt)
    cover, node = isop(mgr, lower, upper)
    rebuilt = FALSE
    for cube in cover:
        rebuilt = mgr.or_(rebuilt, mgr.cube(cube))
    assert rebuilt == node


@given(tt16, tt16)
@settings(max_examples=50, deadline=None)
def test_isop_cubes_are_implicants(lower_tt, dc_tt):
    """Every cube must fit below the upper bound."""
    mgr = fresh_mgr()
    upper_tt = lower_tt | dc_tt
    lower = bdd_from_tt(mgr, VARS, lower_tt)
    upper = bdd_from_tt(mgr, VARS, upper_tt)
    cover, _ = isop(mgr, lower, upper)
    for cube in cover:
        assert mgr.implies(mgr.cube(cube), upper)


@given(tt16, tt16)
@settings(max_examples=50, deadline=None)
def test_isop_irredundant(lower_tt, dc_tt):
    """Removing any cube must uncover part of the lower bound."""
    mgr = fresh_mgr()
    upper_tt = lower_tt | dc_tt
    lower = bdd_from_tt(mgr, VARS, lower_tt)
    upper = bdd_from_tt(mgr, VARS, upper_tt)
    cover, _ = isop(mgr, lower, upper)
    for skip in range(len(cover)):
        rest = FALSE
        for index, cube in enumerate(cover):
            if index != skip:
                rest = mgr.or_(rest, mgr.cube(cube))
        assert not mgr.implies(lower, rest)


@given(tt16)
@settings(max_examples=50, deadline=None)
def test_isop_exact_function_roundtrip(f_tt):
    """With an empty DC set the ISOP represents exactly the function."""
    mgr = fresh_mgr()
    f = bdd_from_tt(mgr, VARS, f_tt)
    cover, node = isop(mgr, f, f)
    assert node == f


def cover_rows(cover):
    """A cover as nested lists: cube order and literal order both kept."""
    return [list(cube.items()) for cube in cover]


class TestIsopComputedTable:
    """Interval results live in the manager's bounded computed table."""

    @given(st.lists(st.tuples(tt16, tt16), min_size=1, max_size=6),
           tt16, tt16)
    @settings(max_examples=60, deadline=None)
    def test_warm_manager_gives_cold_covers(self, others, lower_tt,
                                            dc_tt):
        warm = fresh_mgr()
        for other_lower, other_dc in others:
            isop(warm, bdd_from_tt(warm, VARS, other_lower),
                 bdd_from_tt(warm, VARS, other_lower | other_dc))
        covers = []
        for mgr in (warm, fresh_mgr()):
            cover, node = isop(mgr, bdd_from_tt(mgr, VARS, lower_tt),
                               bdd_from_tt(mgr, VARS, lower_tt | dc_tt))
            assert node == cover_to_node(mgr, cover)
            covers.append(cover_rows(cover))
        assert covers[0] == covers[1]

    @given(tt16, tt16)
    @settings(max_examples=40, deadline=None)
    def test_cube_literals_in_level_order(self, lower_tt, dc_tt):
        mgr = fresh_mgr()
        cover, _ = isop(mgr, bdd_from_tt(mgr, VARS, lower_tt),
                        bdd_from_tt(mgr, VARS, lower_tt | dc_tt))
        for cube in cover:
            assert list(cube) == sorted(cube)

    def test_repeat_is_a_table_hit_with_a_fresh_cube_list(self):
        def xor_and(mgr):
            return mgr.xor_(mgr.var(0), mgr.and_(mgr.var(1), mgr.var(2)))

        mgr = fresh_mgr()
        f = xor_and(mgr)
        first, node = isop(mgr, f, f)
        before = mgr.stats()
        first[0][3] = True           # callers own the dicts they get
        second, again = isop(mgr, f, f)
        after = mgr.stats()
        assert again == node
        assert after["isop_misses"] == before["isop_misses"]
        assert after["isop_hits"] == before["isop_hits"] + 1
        reference = fresh_mgr()
        g = xor_and(reference)
        assert cover_rows(second) == cover_rows(isop(reference, g, g)[0])

    def test_no_stale_hit_after_collect_reuses_ids(self):
        def a_or_bc(mgr):
            return mgr.or_(mgr.var(0), mgr.and_(mgr.var(1), mgr.var(2)))

        mgr = fresh_mgr()
        old = mgr.and_(mgr.var(0), mgr.or_(mgr.var(1), mgr.var(2)))
        old_cover, _ = isop(mgr, old, old)
        mgr.collect()                # nothing pinned: ``old`` is dropped
        new = a_or_bc(mgr)
        assert new == old            # the id is reused for another function
        cover, node = isop(mgr, new, new)
        assert node == new
        reference = fresh_mgr()
        f = a_or_bc(reference)
        assert cover_rows(cover) == cover_rows(isop(reference, f, f)[0])
        assert cover_rows(cover) != cover_rows(old_cover)

    def test_entries_count_toward_the_bound_and_flush_with_it(self):
        mgr = BddManager(["a", "b", "c", "d"], cache_limit=None)
        lower = bdd_from_tt(mgr, VARS, 0x1E6A)
        upper = mgr.or_(lower, bdd_from_tt(mgr, VARS, 0x0180))
        mgr.clear_caches()
        cover, node = isop(mgr, lower, upper)
        stats = mgr.stats()
        # Every miss stored one interval entry next to the operation ones.
        assert stats["isop_misses"] > 0
        assert stats["cache_entries"] >= stats["isop_misses"]
        mgr.set_cache_limit(stats["cache_entries"] + 1)
        mgr.xor_(lower, upper)              # more entries: a flush
        assert mgr.stats()["cache_flushes"] == 1
        assert mgr.stats()["cache_entries"] < stats["cache_entries"]
        again, again_node = isop(mgr, lower, upper)
        assert mgr.stats()["isop_misses"] > stats["isop_misses"]
        assert (cover_rows(again), again_node) == (cover_rows(cover), node)

    def test_tiny_bound_keeps_covers_exact(self):
        tables = [(0x1E6A, 0x0180), (0x8001, 0x7000), (0x0FF0, 0x0001)]
        for lower_tt, dc_tt in tables:
            covers = []
            for limit in (2, None):
                mgr = BddManager(["a", "b", "c", "d"], cache_limit=limit)
                cover, _ = isop(mgr, bdd_from_tt(mgr, VARS, lower_tt),
                                bdd_from_tt(mgr, VARS, lower_tt | dc_tt))
                covers.append(cover_rows(cover))
            assert covers[0] == covers[1]


class TestInternedLiterals:
    def test_pairs_are_shared_and_polarities_stay_bool(self):
        assert literal(7, True) is literal(7, True)
        assert literal(7, False) == (7, False)
        assert literal(7, 1)[1] is True
        assert all(type(polarity) is bool
                   for _, polarity in (literal(i, i % 2) for i in range(40)))
