"""Tests for ISF/MISF containers and the ISF minimiser registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BddManager
from repro.core import (Isf, MINIMIZERS, MemoStore, Misf,
                        eliminate_nonessential_variables, get_minimizer,
                        minimize_exact_cubes, minimize_isop, solve_misf)
from repro.core.minimize import minimize_restrict, minimize_with_cover

from ..conftest import bdd_from_tt

VARS = [0, 1, 2]
tt8 = st.integers(min_value=0, max_value=255)


def fresh_mgr():
    return BddManager(["a", "b", "c"])


def make_isf(mgr, on_tt, dc_tt):
    dc_tt &= ~on_tt & 255
    return Isf(mgr, bdd_from_tt(mgr, VARS, on_tt),
               bdd_from_tt(mgr, VARS, dc_tt), tuple(VARS))


class TestIsfBasics:
    def test_overlapping_on_dc_rejected(self):
        mgr = fresh_mgr()
        a = mgr.var(0)
        with pytest.raises(ValueError):
            Isf(mgr, a, a, (0,))

    def test_interval_endpoints(self):
        mgr = fresh_mgr()
        isf = make_isf(mgr, 0b00001111, 0b00110000)
        assert isf.upper == mgr.or_(isf.on, isf.dc)
        assert mgr.and_(isf.off, isf.upper) == FALSE

    def test_from_interval_roundtrip(self):
        mgr = fresh_mgr()
        lower = bdd_from_tt(mgr, VARS, 0b00001111)
        upper = bdd_from_tt(mgr, VARS, 0b00111111)
        isf = Isf.from_interval(mgr, lower, upper, VARS)
        assert isf.on == lower
        assert isf.upper == upper

    def test_from_interval_invalid(self):
        mgr = fresh_mgr()
        with pytest.raises(ValueError):
            Isf.from_interval(mgr, TRUE, mgr.var(0), VARS)

    def test_admits(self):
        mgr = fresh_mgr()
        isf = make_isf(mgr, 0b00001111, 0b11110000)
        assert isf.admits(isf.on)
        assert isf.admits(isf.upper)
        assert isf.admits(TRUE)

    def test_completely_specified(self):
        mgr = fresh_mgr()
        assert make_isf(mgr, 0b1010, 0).is_completely_specified
        assert not make_isf(mgr, 0b1010, 0b0101).is_completely_specified

    def test_value_at(self):
        mgr = fresh_mgr()
        isf = make_isf(mgr, 0b00000010, 0b00000100)
        assert isf.value_at({0: True, 1: False, 2: False}) == "1"
        assert isf.value_at({0: False, 1: True, 2: False}) == "-"
        assert isf.value_at({0: False, 1: False, 2: False}) == "0"


class TestMisf:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            Misf([])

    def test_shared_manager_enforced(self):
        m1, m2 = fresh_mgr(), fresh_mgr()
        with pytest.raises(ValueError):
            Misf([make_isf(m1, 1, 0), make_isf(m2, 1, 0)])

    def test_admits_vector(self):
        mgr = fresh_mgr()
        misf = Misf([make_isf(mgr, 0b1010, 0b0101),
                     make_isf(mgr, 0b1100, 0)])
        functions = solve_misf(misf)
        assert misf.admits(functions)

    def test_admits_arity_check(self):
        mgr = fresh_mgr()
        misf = Misf([make_isf(mgr, 0b1010, 0)])
        with pytest.raises(ValueError):
            misf.admits([TRUE, TRUE])


class TestNonessentialElimination:
    def test_removes_redundant_variable(self):
        mgr = fresh_mgr()
        # ON = a&b, DC = a&~b: b is non-essential (interval contains "a").
        on = mgr.and_(mgr.var(0), mgr.var(1))
        dc = mgr.and_(mgr.var(0), mgr.not_(mgr.var(1)))
        isf = Isf(mgr, on, dc, (0, 1, 2))
        reduced = eliminate_nonessential_variables(isf)
        assert 1 not in mgr.support(reduced.on)
        assert 1 not in mgr.support(reduced.upper)
        assert reduced.on == mgr.var(0)

    def test_keeps_essential_variables(self):
        mgr = fresh_mgr()
        on = mgr.xor_(mgr.var(0), mgr.var(1))
        isf = Isf(mgr, on, FALSE, (0, 1, 2))
        reduced = eliminate_nonessential_variables(isf)
        assert reduced.on == on


class TestRegistry:
    def test_all_names_resolve(self):
        for name in MINIMIZERS:
            assert get_minimizer(name) is MINIMIZERS[name]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_minimizer("quantum")

    def test_exact_guard(self):
        # ON = parity(5), DC = complement minus one point: no variable is
        # non-essential and the DC count (15) exceeds the exhaustive bound.
        mgr = BddManager(["v%d" % i for i in range(5)])
        parity = FALSE
        for i in range(5):
            parity = mgr.xor_(parity, mgr.var(i))
        dc = mgr.diff(mgr.not_(parity), mgr.minterm(list(range(5)), 0))
        isf = Isf(mgr, parity, dc, tuple(range(5)))
        with pytest.raises(ValueError):
            minimize_exact_cubes(isf)


@given(tt8, tt8)
@settings(max_examples=40, deadline=None)
def test_all_minimizers_return_implementations(on_tt, dc_tt):
    mgr = fresh_mgr()
    isf = make_isf(mgr, on_tt, dc_tt)
    for name, minimizer in MINIMIZERS.items():
        impl = minimizer(isf)
        assert mgr.implies(isf.on, impl), name
        assert mgr.implies(impl, isf.upper), name


@given(tt8, tt8)
@settings(max_examples=40, deadline=None)
def test_elimination_preserves_interval_validity(on_tt, dc_tt):
    mgr = fresh_mgr()
    isf = make_isf(mgr, on_tt, dc_tt)
    reduced = eliminate_nonessential_variables(isf)
    # The reduced interval is contained in the original one.
    assert mgr.implies(isf.on, reduced.on)
    assert mgr.implies(reduced.upper, isf.upper)
    assert mgr.implies(reduced.on, reduced.upper)


class TestExactMinimisationEntry:
    """``minimize_with_cover`` serves exact repeats from the manager."""

    @staticmethod
    def count_signatures(monkeypatch):
        calls = []
        original = Isf.signature

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Isf, "signature", counted)
        return calls

    def test_exact_repeat_skips_the_signature(self, monkeypatch):
        calls = self.count_signatures(monkeypatch)
        mgr = fresh_mgr()
        store = MemoStore()
        first = minimize_with_cover(make_isf(mgr, 0x96, 0x21),
                                    minimize_isop, store, "isop")
        assert len(calls) == 1
        hits = mgr.stats()["isop_hits"]
        # A new Isf over the same nodes: nothing cached on the object.
        again = minimize_with_cover(make_isf(mgr, 0x96, 0x21),
                                    minimize_isop, store, "isop")
        assert again == first
        assert len(calls) == 1
        assert mgr.stats()["isop_hits"] == hits + 1
        assert (store.hits, store.misses) == (0, 1)
        # Keyed by minimiser: another name is a separate entry.
        minimize_with_cover(make_isf(mgr, 0x96, 0x21), minimize_restrict,
                            store, "restrict")
        assert len(calls) == 2

    def test_memo_hit_fills_the_entry(self, monkeypatch):
        store = MemoStore()
        cold = minimize_with_cover(make_isf(fresh_mgr(), 0x5A, 0x81),
                                   minimize_isop, store, "isop")
        calls = self.count_signatures(monkeypatch)
        mgr = fresh_mgr()
        warm = minimize_with_cover(make_isf(mgr, 0x5A, 0x81),
                                   minimize_isop, store, "isop")
        assert store.hits == 1 and len(calls) == 1
        again = minimize_with_cover(make_isf(mgr, 0x5A, 0x81),
                                    minimize_isop, store, "isop")
        assert again == warm
        assert store.hits == 1 and len(calls) == 1
        assert warm[1] == cold[1]
        assert warm[0] == minimize_isop(make_isf(mgr, 0x5A, 0x81))

    def test_no_stale_entry_after_collect(self):
        mgr = fresh_mgr()
        store = MemoStore()
        old = make_isf(mgr, 0x96, 0x00)
        minimize_with_cover(old, minimize_isop, store, "isop")
        mgr.collect()                # nothing pinned: ``old`` is dropped
        isf = make_isf(mgr, 0x56, 0x00)
        assert (isf.on, isf.dc) == (old.on, old.dc)   # ids reused
        node, cover = minimize_with_cover(isf, minimize_isop, store, "isop")
        assert node == isf.on
        assert cover == minimize_with_cover(make_isf(fresh_mgr(), 0x56, 0),
                                            minimize_isop, MemoStore(),
                                            "isop")[1]

    @given(st.lists(st.tuples(tt8, tt8), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_repeats_match_the_plain_minimiser(self, tables):
        mgr = fresh_mgr()
        store = MemoStore()
        for on_tt, dc_tt in tables * 2:
            isf = make_isf(mgr, on_tt, dc_tt)
            node, cover = minimize_with_cover(isf, minimize_isop, store,
                                              "isop")
            assert node == minimize_isop(isf)
            rebuilt = FALSE
            for cube in cover:
                rebuilt = mgr.or_(rebuilt, mgr.cube(dict(cube)))
            assert rebuilt == node
