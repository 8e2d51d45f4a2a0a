"""MemoStore unit behaviour, signatures, templates, memo transparency
on full solves, and the satellite regressions (cached ``Isf.upper``,
``strategy`` default)."""


import dataclasses

import pytest

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.core import (BooleanRelation, BrelOptions, BrelSolver, Isf,
                        MemoStore, minimize_isop, minimizer_memo_key,
                        quick_solve, solve_misf)
from repro.core.memo import (instantiate_cover, instantiate_solution,
                             renumber_cover, solution_template)
from repro.benchdata.brgen import random_relation
from repro.core.minimize import minimize_restrict


def fig1_relation(mgr=None):
    rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
    return BooleanRelation.from_output_sets(rows, 2, 2, mgr=mgr)


class TestMemoStore:
    def test_get_put_and_counters(self):
        store = MemoStore(capacity=8)
        assert store.get("a") is None
        store.put("a", 1)
        assert store.get("a") == 1
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)
        assert len(store) == 1 and "a" in store

    def test_lru_eviction_order(self):
        store = MemoStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1       # refresh "a"; "b" is now LRU
        store.put("c", 3)                # evicts "b"
        assert "b" not in store
        assert "a" in store and "c" in store
        assert store.evictions == 1

    def test_put_refresh_does_not_grow(self):
        store = MemoStore(capacity=4)
        store.put("a", 1)
        store.put("a", 2)
        assert len(store) == 1 and store.get("a") == 2
        assert store.stores == 1  # refresh is not a new store

    def test_capacity_validation_and_unbounded(self):
        with pytest.raises(ValueError):
            MemoStore(capacity=0)
        store = MemoStore(capacity=None)
        for index in range(5000):
            store.put(index, index)
        assert len(store) == 5000

    def test_trim_evicts_lru_down_to_target(self):
        store = MemoStore(capacity=100)
        for index in range(10):
            store.put(index, index)
        store.get(0)  # 0 becomes most recent
        evicted = store.trim(target=2)
        assert evicted == 8 and len(store) == 2
        assert 0 in store and 9 in store

    def test_stats_shape_and_hit_rate(self):
        store = MemoStore()
        stats = store.stats()
        assert stats["hit_rate"] == 0.0
        store.put("a", 1)
        store.get("a")
        store.get("missing")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_export_seed_round_trip(self):
        store = MemoStore()
        for index in range(6):
            store.put(("k", index), index * 10)
        entries = store.export_entries(limit=4)
        assert len(entries) == 4
        assert entries[-1] == (("k", 5), 50)  # most recent last
        seeded = MemoStore(entries=entries)
        assert len(seeded) == 4
        assert seeded.stores == 0  # seeding is not counted as stores
        assert seeded.get(("k", 5)) == 50

    def test_absorb_counters(self):
        store = MemoStore()
        store.absorb_counters(hits=3, misses=2, stores=1)
        assert (store.hits, store.misses, store.stores) == (3, 2, 1)

    def test_clear_keeps_counters(self):
        store = MemoStore()
        store.put("a", 1)
        store.get("a")
        store.clear()
        assert len(store) == 0
        assert store.hits == 1 and store.stores == 1


class TestSignatures:
    def test_relation_signature_shift_invariant(self):
        base = fig1_relation()
        mgr = BddManager(["p", "x0", "x1", "y0", "y1"])
        rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
        shifted = BooleanRelation.from_output_sets(
            [rows[value >> 1] for value in range(8)], 3, 2, mgr=mgr)
        sig_a, sig_b = base.signature(), shifted.signature()
        assert sig_a.key == sig_b.key
        assert sig_a.support != sig_b.support

    def test_relation_signature_distinguishes_output_roles(self):
        """Functional relations for (f0=x, f1=~x) vs (f0=~x, f1=x) must
        not collide: output positions are part of the identity."""
        mgr = BddManager(["x", "y0", "y1"])
        x = mgr.var(0)
        forward = BooleanRelation.from_functions(
            mgr, [0], [1, 2], [x, mgr.not_(x)])
        swapped = BooleanRelation.from_functions(
            mgr, [0], [1, 2], [mgr.not_(x), x])
        assert forward.signature().key != swapped.signature().key

    def test_relation_signature_cached_and_frame_guard(self):
        relation = fig1_relation()
        assert relation.signature() is relation.signature()
        # A node mentioning a variable outside the frame is unmemoisable.
        mgr = BddManager(["x", "y", "extra"])
        rogue = BooleanRelation(mgr, [0], [1],
                                mgr.and_(mgr.var(1), mgr.var(2)))
        assert rogue.signature() is None

    def test_isf_signature_shift_invariant(self):
        mgr = BddManager(["a", "b", "c"])
        low = Isf(mgr, mgr.var(0), FALSE, (0,))
        high = Isf(mgr, mgr.var(2), FALSE, (2,))
        assert low.signature().key == high.signature().key
        mixed = Isf(mgr, mgr.var(0),
                    mgr.and_(mgr.var(1), mgr.not_(mgr.var(0))), (0, 1))
        assert mixed.signature().key != low.signature().key


class TestTemplates:
    def test_solution_template_round_trip(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        sig = relation.signature()
        template = solution_template(relation.mgr, solution.functions,
                                     sig.support)
        rebuilt = instantiate_solution(relation.mgr, template, sig.support)
        assert rebuilt == tuple(solution.functions)

    def test_template_instantiates_across_managers(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        sig = relation.signature()
        template = solution_template(relation.mgr, solution.functions,
                                     sig.support)
        other = fig1_relation()  # fresh manager, same layout
        rebuilt = instantiate_solution(other.mgr, template,
                                       other.signature().support)
        fresh = quick_solve(other)
        assert rebuilt == tuple(fresh.functions)

    def test_var_cover_conversions_invert(self):
        support = (3, 5, 8)
        template = (((0, True), (2, False)), ((1, False),), ())
        var_cover = renumber_cover(template, support)
        rank_of_var = {var: rank for rank, var in enumerate(support)}
        assert renumber_cover(var_cover, rank_of_var) == template

    def test_templates_share_interned_literals(self):
        support = (3, 5, 8)
        rank_of_var = {var: rank for rank, var in enumerate(support)}
        first = renumber_cover((((3, True), (8, False)),), rank_of_var)
        second = renumber_cover((((8, False),), ((5, True),)),
                                rank_of_var)
        assert first == (((0, True), (2, False)),)
        assert first[0][1] is second[0][0]
        levels = renumber_cover(first, support)
        assert levels[0][0] is renumber_cover((((0, True),),),
                                              support)[0][0]
        assert all(type(polarity) is bool
                   for cube in first + second + levels
                   for _, polarity in cube)

    def test_renumbered_cubes_are_sorted(self):
        assert renumber_cover([((2, True), (0, False))]) == \
            (((0, False), (2, True)),)
        assert renumber_cover([((1, True), (4, False))], {1: 5, 4: 0}) == \
            (((0, False), (5, True)),)
        with pytest.raises(KeyError):
            renumber_cover([((7, True),)], {1: 0})

    def test_constant_cover_round_trip(self):
        mgr = BddManager(["a"])
        assert instantiate_cover(mgr, (), ()) == FALSE
        assert instantiate_cover(mgr, ((),), ()) == TRUE


class TestExactRepeatEntries:
    """Signatures and instantiations repeat from the computed table."""

    def test_relation_signature_repeats_from_the_table(self):
        relation = fig1_relation()
        mgr = relation.mgr
        sig = relation.signature()
        before = mgr.stats()
        again = BooleanRelation(mgr, relation.inputs, relation.outputs,
                                relation.node)
        assert again.signature() == sig
        after = mgr.stats()
        assert after["template_hits"] == before["template_hits"] + 1
        assert after["template_misses"] == before["template_misses"]
        mgr.clear_caches()
        third = BooleanRelation(mgr, relation.inputs, relation.outputs,
                                relation.node)
        assert third.signature() == sig
        assert mgr.stats()["template_misses"] == after["template_misses"] + 1

    def test_out_of_frame_signature_repeats_as_none(self):
        mgr = BddManager(["x", "y", "z"])
        node = mgr.and_(mgr.var(0), mgr.var(2))
        assert BooleanRelation(mgr, (0,), (1,), node).signature() is None
        hits = mgr.stats()["template_hits"]
        assert BooleanRelation(mgr, (0,), (1,), node).signature() is None
        assert mgr.stats()["template_hits"] == hits + 1

    def test_instantiation_repeats_from_the_table(self):
        relation = fig1_relation()
        solution = quick_solve(relation)
        support = relation.signature().support
        template = solution_template(relation.mgr, solution.functions,
                                     support)
        mgr = relation.mgr
        first = instantiate_solution(mgr, template, support)
        before = mgr.stats()
        assert instantiate_solution(mgr, template, list(support)) == first
        after = mgr.stats()
        assert after["template_hits"] == before["template_hits"] + 1
        assert after["cache_misses"] == before["cache_misses"]
        assert first == tuple(solution.functions)


class TestMemoisedEntryPoints:
    def test_quick_solve_memo_round_trip(self):
        relation = fig1_relation()
        plain = quick_solve(relation)
        store = MemoStore()
        cold = quick_solve(relation, memo=store)
        warm = quick_solve(relation, memo=store)
        assert plain.functions == cold.functions == warm.functions
        assert plain.cost == cold.cost == warm.cost
        assert store.hits > 0

    def test_quick_solve_output_order_keys_separately(self):
        relation = fig1_relation()
        store = MemoStore()
        default = quick_solve(relation, memo=store)
        reordered = quick_solve(relation, output_order=[1, 0], memo=store)
        assert reordered.functions == quick_solve(
            relation, output_order=[1, 0]).functions
        assert default.functions == quick_solve(relation).functions

    def test_solve_misf_memoises_components(self):
        # A repeat in the same manager is served by the engine's computed
        # table, so the warm solve rebuilds the relation in a second
        # manager: cross-manager reuse is the store's job.
        relation = fig1_relation()
        store = MemoStore()
        fresh = solve_misf(relation.misf())
        cold = solve_misf(relation.misf(), memo=store)
        assert store.hits == 0
        rebuilt = fig1_relation()
        assert rebuilt.mgr is not relation.mgr
        warm = solve_misf(rebuilt.misf(), memo=store)
        assert fresh == cold == warm
        assert store.hits > 0

    def test_custom_minimizer_bypasses_store(self):
        def custom(isf):
            return minimize_isop(isf)

        assert minimizer_memo_key(custom) is None
        assert minimizer_memo_key(minimize_isop) == "isop"
        assert minimizer_memo_key(minimize_restrict) == "restrict"
        relation = fig1_relation()
        store = MemoStore()
        solution = quick_solve(relation, minimizer=custom, memo=store)
        assert solution.functions == quick_solve(relation).functions
        assert len(store) == 0  # nothing was stored


class TestIsfUpperCache:
    def test_repeated_upper_access_is_engine_free(self):
        """Satellite regression: ``upper`` is computed once per ISF;
        repeated access must not issue manager operations at all."""
        mgr = BddManager(["a", "b", "c"])
        isf = Isf(mgr, mgr.and_(mgr.var(0), mgr.var(1)),
                  mgr.and_(mgr.var(1), mgr.not_(mgr.var(0))), (0, 1, 2))
        first = isf.upper
        before = mgr.stats()
        for _ in range(50):
            assert isf.upper == first
        after = mgr.stats()
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cache_misses"] == before["cache_misses"]
        assert after["nodes"] == before["nodes"]

    def test_upper_still_correct(self):
        mgr = BddManager(["a", "b"])
        isf = Isf(mgr, mgr.var(0), mgr.and_(mgr.var(1),
                                            mgr.not_(mgr.var(0))), (0, 1))
        assert isf.upper == mgr.or_(isf.on, isf.dc)
        assert isf.off == mgr.not_(isf.upper)


class TestMemoOptionValidation:
    def test_memo_tristate_accepts_only_bools_and_none(self):
        for good in (None, True, False):
            assert BrelOptions(memo=good).memo is good
        # 0/1 satisfy equality with False/True but fail the identity
        # checks the solver makes; they must be rejected eagerly.
        for bad in (0, 1, "yes"):
            with pytest.raises(ValueError, match="memo must be"):
                BrelOptions(memo=bad)


class TestStrategyDefault:
    def test_strategy_defaults_to_bfs(self):
        options = BrelOptions()
        assert options.strategy == "bfs"

    def test_mode_alias_is_gone(self):
        with pytest.raises(TypeError, match="mode"):
            BrelOptions(mode="dfs")


def solve_fingerprint(result, relation):
    inputs = list(relation.inputs)
    return (result.solution.cost,
            [list(result.solution.mgr.minterms(f, inputs))
             for f in result.solution.functions],
            [improvement.cost for improvement in result.improvements],
            result.stats.relations_explored,
            result.stats.splits)


class TestMemoTransparency:
    """A memo store is an execution detail: with memo off, a cold store
    or a store warmed by an earlier solve, the answer is the same."""

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    @pytest.mark.parametrize("seed", [3, 5, 7, 9, 11])
    def test_memo_off_cold_and_warm_agree(self, seed, strategy):
        relation = random_relation(4, 4, seed=seed)
        options = BrelOptions(strategy=strategy, max_explored=40)
        off = BrelSolver(dataclasses.replace(options, memo=False),
                         memo=MemoStore()).solve(relation)
        assert off.stats.memo_hits == off.stats.memo_misses == 0
        store = MemoStore()
        cold = BrelSolver(options, memo=store).solve(relation)
        assert solve_fingerprint(cold, relation) \
            == solve_fingerprint(off, relation)
        assert cold.stats.memo_stores > 0
        warm = BrelSolver(options, memo=store).solve(relation)
        assert warm.stats.memo_hits > 0
        assert solve_fingerprint(warm, relation)[:2] \
            == solve_fingerprint(off, relation)[:2]
        assert relation.is_compatible(warm.solution.functions)


class TestJsonWireFormat:
    """The disk-tier wire format: entries survive JSON serialisation."""

    def round_trip(self, entries):
        import json

        from repro.core.memo import (entries_from_jsonable,
                                     entries_to_jsonable)
        text = json.dumps(entries_to_jsonable(entries))
        return entries_from_jsonable(json.loads(text))

    def test_synthetic_entries_round_trip_losslessly(self):
        entries = [
            (("quick", ("sig", 3, True), "isop"), ((1, True), (2, False))),
            (("eval", ("s",), "restrict", (1, 0)), 7),
            (("isf", (None, "x"), "isop"), (((0, False),), True)),
        ]
        assert self.round_trip(entries) == entries

    def test_real_solve_templates_round_trip(self):
        """Templates learned from a real solve, pushed through JSON and
        seeded into a fresh store, replay as hits with byte-identical
        results in a brand-new manager."""
        import json

        relation = fig1_relation()
        store = MemoStore()
        original = quick_solve(relation, memo=store)
        assert store.stores > 0
        revived = MemoStore(entries=self.round_trip(
            store.export_entries()))
        # Same content, new manager: only the wire entries are shared.
        fresh = fig1_relation()
        replayed = quick_solve(fresh, memo=revived)
        assert replayed.describe() == original.describe()
        assert replayed.cost == original.cost
        assert revived.hits > 0 and revived.misses == 0

    def test_capacity_bounded_export_keeps_most_recent(self):
        store = MemoStore()
        for index in range(10):
            store.put(("k", index), index)
        wired = self.round_trip(store.export_entries(limit=3))
        assert wired == [(("k", 7), 7), (("k", 8), 8), (("k", 9), 9)]
        bounded = MemoStore(capacity=2, entries=wired)
        assert len(bounded) == 2  # seeding respects the store's bound
        assert bounded.get(("k", 9)) == 9

    def test_stale_and_malformed_rows_are_skipped(self):
        from repro.core.memo import entries_from_jsonable
        data = [
            [["quick", ["sig"], "isop"], [[1, True]]],  # good
            ["not-a-pair"],                             # wrong arity
            "garbage",                                  # wrong shape
            [["eval", ["s"], "isop"], 4, "extra"],      # wrong arity
            [["eval", ["s2"], "isop"], 9],              # good
        ]
        entries = entries_from_jsonable(data)
        assert entries == [(("quick", ("sig",), "isop"), ((1, True),)),
                           (("eval", ("s2",), "isop"), 9)]

    def test_unknown_keys_tolerated_by_store(self):
        """Entries from a future/other version never hit, but they also
        never break the store: they just age out via LRU."""
        store = MemoStore(capacity=4, entries=[
            (("future-kind", ("whatever", 9)), "opaque")])
        relation = fig1_relation()
        solution = quick_solve(relation, memo=store)
        assert solution.functions == quick_solve(relation).functions
