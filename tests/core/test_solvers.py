"""Solver correctness: QuickSolver, BREL (both modes), exact oracle."""

import pytest
from hypothesis import given, settings

from repro.core import (BooleanRelation, BrelOptions, BrelSolver,
                        NotWellDefinedError, bdd_size_cost,
                        bdd_size_squared_cost, cube_count_cost, exact_solve,
                        minimize_exact_cubes, quick_solve, solve_exactly,
                        solve_relation)

from .reference import SetRelation
from .strategies import set_relations


def reference_compatible(reference: SetRelation, solution) -> bool:
    """Check a Solution against the set oracle."""
    relation = reference.to_bdd_relation()
    return relation.is_compatible(solution.functions)


class TestQuickSolver:
    def test_rejects_ill_defined(self):
        bad = BooleanRelation.from_output_sets([set(), {1}], 1, 1)
        with pytest.raises(NotWellDefinedError):
            quick_solve(bad)

    def test_function_relation_recovered(self):
        relation = BooleanRelation.from_output_sets([{0}, {1}, {1}, {0}],
                                                    2, 1)
        solution = quick_solve(relation)
        assert relation.is_compatible(solution.functions)
        # The unique compatible function must be returned exactly.
        assert relation.function_vector()[0] == solution.functions[0]

    def test_output_order_changes_result(self):
        # The paper's Fig. 5 relation: order dependence is the point.
        rows = [{0b00, 0b01, 0b10, 0b11}, {0b01}, {0b10}, {0b11}]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        first = quick_solve(relation, output_order=[0, 1])
        second = quick_solve(relation, output_order=[1, 0])
        assert relation.is_compatible(first.functions)
        assert relation.is_compatible(second.functions)

    def test_bad_output_order_rejected(self):
        relation = BooleanRelation.from_output_sets([{0}, {1}], 1, 1)
        with pytest.raises(ValueError):
            quick_solve(relation, output_order=[1])


class TestBrelModes:
    def test_bfs_defaults(self):
        rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        result = solve_relation(relation)
        assert relation.is_compatible(result.solution.functions)
        assert result.stats.relations_explored >= 1

    def test_dfs_mode(self):
        rows = [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        result = solve_exactly(relation)
        assert relation.is_compatible(result.solution.functions)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            BrelOptions(strategy="dijkstra")

    def test_max_explored_limits_work(self):
        rows = [{0, 1, 2, 3}] * 8
        relation = BooleanRelation.from_output_sets(rows, 3, 2)
        options = BrelOptions(max_explored=1, decompose=False)
        result = BrelSolver(options).solve(relation)
        assert result.stats.relations_explored <= 1
        assert relation.is_compatible(result.solution.functions)

    def test_max_explored_applies_per_block_when_sharded(self):
        # Both outputs are fully free with empty input supports, so the
        # relation shards into two singleton blocks; the exploration
        # budget applies to each block's own search loop.
        rows = [{0, 1, 2, 3}] * 8
        relation = BooleanRelation.from_output_sets(rows, 3, 2)
        options = BrelOptions(max_explored=1)
        result = BrelSolver(options).solve(relation)
        assert result.partition is not None
        assert result.partition["num_blocks"] == 2
        assert result.stats.relations_explored <= 2
        assert relation.is_compatible(result.solution.functions)

    def test_fifo_capacity_counts_overflow(self):
        # A relation with many conflicts; a tiny frontier must overflow.
        rows = [{0b01, 0b10} for _ in range(8)]
        relation = BooleanRelation.from_output_sets(rows, 3, 2)
        options = BrelOptions(fifo_capacity=1, max_explored=50)
        result = BrelSolver(options).solve(relation)
        assert relation.is_compatible(result.solution.functions)

    def test_brel_never_worse_than_quick(self):
        rows = [{0b00, 0b01, 0b10, 0b11}, {0b01}, {0b10}, {0b11}]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        quick = quick_solve(relation)
        result = solve_relation(relation, BrelOptions(max_explored=50))
        assert result.solution.cost <= quick.cost


class TestExactOracle:
    def test_count_compatible(self):
        from repro.core import count_compatible_functions
        rows = [{0, 1}, {2}, {1, 2, 3}, {0}]
        relation = BooleanRelation.from_output_sets(rows, 2, 2)
        assert count_compatible_functions(relation) == 6

    def test_limit_guard(self):
        rows = [{0, 1, 2, 3}] * 16
        relation = BooleanRelation.from_output_sets(rows, 4, 2)
        with pytest.raises(ValueError):
            exact_solve(relation, limit=100)

    def test_singleton_relation(self):
        rows = [{1}, {0}]
        relation = BooleanRelation.from_output_sets(rows, 1, 1)
        best = exact_solve(relation)
        assert relation.is_compatible(best.functions)


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=50, deadline=None)
def test_quick_always_compatible(reference):
    relation = reference.to_bdd_relation()
    solution = quick_solve(relation)
    assert relation.is_compatible(solution.functions)


@given(set_relations(num_inputs=3, num_outputs=2))
@settings(max_examples=30, deadline=None)
def test_brel_bfs_always_compatible(reference):
    relation = reference.to_bdd_relation()
    result = solve_relation(relation, BrelOptions(max_explored=20))
    assert relation.is_compatible(result.solution.functions)


@given(set_relations(num_inputs=2, num_outputs=3))
@settings(max_examples=30, deadline=None)
def test_brel_dfs_always_compatible(reference):
    relation = reference.to_bdd_relation()
    result = solve_exactly(relation)
    assert relation.is_compatible(result.solution.functions)


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=30, deadline=None)
def test_brel_at_least_as_good_as_exact_never_better(reference):
    """The exhaustive oracle lower-bounds every solver."""
    relation = reference.to_bdd_relation()
    oracle = exact_solve(relation, bdd_size_cost)
    result = solve_relation(relation, BrelOptions(max_explored=40))
    assert result.solution.cost >= oracle.cost


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=25, deadline=None)
def test_exact_mode_matches_oracle_on_cube_count(reference):
    """Paper §7.6: with an exact ISF minimiser and complete exploration,
    BREL is exact.  Cube-count cost + exhaustive-cube ISF minimisation
    makes the Fig. 6 line-6 prune admissible, so DFS must match the
    brute-force optimum."""
    relation = reference.to_bdd_relation()
    oracle = exact_solve(relation, cube_count_cost)
    options = BrelOptions(cost_function=cube_count_cost,
                          minimizer=minimize_exact_cubes,
                          strategy="dfs", max_explored=None,
                          fifo_capacity=None)
    result = BrelSolver(options).solve(relation)
    assert result.solution.cost == oracle.cost


@given(set_relations(num_inputs=2, num_outputs=2))
@settings(max_examples=30, deadline=None)
def test_squared_cost_solutions_compatible(reference):
    relation = reference.to_bdd_relation()
    options = BrelOptions(cost_function=bdd_size_squared_cost,
                          max_explored=20)
    result = BrelSolver(options).solve(relation)
    assert relation.is_compatible(result.solution.functions)
