"""BrelOptions budget validation (negative values disable exploration)."""

import pytest

from repro.core import BooleanRelation, BrelOptions, BrelSolver


class TestBudgetValidation:
    def test_negative_max_explored_rejected(self):
        with pytest.raises(ValueError, match="max_explored"):
            BrelOptions(max_explored=-1)

    def test_negative_fifo_capacity_rejected(self):
        with pytest.raises(ValueError, match="fifo_capacity"):
            BrelOptions(fifo_capacity=-1)

    def test_zero_and_none_still_accepted(self):
        # fifo_capacity=0 is a supported edge case (children generated but
        # never enqueued); None means unbounded.
        BrelOptions(fifo_capacity=0, max_explored=0)
        BrelOptions(fifo_capacity=None, max_explored=None)

    def test_existing_validation_still_active(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            BrelOptions(strategy="sideways")
        with pytest.raises(ValueError, match="time_limit_seconds"):
            BrelOptions(time_limit_seconds=-0.5)

    def test_negative_symmetry_max_depth_rejected(self):
        with pytest.raises(ValueError, match="symmetry_max_depth"):
            BrelOptions(symmetry_max_depth=-1)
        BrelOptions(symmetry_max_depth=0)  # 0 disables the cache

    def test_unknown_strategy_gets_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean"):
            BrelOptions(strategy="best-frist")

    def test_valid_options_still_solve(self):
        relation = BooleanRelation.from_output_sets(
            [{0b01}, {0b01}, {0b00, 0b11}, {0b10, 0b11}], 2, 2)
        options = BrelOptions(max_explored=10, fifo_capacity=4)
        result = BrelSolver(options).solve(relation)
        assert relation.is_compatible(result.solution.functions)
