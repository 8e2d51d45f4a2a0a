"""The paper's worked examples, encoded literally and pinned.

Input vertices are written as in the paper (``x1 x2``) and encoded with
bit ``i`` = i-th variable, so vertex "10" (x1=1, x2=0) is integer 0b01.
The helper functions below keep that translation readable.
"""

import pytest

from repro.bdd import FALSE
from repro.core import (BooleanRelation, BrelOptions, BrelSolver,
                        cube_count_cost, exact_solve, minimize_exact_cubes,
                        output_symmetries, quick_solve, solve_relation)


def enc(bits: str) -> int:
    """Encode a paper-style vertex string (first char = first variable)."""
    value = 0
    for index, char in enumerate(bits):
        if char == "1":
            value |= 1 << index
    return value


def rows_from_table(table, num_inputs):
    """Build the row list from {vertex-string: {output-strings}}."""
    rows = [set() for _ in range(1 << num_inputs)]
    for vertex, outputs in table.items():
        rows[enc(vertex)] = {enc(o) for o in outputs}
    return rows


def fig1_relation() -> BooleanRelation:
    """The running example of Fig. 1(a) / Example 4.2."""
    table = {
        "00": {"01"},
        "01": {"01"},
        "10": {"00", "11"},
        "11": {"10", "11"},
    }
    return BooleanRelation.from_output_sets(rows_from_table(table, 2), 2, 2)


def fig5_relation() -> BooleanRelation:
    """The Fig. 5 / Fig. 10 relation (QuickSolver / gyocro trap).

    Reconstructed from the constraints the text states: QuickSolver
    (x first) must produce exactly ``(x ⇔ 1)(y ⇔ ab + a'b')``, the optimum
    under the cubes-then-literals objective is ``(x ⇔ b)(y ⇔ a)``, and the
    relation has exactly eight compatible functions.  The table below
    satisfies all three (the y-projection after fixing ``x = 1`` is fully
    specified, which forces the XNOR no matter how the ISF minimiser
    breaks ties).
    """
    table = {
        "00": {"00", "11"},
        "01": {"00", "10"},
        "10": {"01", "10"},
        "11": {"11"},
    }
    return BooleanRelation.from_output_sets(rows_from_table(table, 2), 2, 2)


class TestFig1Example42:
    def test_flexibility_of_vertex_11_is_a_dont_care(self):
        """R(11) = {10, 11} is cube flexibility (y2 free)."""
        relation = fig1_relation()
        isf_y2 = relation.project(1)
        assignment = {0: True, 1: True}
        assert isf_y2.value_at(assignment) == "-"

    def test_flexibility_of_vertex_10_is_not_a_cube(self):
        """R(10) = {00, 11} cannot be expressed with don't cares: the
        MISF projection expands it to the full output set (Example 5.2)."""
        relation = fig1_relation()
        misf = relation.misf_relation()
        assert misf.output_set(enc("10")) == {0, 1, 2, 3}

    def test_compatible_function_of_example_4_2(self):
        """F: 00→01, 01→01, 10→11, 11→11 is compatible."""
        relation = fig1_relation()
        mgr = relation.mgr
        # y1 = x1, y2 = 1 reproduces exactly that table.
        y1 = mgr.var(relation.inputs[0])
        y2 = mgr.minterm([], 0)  # TRUE
        from repro.bdd import TRUE
        assert relation.is_compatible([y1, TRUE])

    def test_incompatible_function_of_example_5_4(self):
        """F mapping 10→10 has Incomp(F, R) = {(10, 10)}."""
        relation = fig1_relation()
        mgr = relation.mgr
        # y1 = x1, y2 = x1 XNOR x2 maps 00→01, 01→00?? — build explicitly:
        # target: 00→01, 01→01, 10→10, 11→11  (the paper's "incompatible")
        targets = {enc("00"): enc("01"), enc("01"): enc("01"),
                   enc("10"): enc("10"), enc("11"): enc("11")}
        functions = []
        for j in range(2):
            minterms = [x for x, y in targets.items() if (y >> j) & 1]
            functions.append(mgr.from_minterms(list(relation.inputs),
                                               minterms))
        assert not relation.is_compatible(functions)
        incomp = relation.incompatibilities(functions)
        pairs = list(relation.mgr.minterms(
            incomp, list(relation.inputs) + list(relation.outputs)))
        # Exactly one incompatible pair: input 10, output 10.
        assert len(pairs) == 1
        pair = pairs[0]
        x_part = pair & 0b11
        y_part = (pair >> 2) & 0b11
        assert x_part == enc("10")
        assert y_part == enc("10")

    def test_projections_of_example_5_1(self):
        relation = fig1_relation()
        isf_y1 = relation.project(0)
        # y1: 00→0, 01→0, 10→-, 11→1
        assert isf_y1.value_at({0: False, 1: False}) == "0"
        assert isf_y1.value_at({0: False, 1: True}) == "0"
        assert isf_y1.value_at({0: True, 1: False}) == "-"
        assert isf_y1.value_at({0: True, 1: True}) == "1"
        isf_y2 = relation.project(1)
        # y2: 00→1, 01→1, 10→-, 11→-
        assert isf_y2.value_at({0: False, 1: False}) == "1"
        assert isf_y2.value_at({0: False, 1: True}) == "1"
        assert isf_y2.value_at({0: True, 1: False}) == "-"
        assert isf_y2.value_at({0: True, 1: True}) == "-"

    def test_split_of_example_5_5(self):
        """Splitting at vertex 10 on y1 yields the two tabulated BRs."""
        relation = fig1_relation()
        vertex = {0: True, 1: False}
        r_y0, r_y1 = relation.split(vertex, 0)
        # Forcing y1=0 at 10 leaves {00}; forcing y1=1 leaves {11}.
        assert r_y0.output_set(enc("10")) == {enc("00")}
        assert r_y1.output_set(enc("10")) == {enc("11")}
        # All other rows unchanged.
        for v in ("00", "01", "11"):
            assert r_y0.output_set(enc(v)) == relation.output_set(enc(v))
            assert r_y1.output_set(enc(v)) == relation.output_set(enc(v))
        # Both are well defined and strictly smaller (Theorem 5.2).
        assert r_y0.is_well_defined() and r_y1.is_well_defined()
        assert r_y0 < relation and r_y1 < relation

    def test_example_5_6_degenerate_split(self):
        """Splitting at vertex 11 on y1 is degenerate: y1 is fixed to 1."""
        relation = fig1_relation()
        vertex = {0: True, 1: True}
        assert not relation.can_split(vertex, 0)
        r_y0, r_y1 = relation.split(vertex, 0)
        assert r_y1.node == relation.node        # nothing removed
        assert not r_y0.is_well_defined()        # vertex 11 lost all outputs


class TestFig5Fig10:
    def test_exactly_eight_compatible_functions(self):
        from repro.core import count_compatible_functions
        assert count_compatible_functions(fig5_relation()) == 8

    def test_quick_solver_finds_the_trap_solution(self):
        """Example 6.1: QuickSolver yields x=1, y = ab + a'b'."""
        relation = fig5_relation()
        mgr = relation.mgr
        solution = quick_solve(relation, cost_function=cube_count_cost)
        a, b = mgr.var(relation.inputs[0]), mgr.var(relation.inputs[1])
        from repro.bdd import TRUE
        assert solution.functions[0] == TRUE
        assert solution.functions[1] == mgr.xnor_(a, b)

    def test_optimum_is_x_b_y_a(self):
        """The best compatible function under the gyocro objective
        (product terms first, then literals) is (x ⇔ b)(y ⇔ a)."""
        from repro.core import weighted_cost
        relation = fig5_relation()
        mgr = relation.mgr
        objective = weighted_cost(size_weight=0.0, cube_weight=10.0,
                                  literal_weight=1.0)
        best = exact_solve(relation, objective)
        a, b = mgr.var(relation.inputs[0]), mgr.var(relation.inputs[1])
        assert tuple(best.functions) == (b, a)

    def test_brel_escapes_the_local_minimum(self):
        """Unlike gyocro (Section 9.1), BREL reaches (x ⇔ b)(y ⇔ a)."""
        relation = fig5_relation()
        mgr = relation.mgr
        result = solve_relation(relation)  # default heuristic BFS mode
        a, b = mgr.var(relation.inputs[0]), mgr.var(relation.inputs[1])
        assert tuple(result.solution.functions) == (b, a)
        assert result.solution.cost == 2.0  # BDD sizes 1 + 1

    def test_quick_is_strictly_worse_than_brel_here(self):
        """The order-dependence cost gap of Example 6.1 is real."""
        relation = fig5_relation()
        quick = quick_solve(relation)
        brel = solve_relation(relation)
        assert brel.solution.cost < quick.cost


class TestFig8Symmetry:
    def symmetric_relation(self) -> BooleanRelation:
        """A 2-in 2-out relation symmetric under swapping x and y."""
        table = {
            "00": {"01", "10"},
            "01": {"01", "10", "11"},
            "10": {"01", "10", "11"},
            "11": {"11"},
        }
        return BooleanRelation.from_output_sets(
            rows_from_table(table, 2), 2, 2)

    def test_output_swap_symmetry_detected(self):
        relation = self.symmetric_relation()
        kinds = {(i, j, k) for i, j, k in output_symmetries(relation)}
        assert any(kind == "nonequivalence" for _, _, kind in kinds)

    def test_split_produces_symmetric_images(self):
        """The two halves of a split on a symmetric vertex are images of
        each other under the output swap (the Fig. 8 situation)."""
        relation = self.symmetric_relation()
        mgr = relation.mgr
        vertex = {0: False, 1: False}
        r0, r1 = relation.split(vertex, 0)
        swapped = mgr.swap_vars(r0.node, relation.outputs[0],
                                relation.outputs[1])
        assert swapped == r1.node

    def test_symmetry_pruning_reduces_exploration(self):
        relation = self.symmetric_relation()
        base = BrelOptions(strategy="dfs", max_explored=None,
                           fifo_capacity=None, symmetry_pruning=False)
        pruned = BrelOptions(strategy="dfs", max_explored=None,
                             fifo_capacity=None, symmetry_pruning=True,
                             symmetry_max_depth=4)
        plain = BrelSolver(base).solve(relation)
        with_sym = BrelSolver(pruned).solve(relation)
        assert with_sym.stats.symmetry_prunes >= 0
        assert (with_sym.stats.relations_explored
                <= plain.stats.relations_explored)
        # Equal-quality results.
        assert with_sym.solution.cost == plain.solution.cost
