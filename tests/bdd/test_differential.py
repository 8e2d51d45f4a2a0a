"""Randomized differential suite: the BDD engine vs brute-force truth.

Every operation of the rewritten explicit-stack engine — apply
(and/or/xor/diff), ite, cofactor and the quantifiers — is checked against
direct truth-table evaluation over *all* assignments, on seeded random
relations from :mod:`repro.benchdata.brgen` with up to 6+6 variables,
and so are the structural view (level/low/high, support, size,
fingerprints), composition, cubes, counting, ISOP covers and garbage
collection.
The same seeded cases drive full solver runs, whose answers are checked
against the relation by brute force.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import BddManager
from repro.bdd.isop import isop
from repro.benchdata.brgen import random_relation
from repro.core import BrelOptions, BrelSolver

#: (num_inputs, num_outputs, seed) per differential round.
CASES = [
    (3, 3, 1),
    (4, 4, 2),
    (5, 5, 3),
    (6, 6, 4),
    (6, 6, 5),
]

#: Engine modes: "hybrid" is the default dispatch (small managers take
#: the bounded recursive twins); "iterative" forces every operation onto
#: the explicit-stack engine, which small managers never reach naturally
#: (the iterative floor only activates past MAX_RECURSIVE_LEVELS vars).
MODES = ("hybrid", "iterative")


def set_engine_mode(mgr, mode):
    if mode == "iterative":
        # A floor above every level means no operation qualifies for the
        # recursive twins — all walks run on the explicit stacks.
        mgr._iter_floor = mgr.num_vars + 1


def case_params():
    return [case + (mode,) for case in CASES for mode in MODES]


def function_pool(relation):
    """Assorted engine-produced functions living in one manager."""
    mgr = relation.mgr
    pool = [relation.node, relation.misf_relation().node]
    for position in range(min(3, len(relation.outputs))):
        isf = relation.project(position)
        pool.extend([isf.on, isf.upper])
    pool.extend(mgr.var(v) for v in relation.inputs[:2])
    return [node for node in set(pool)]


def truth_table(mgr, node, variables):
    """Bitmask truth table: bit i == value under assignment encoded by i."""
    table = 0
    for i in range(1 << len(variables)):
        assignment = {var: bool((i >> j) & 1)
                      for j, var in enumerate(variables)}
        if mgr.eval(node, assignment):
            table |= 1 << i
    return table


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_apply_and_ite_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    full = (1 << (1 << len(variables))) - 1
    pool = function_pool(relation)
    tt = {node: truth_table(mgr, node, variables) for node in pool}
    rng = random.Random(seed)
    for _ in range(12):
        f, g, h = (rng.choice(pool) for _ in range(3))
        assert truth_table(mgr, mgr.and_(f, g), variables) == tt[f] & tt[g]
        assert truth_table(mgr, mgr.or_(f, g), variables) == tt[f] | tt[g]
        assert truth_table(mgr, mgr.xor_(f, g), variables) == tt[f] ^ tt[g]
        assert truth_table(mgr, mgr.diff(f, g), variables) == \
            tt[f] & (full ^ tt[g])
        assert truth_table(mgr, mgr.not_(f), variables) == full ^ tt[f]
        expected_ite = (tt[f] & tt[g]) | ((full ^ tt[f]) & tt[h])
        assert truth_table(mgr, mgr.ite(f, g, h), variables) == expected_ite
        assert mgr.implies(f, g) == (tt[f] & ~tt[g] == 0)


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_quantifiers_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    pool = function_pool(relation)
    rng = random.Random(100 + seed)

    def brute_quant(table, quantified, universal):
        result = 0
        n = len(variables)
        free = [j for j in range(n) if variables[j] not in quantified]
        qpos = [j for j in range(n) if variables[j] in quantified]
        for i in range(1 << n):
            values = []
            for combo in range(1 << len(qpos)):
                k = i
                for bit, j in enumerate(qpos):
                    k = (k & ~(1 << j)) | (((combo >> bit) & 1) << j)
                values.append((table >> k) & 1)
            bit = all(values) if universal else any(values)
            if bit:
                result |= 1 << i
        return result

    for _ in range(6):
        f = rng.choice(pool)
        table = truth_table(mgr, f, variables)
        quantified = rng.sample(variables, rng.randint(1, 3))
        assert truth_table(mgr, mgr.exists(f, quantified), variables) == \
            brute_quant(table, set(quantified), universal=False)
        assert truth_table(mgr, mgr.forall(f, quantified), variables) == \
            brute_quant(table, set(quantified), universal=True)


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_cofactors_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    pool = function_pool(relation)
    rng = random.Random(200 + seed)
    for _ in range(6):
        f = rng.choice(pool)
        table = truth_table(mgr, f, variables)
        var = rng.choice(variables)
        j = variables.index(var)
        for value in (False, True):
            restricted = mgr.cofactor(f, var, value)
            expected = 0
            for i in range(1 << len(variables)):
                k = (i | (1 << j)) if value else (i & ~(1 << j))
                if (table >> k) & 1:
                    expected |= 1 << i
            assert truth_table(mgr, restricted, variables) == expected


def brute_cofactor(table, position, value, num_vars):
    """Truth table of the cofactor fixing bit ``position`` to ``value``."""
    result = 0
    for i in range(1 << num_vars):
        k = (i | (1 << position)) if value else (i & ~(1 << position))
        if (table >> k) & 1:
            result |= 1 << i
    return result


def brute_substitute(table, replacements, num_vars):
    """Simultaneous substitution: ``replacements`` maps bit -> table."""
    result = 0
    for i in range(1 << num_vars):
        k = i
        for position, sub in replacements.items():
            k = (k & ~(1 << position)) | (((sub >> i) & 1) << position)
        if (table >> k) & 1:
            result |= 1 << i
    return result


def msb_string(mgr, node, order):
    """Truth table as a string with ``order[0]`` as the most significant
    bit, so every cofactor over a prefix of ``order`` is a substring."""
    n = len(order)
    bits = []
    for i in range(1 << n):
        assignment = {var: bool((i >> (n - 1 - k)) & 1)
                      for k, var in enumerate(order)}
        bits.append("1" if mgr.eval(node, assignment) else "0")
    return "".join(bits)


def brute_nodes(strings):
    """Internal nodes of the reduced ordered BDD of each string, by depth.

    A node labelled with the ``p``-th variable is exactly a distinct
    depth-``p`` substring whose two halves differ.
    """
    nodes = set()
    for s in strings:
        width = len(s)
        depth = 0
        while width > 1:
            half = width // 2
            for start in range(0, len(s), width):
                piece = s[start:start + width]
                if piece[:half] != piece[half:]:
                    nodes.add((depth, piece))
            width = half
            depth += 1
    return nodes


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_structural_view_is_shannon_expansion(num_inputs, num_outputs, seed,
                                              mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    n = len(variables)
    stack = sorted(function_pool(relation))
    seen = set()
    while stack and len(seen) < 30:
        node = stack.pop()
        if mgr.is_terminal(node) or node in seen:
            continue
        seen.add(node)
        var = mgr.level(node)
        low, high = mgr.low(node), mgr.high(node)
        assert low != high, "unreduced node %d" % node
        assert mgr.level(low) > var and mgr.level(high) > var
        table = truth_table(mgr, node, variables)
        j = variables.index(var)
        assert truth_table(mgr, low, variables) == \
            brute_cofactor(table, j, False, n)
        assert truth_table(mgr, high, variables) == \
            brute_cofactor(table, j, True, n)
        assert mgr.ite(mgr.var(var), high, low) == node
        stack.extend((low, high))
    assert seen


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_support_and_size_match_truth_tables(num_inputs, num_outputs, seed,
                                             mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    order = sorted(variables)
    n = len(variables)
    pool = sorted(function_pool(relation))
    strings = {}
    for f in pool:
        table = truth_table(mgr, f, variables)
        depends = tuple(sorted(
            var for j, var in enumerate(variables)
            if brute_cofactor(table, j, False, n)
            != brute_cofactor(table, j, True, n)))
        assert mgr.support(f) == depends
        strings[f] = msb_string(mgr, f, order)
        assert mgr.size(f) == len(brute_nodes([strings[f]]))
    assert mgr.shared_size(pool) == len(brute_nodes(strings.values()))


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_compose_and_permute_match_truth_tables(num_inputs, num_outputs,
                                                seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    n = len(variables)
    pool = sorted(function_pool(relation))
    tt = {node: truth_table(mgr, node, variables) for node in pool}
    rng = random.Random(300 + seed)
    for _ in range(5):
        f, g, h = (rng.choice(pool) for _ in range(3))
        a, b = rng.sample(variables, 2)
        ja, jb = variables.index(a), variables.index(b)
        assert truth_table(mgr, mgr.compose(f, a, g), variables) == \
            brute_substitute(tt[f], {ja: tt[g]}, n)
        assert truth_table(mgr, mgr.vector_compose(f, {a: g, b: h}),
                           variables) == \
            brute_substitute(tt[f], {ja: tt[g], jb: tt[h]}, n)
        swapped = brute_substitute(
            tt[f], {ja: truth_table(mgr, mgr.var(b), variables),
                    jb: truth_table(mgr, mgr.var(a), variables)}, n)
        assert truth_table(mgr, mgr.swap_vars(f, a, b), variables) == \
            swapped


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_cubes_and_restrict_match_truth_tables(num_inputs, num_outputs, seed,
                                               mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    n = len(variables)
    pool = sorted(function_pool(relation))
    rng = random.Random(400 + seed)
    for _ in range(5):
        chosen = rng.sample(variables, rng.randint(1, 3))
        value = rng.randrange(1 << len(chosen))
        assignment = {var: bool((value >> i) & 1)
                      for i, var in enumerate(chosen)}
        expected_cube = 0
        for i in range(1 << n):
            if all(bool((i >> variables.index(var)) & 1) == polarity
                   for var, polarity in assignment.items()):
                expected_cube |= 1 << i
        cube = mgr.cube(assignment)
        assert truth_table(mgr, cube, variables) == expected_cube
        assert mgr.minterm(chosen, value) == cube
        f = rng.choice(pool)
        expected = truth_table(mgr, f, variables)
        for var, polarity in assignment.items():
            expected = brute_cofactor(expected, variables.index(var),
                                      polarity, n)
        assert truth_table(mgr, mgr.restrict_cube(f, assignment),
                           variables) == expected


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_counting_matches_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    for f in sorted(function_pool(relation)):
        table = truth_table(mgr, f, variables)
        expected = [i for i in range(1 << len(variables))
                    if (table >> i) & 1]
        assert mgr.sat_count(f, variables) == len(expected)
        found = sorted(mgr.minterms(f, variables))
        assert found == expected
        # Canonicity: rebuilding from the minterms gives the same handle.
        assert mgr.from_minterms(variables, found) == f


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_fingerprints_are_canonical_across_managers(num_inputs, num_outputs,
                                                    seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    shift = mgr.num_vars
    other = BddManager()
    other.add_vars(2 * shift)
    set_engine_mode(other, mode)
    shifted = [var + shift for var in variables]
    pool = sorted(function_pool(relation))
    seen = {}
    for f in pool:
        found = list(mgr.minterms(f, variables))
        twin = other.from_minterms(variables, found)
        assert other.fingerprint(twin) == mgr.fingerprint(f)
        assert other.size(twin) == mgr.size(f)
        assert other.support(twin) == mgr.support(f)
        # An order-preserving shift keeps the support fingerprint only.
        moved = other.from_minterms(shifted, found)
        assert other.support_fingerprint(moved) == \
            mgr.support_fingerprint(f)
        if mgr.support(f):
            assert other.fingerprint(moved) != mgr.fingerprint(f)
        table = truth_table(mgr, f, variables)
        assert seen.setdefault(mgr.fingerprint(f), table) == table
    assert mgr.fingerprints(pool) == tuple(mgr.fingerprint(f) for f in pool)


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_isop_covers_match_truth_tables(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    pool = sorted(function_pool(relation))
    rng = random.Random(500 + seed)
    intervals = []
    for position in range(min(3, len(relation.outputs))):
        isf = relation.project(position)
        intervals.append((isf.on, isf.upper))
    for _ in range(3):
        f, g = rng.choice(pool), rng.choice(pool)
        intervals.append((mgr.and_(f, g), mgr.or_(f, g)))
    for lower, upper in intervals:
        low_tt = truth_table(mgr, lower, variables)
        up_tt = truth_table(mgr, upper, variables)
        cover, node = isop(mgr, lower, upper)
        node_tt = truth_table(mgr, node, variables)
        assert low_tt & ~node_tt == 0 and node_tt & ~up_tt == 0
        cube_tts = [truth_table(mgr, mgr.cube(cube), variables)
                    for cube in cover]
        union = 0
        for cube_tt in cube_tts:
            assert cube_tt & ~up_tt == 0, "cube leaves the upper bound"
            union |= cube_tt
        assert union == node_tt
        for skip in range(len(cube_tts)):
            rest = 0
            for index, cube_tt in enumerate(cube_tts):
                if index != skip:
                    rest |= cube_tt
            assert low_tt & ~rest != 0, "redundant cube %d" % skip


@pytest.mark.parametrize("num_inputs,num_outputs,seed,mode", case_params())
def test_collect_keeps_pinned_functions(num_inputs, num_outputs, seed, mode):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    mgr = relation.mgr
    set_engine_mode(mgr, mode)
    variables = list(relation.inputs) + list(relation.outputs)
    pool = sorted(function_pool(relation))
    before = {f: (truth_table(mgr, f, variables), mgr.fingerprint(f))
              for f in pool}
    rng = random.Random(600 + seed)
    for _ in range(10):  # garbage nobody pins
        mgr.xor_(rng.choice(pool), mgr.not_(rng.choice(pool)))
    for f in pool:
        mgr.pin(f)
    mapping = mgr.collect()
    moved = {mapping[f]: before[f] for f in pool}
    for f, (table, fingerprint) in moved.items():
        assert mgr.pin_count(f) == 1
        assert truth_table(mgr, f, variables) == table
        assert mgr.fingerprint(f) == fingerprint
    survivors = sorted(moved)
    for _ in range(5):
        f, g = rng.choice(survivors), rng.choice(survivors)
        assert truth_table(mgr, mgr.and_(f, g), variables) == \
            moved[f][0] & moved[g][0]
        assert truth_table(mgr, mgr.from_minterms(
            variables, mgr.minterms(f, variables)), variables) == \
            moved[f][0]
    for f in survivors:
        mgr.unpin(f)


# ---------------------------------------------------------------------------
# Full solves: every answer stays inside the relation
# ---------------------------------------------------------------------------

def check_solution_allowed(relation, solution):
    """Brute force: every input's chosen output row is in the relation."""
    mgr = relation.mgr
    inputs = list(relation.inputs)
    for i in range(1 << len(inputs)):
        assignment = {var: bool((i >> j) & 1)
                      for j, var in enumerate(inputs)}
        for position, var in enumerate(relation.outputs):
            assignment[var] = solution.mgr.eval(
                solution.functions[position], dict(assignment))
        assert mgr.eval(relation.node, assignment), \
            "solution leaves the relation at input %d" % i


@pytest.mark.parametrize("num_inputs,num_outputs,seed", CASES)
@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
def test_solver_answers_pass_brute_force(num_inputs, num_outputs, seed,
                                         strategy):
    relation = random_relation(num_inputs, num_outputs, seed=seed)
    result = BrelSolver(BrelOptions(strategy=strategy,
                                    max_explored=40)).solve(relation)
    assert result.solution.mgr is relation.mgr
    check_solution_allowed(relation, result.solution)
