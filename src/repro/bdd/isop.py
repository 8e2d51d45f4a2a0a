"""Minato-Morreale irredundant sum-of-products from a BDD interval.

Implements reference [24] of the paper: given a function interval
``[lower, upper]`` (for an ISF, ``[ON, ON + DC]``), produce an irredundant
prime cover ``F`` with ``lower <= F <= upper`` together with the BDD of the
cover.  This is the workhorse ISF minimiser the paper selects in
Section 7.5 after comparing it with constrain/restrict and LICompact
(Table 1).

The expansion runs on an explicit frame stack (a three-phase state machine
per interval) so cover extraction works on BDDs of any depth under the
default interpreter recursion limit.  Each solved interval is an entry of
the manager's bounded computed table, stored as a shared cover tree, so
an interval is expanded once per manager (until a flush or ``collect``)
however many calls meet it; a call flattens its tree into cubes once.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from .manager import FALSE, ISOP_TAG, TRUE, BddManager

#: A cube is a variable -> polarity mapping; missing variables are don't care.
Cube = Dict[int, bool]
#: One literal of a cube: ``(variable level or support rank, polarity)``.
Literal = Tuple[int, bool]

# Phases of the explicit-stack expansion.
_EXPAND = 0     # inspect an interval, push its polarised halves
_MERGE = 1      # polarised halves done, push the don't-care interval
_COMBINE = 2    # all three sub-covers done, build this interval's cover

# Interned literal pairs: ``_LITERALS[polarity][index] == (index,
# polarity)``.  Covers and memo templates hold many thousands of
# literals over a few dozen indices, so they share these pairs instead
# of allocating one tuple per literal.  Readers never take the lock:
# the tables only grow, under it, by appending in index order.
_LITERALS: Tuple[List[Literal], List[Literal]] = ([], [])
_GROW_LOCK = threading.Lock()


def literal(index: int, polarity: bool) -> Literal:
    """The interned ``(index, polarity)`` pair (``index >= 0``)."""
    table = _LITERALS[polarity]
    if index >= len(table):
        with _GROW_LOCK:
            value = bool(polarity)
            while len(table) <= index:
                table.append((len(table), value))
    return table[index]


def isop(mgr: BddManager, lower: int, upper: int) -> Tuple[List[Cube], int]:
    """Compute an irredundant SOP within the interval ``[lower, upper]``.

    Parameters
    ----------
    mgr:
        The owning BDD manager.
    lower, upper:
        BDD nodes with ``lower <= upper`` (raises ``ValueError`` otherwise).

    Returns
    -------
    (cover, node):
        ``cover`` is a list of cubes, each with its variables in level
        order; ``node`` is the BDD of their disjunction, satisfying
        ``lower <= node <= upper``.  The cover is irredundant: removing
        any cube uncovers part of ``lower``.

    Every interval result is kept in the manager's computed table as a
    cover tree (see :func:`_isop_tree`), so sub-intervals solved by one
    call are reused by the next; the cube list is built once, here.
    """
    if not mgr.implies(lower, upper):
        raise ValueError("isop requires lower <= upper")
    tree, node = _isop_tree(mgr, lower, upper)
    return [dict(cube) for cube in _cubes(tree)], node


def _isop_tree(mgr: BddManager, lower: int, upper: int) -> Tuple[object, int]:
    """Minato-Morreale expansion of ``[lower, upper]`` into a cover tree.

    A cover tree is ``FALSE`` (no cube), ``TRUE`` (the one empty cube) or
    ``(var, tree0, tree1, tree_dc)``: the cubes of ``tree0`` with the
    literal ~var, then those of ``tree1`` with var, then those of
    ``tree_dc``.  Trees are shared between intervals, so storing one in
    the computed table costs a single tuple.
    """
    lookup, store = mgr.lookup_result, mgr.store_result
    # results holds (tree, node) pairs, one per completed sub-interval;
    # tasks is a flat mixed stack (operands pushed, phase tag popped first).
    results: list = []
    tasks: list = [upper, lower, _EXPAND]
    push = tasks.append
    pop = tasks.pop
    while tasks:
        phase = pop()
        if phase == _EXPAND:
            low = pop()
            upp = pop()
            if low == FALSE:
                results.append((FALSE, FALSE))
                continue
            if upp == TRUE:
                results.append((TRUE, TRUE))
                continue
            key = (ISOP_TAG, low, upp)
            hit = lookup(key)
            if hit is not None:
                results.append(hit)
                continue
            var = min(mgr.level(low), mgr.level(upp))
            low0 = mgr.cofactor(low, var, False)
            low1 = mgr.cofactor(low, var, True)
            upp0 = mgr.cofactor(upp, var, False)
            upp1 = mgr.cofactor(upp, var, True)

            # Vertices of the 0-half that the 1-half cannot absorb must be
            # covered by cubes carrying the literal ~var (and dually).
            need0 = mgr.diff(low0, upp1)
            need1 = mgr.diff(low1, upp0)
            tasks.extend((upp1, upp0, low1, low0, var, key, _MERGE,
                          upp1, need1, _EXPAND,
                          upp0, need0, _EXPAND))
        elif phase == _MERGE:
            key = pop()
            var = pop()
            low0 = pop()
            low1 = pop()
            upp0 = pop()
            upp1 = pop()
            tree1, f1 = results.pop()
            tree0, f0 = results.pop()
            # What is still uncovered may be captured by cubes without var.
            rest = mgr.or_(mgr.diff(low0, f0), mgr.diff(low1, f1))
            upp_dc = mgr.and_(upp0, upp1)
            push(var)
            push(key)
            push(_COMBINE)
            push(upp_dc)
            push(rest)
            push(_EXPAND)
            results.append((tree0, f0, tree1, f1))  # parked for _COMBINE
        else:
            key = pop()
            var = pop()
            tree_dc, f_dc = results.pop()
            tree0, f0, tree1, f1 = results.pop()
            node = mgr.or_(
                mgr.ite(mgr.var(var), f1, f0),
                f_dc,
            )
            result = ((var, tree0, tree1, tree_dc), node)
            store(key, result)
            results.append(result)
    return results[0]


def _cubes(tree) -> List[Tuple[Literal, ...]]:
    """Flatten a cover tree into its cubes, in cover and level order."""
    if tree == FALSE:
        return []
    cubes: List[Tuple[Literal, ...]] = []
    emit = cubes.append
    # Flat stack of (tree, literal prefix) pairs holding no FALSE trees;
    # the 0-branch is pushed last so it is emitted first.
    stack: list = [tree, ()]
    push = stack.append
    pop = stack.pop
    while stack:
        prefix = pop()
        tree = pop()
        if tree == TRUE:
            emit(prefix)
            continue
        var, tree0, tree1, tree_dc = tree
        if tree_dc != FALSE:
            push(tree_dc)
            push(prefix)
        if tree1 != FALSE:
            push(tree1)
            push(prefix + (literal(var, True),))
        if tree0 != FALSE:
            push(tree0)
            push(prefix + (literal(var, False),))
    return cubes


def isop_node(mgr: BddManager, lower: int, upper: int) -> int:
    """Like :func:`isop` but return only the BDD of the cover."""
    return isop(mgr, lower, upper)[1]


def cover_literals(cover: List[Cube]) -> int:
    """Total literal count of a cube list."""
    return sum(len(cube) for cube in cover)


def cover_to_node(mgr: BddManager, cover: List[Cube]) -> int:
    """Disjunction of a cube list as a BDD node."""
    result = FALSE
    for cube in cover:
        result = mgr.or_(result, mgr.cube(cube))
    return result
