"""Text serialisation of Boolean relations (gyocro-style PLA dialect).

The gyocro suite distributed BRs as espresso PLA files with one row per
(input cube, permitted output pattern).  This module reads and writes that
dialect:

    .i 2
    .o 2
    .type fr
    # input-plane  output-pattern
    00 01
    10 00
    10 11
    11 1-
    .e

* The input plane uses ``0/1/-`` cube notation.
* Each output pattern is one permitted output *cube* for those inputs —
  several rows with the same input cube union their output sets (that is
  the relation-ness: vertex ``10`` above permits {00, 11}).
* Input vertices not mentioned by any row have an empty output set (the
  relation is then not well defined), matching the strict reading of the
  format; writers always emit every vertex of a well-defined relation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..bdd.manager import BddManager
from ..sop.cube import Cube
from .relation import BooleanRelation


class RelationFormatError(ValueError):
    """Raised on malformed relation files."""


def peek_shape(text: str) -> Tuple[int, int]:
    """Scan just the ``.i`` / ``.o`` header of PLA-dialect text.

    Lets callers learn ``(num_inputs, num_outputs)`` — e.g. to pick a
    shared manager — without building the relation.
    """
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith(".i ") or line.startswith(".o "):
            try:
                value = int(line.split()[1])
            except ValueError:
                raise RelationFormatError("malformed header %r"
                                          % line) from None
            if line.startswith(".i "):
                num_inputs = value
            else:
                num_outputs = value
        if num_inputs is not None and num_outputs is not None:
            return num_inputs, num_outputs
    raise RelationFormatError("missing .i / .o header")


def parse_relation(text: str,
                   mgr: Optional[BddManager] = None) -> BooleanRelation:
    """Parse the PLA-dialect text into a :class:`BooleanRelation`.

    When ``mgr`` is given the relation is built inside that manager
    (which must already hold enough variables), enabling node sharing
    across relations — e.g. a :class:`repro.api.Session` ingesting many
    same-shape relations.
    """
    num_inputs: Optional[int] = None
    num_outputs: Optional[int] = None
    rows: List[Tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".i "):
            num_inputs = int(line.split()[1])
        elif line.startswith(".o "):
            num_outputs = int(line.split()[1])
        elif line.startswith(".type"):
            kind = line.split()[1] if len(line.split()) > 1 else ""
            if kind not in ("fr", "f", "relation", ""):
                raise RelationFormatError("unsupported .type %r" % kind)
        elif line.startswith(".e"):
            break
        elif line.startswith("."):
            continue  # tolerated unknown directives
        else:
            parts = line.split()
            if len(parts) != 2:
                if len(parts) != 1 or num_inputs != 0:
                    raise RelationFormatError("malformed row %r" % line)
                # Zero-input rows are just the output part.
                parts = ["", parts[0]]
            rows.append((parts[0], parts[1]))
    if num_inputs is None or num_outputs is None:
        raise RelationFormatError("missing .i / .o header")

    output_sets: List[Set[int]] = [set() for _ in range(1 << num_inputs)]
    for in_text, out_text in rows:
        if len(in_text) != num_inputs or len(out_text) != num_outputs:
            raise RelationFormatError("row width mismatch: %s %s"
                                      % (in_text, out_text))
        in_cube = Cube.from_str(in_text)
        out_cube = Cube.from_str(out_text)
        for vertex in in_cube.minterms():
            for out_value in out_cube.minterms():
                output_sets[vertex].add(out_value)
    return BooleanRelation.from_output_sets(output_sets, num_inputs,
                                            num_outputs, mgr=mgr)


def write_relation(relation: BooleanRelation,
                   comment: Optional[str] = None) -> str:
    """Serialise a relation to the PLA dialect (one row per (x, y) cube).

    Output sets are written as one output pattern per permitted vertex —
    compact cube-merging of output sets is possible but the explicit form
    round-trips exactly and keeps the writer simple.
    """
    num_inputs = len(relation.inputs)
    num_outputs = len(relation.outputs)
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append("# %s" % part)
    lines.append(".i %d" % num_inputs)
    lines.append(".o %d" % num_outputs)
    lines.append(".type fr")
    for vertex, outputs in relation.rows():
        in_text = "".join("1" if (vertex >> i) & 1 else "0"
                          for i in range(num_inputs))
        for out_value in sorted(outputs):
            out_text = "".join("1" if (out_value >> j) & 1 else "0"
                               for j in range(num_outputs))
            lines.append("%s %s" % (in_text, out_text))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def load_relation(path: str,
                  mgr: Optional[BddManager] = None) -> BooleanRelation:
    """Read a relation file from disk."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_relation(handle.read(), mgr=mgr)


def save_relation(relation: BooleanRelation, path: str,
                  comment: Optional[str] = None) -> None:
    """Write a relation file to disk."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_relation(relation, comment))
