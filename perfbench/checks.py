"""Answer checks owned by the benchmark.

Nothing here calls into ``repro``: the relation, SOP and BLIF texts the
program emits are parsed and evaluated by this module alone, so a bug in
the program's own evaluators cannot hide a wrong answer.

Truth tables are Python ints used as bit vectors: bit ``v`` of a table
is the function's value on vector ``v``.
"""

import random
import re
import zlib

_LITERAL = re.compile(r"x(\d+)(')?")


def _variable_tables(num_vars):
    """Truth tables of ``x0 .. x{n-1}`` over all ``2**n`` vertices."""
    size = 1 << num_vars
    tables = []
    for var in range(num_vars):
        block = 1 << var
        pattern = ((1 << block) - 1) << block   # `block` zeros then ones
        period = 2 * block
        table = 0
        for offset in range(0, size, period):
            table |= pattern << offset
        tables.append(table)
    return tables


def parse_relation_pla(text):
    """``(num_inputs, num_outputs, allowed)`` from relation PLA text.

    ``allowed[v]`` is the set of output values permitted at input vertex
    ``v``.  Input column ``i`` is bit ``i`` of ``v``; output column
    ``j`` is bit ``j`` of an output value; ``-`` expands both ways.
    """
    num_inputs = num_outputs = None
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".i "):
            num_inputs = int(line.split()[1])
        elif line.startswith(".o "):
            num_outputs = int(line.split()[1])
        elif line.startswith(".e"):
            break
        elif not line.startswith("."):
            cube_in, cube_out = line.split()
            rows.append((cube_in, cube_out))
    if num_inputs is None or num_outputs is None:
        raise ValueError("relation text has no .i/.o header")
    allowed = [set() for _ in range(1 << num_inputs)]
    for cube_in, cube_out in rows:
        for vertex in _cube_points(cube_in):
            allowed[vertex].update(_cube_points(cube_out))
    return num_inputs, num_outputs, allowed


def _cube_points(cube):
    points = [0]
    for position, char in enumerate(cube):
        bit = 1 << position
        if char == "1":
            points = [p | bit for p in points]
        elif char == "-":
            points = points + [p | bit for p in points]
        elif char != "0":
            raise ValueError("bad cube character %r" % char)
    return points


def sop_tables(sop, num_inputs, num_outputs):
    """Truth table of each output of an ``f0 = x0'x1 + ...`` rendering."""
    variables = _variable_tables(num_inputs)
    full = (1 << (1 << num_inputs)) - 1
    tables = [None] * num_outputs
    for line in sop.splitlines():
        if not line.strip():
            continue
        name, _, body = line.partition("=")
        name = name.strip()
        if not name.startswith("f"):
            raise ValueError("unexpected SOP line %r" % line)
        position = int(name[1:])
        if position >= num_outputs:
            raise ValueError("SOP defines f%d of %d outputs"
                             % (position, num_outputs))
        table = 0
        for term in body.split("+"):
            term = term.strip()
            if term == "0":
                continue
            product = full
            if term != "1":
                literals = _LITERAL.findall(term)
                if "".join("x%s%s" % lit for lit in literals) != term:
                    raise ValueError("unparsable SOP term %r" % term)
                for var, negated in literals:
                    if int(var) >= num_inputs:
                        raise ValueError("SOP uses x%s of %d inputs"
                                         % (var, num_inputs))
                    value = variables[int(var)]
                    product &= (full ^ value) if negated else value
            table |= product
        tables[position] = table
    if any(table is None for table in tables):
        raise ValueError("SOP does not define every output")
    return tables


def sop_satisfies(sop, num_inputs, num_outputs, allowed):
    """True when the SOP picks a permitted output at every input vertex."""
    tables = sop_tables(sop, num_inputs, num_outputs)
    for vertex, permitted in enumerate(allowed):
        value = 0
        for position, table in enumerate(tables):
            if (table >> vertex) & 1:
                value |= 1 << position
        if value not in permitted:
            return False
    return True


def sop_literals(sop):
    """Literal count of an SOP rendering (constants count zero)."""
    return len(_LITERAL.findall(sop))


class Blif:
    """A combinational view of a BLIF netlist: latches cut open."""

    def __init__(self, text):
        self.inputs, self.outputs = [], []
        self.latches = {}           # latch output name -> next-state net
        self.nodes = {}             # net -> (fanins, cubes, onset)
        lines = []
        pending = ""
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].rstrip()
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            lines.append(pending + line)
            pending = ""
        current = None
        for line in lines:
            words = line.split()
            if not words:
                continue
            head = words[0]
            if head == ".names":
                current = (words[1:-1], [], words[-1])
                self.nodes[words[-1]] = current
            elif head == ".inputs":
                self.inputs.extend(words[1:])
            elif head == ".outputs":
                self.outputs.extend(words[1:])
            elif head == ".latch":
                self.latches[words[2]] = words[1]
            elif head in (".model", ".end"):
                current = None
            elif head.startswith("."):
                raise ValueError("unsupported BLIF directive %r" % head)
            elif current is None:
                raise ValueError("cover row outside .names: %r" % line)
            else:
                current[1].append(words)
        for net, (fanins, rows, _) in list(self.nodes.items()):
            onset = True
            cubes = []
            for row in rows:
                cube, value = (row[0], row[1]) if fanins else ("", row[0])
                if len(cube) != len(fanins) or value not in "01":
                    raise ValueError("bad cover row %r for %s" % (row, net))
                onset = value == "1"
                cubes.append(cube)
            self.nodes[net] = (fanins, cubes, onset)

    def leaves(self):
        """Combinational inputs: primary inputs, then latch outputs."""
        return self.inputs + sorted(self.latches)

    def evaluate(self, leaf_tables, full):
        """Root tables, given a table for every leaf (``full`` = ones).

        Raises ``KeyError`` for an undriven net and ``ValueError`` for a
        combinational cycle.
        """
        values = dict(leaf_tables)
        expanded = set()

        def value(root):
            stack = [(root, False)]
            while stack:
                net, ready = stack.pop()
                if net in values:
                    continue
                fanins, cubes, onset = self.nodes[net]
                if not ready:
                    if net in expanded:
                        raise ValueError("combinational cycle through %s"
                                         % net)
                    expanded.add(net)
                    stack.append((net, True))
                    stack.extend((f, False) for f in fanins)
                    continue
                table = 0
                for cube in cubes:
                    product = full
                    for fanin, char in zip(fanins, cube):
                        if char == "1":
                            product &= values[fanin]
                        elif char == "0":
                            product &= full ^ values[fanin]
                    table |= product
                values[net] = table if onset else full ^ table
            return values[root]

        out = {}
        for name in self.outputs:
            out["po:" + name] = value(name)
        for latch, net in self.latches.items():
            out["ns:" + latch] = value(net)
        return out


#: Circuits with at most this many combinational inputs are compared on
#: every input vector; wider ones on ``RANDOM_VECTORS`` seeded vectors.
EXHAUSTIVE_LIMIT = 14
RANDOM_VECTORS = 2048


def circuit_vectors(leaves, seed, name):
    """Leaf tables over the vectors an equivalence check uses."""
    if len(leaves) <= EXHAUSTIVE_LIMIT:
        count = 1 << len(leaves)
        tables = _variable_tables(len(leaves))
    else:
        count = RANDOM_VECTORS
        rng = random.Random(seed * 1000003 + zlib.crc32(name.encode()))
        tables = [rng.getrandbits(count) for _ in leaves]
    return dict(zip(leaves, tables)), (1 << count) - 1


def equivalent(reference, candidate_text, vectors):
    """True when the candidate BLIF matches the reference on ``vectors``.

    Both netlists must have the same primary inputs, outputs and latches;
    every primary output and every latch's next-state net must agree.
    """
    candidate = Blif(candidate_text)
    if (candidate.inputs != reference.inputs
            or candidate.outputs != reference.outputs
            or sorted(candidate.latches) != sorted(reference.latches)):
        return False
    leaf_tables, full = vectors
    return (candidate.evaluate(leaf_tables, full)
            == reference.evaluate(leaf_tables, full))
