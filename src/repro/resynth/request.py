"""Declarative description of one resynthesis run.

Mirrors the :class:`repro.api.SolveRequest` idiom: a frozen dataclass
with eager validation, JSON round-trip, and a canonical options key the
service layer folds into its cache fingerprint.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..api.registry import cost_registry, minimizer_registry
from ..api.request import SolveRequest
from ..benchdata.circuits import circuit_by_name
from ..core.jobs import check_executor
from ..network.blif import parse_blif
from ..network.netlist import LogicNetwork
from .window import CUT_POLICIES, MAX_WINDOW_LEAVES

VERIFY_MODES = ("auto", "exhaustive", "signature", "none")


def normalize_circuit_spec(spec: Any) -> Dict[str, Any]:
    """Canonicalise the circuit source into a tagged dict.

    Accepted shorthands: a bare string is a bundled benchdata circuit
    name; tagged dicts are ``{"kind": "bench", "name": ...}``,
    ``{"kind": "blif", "text": ...}`` and ``{"kind": "file",
    "path": ...}``.
    """
    if isinstance(spec, str):
        return {"kind": "bench", "name": spec}
    if isinstance(spec, Mapping):
        kind = spec.get("kind")
        if kind == "bench":
            if not isinstance(spec.get("name"), str):
                raise ValueError("bench circuit spec needs a 'name'")
            return {"kind": "bench", "name": spec["name"]}
        if kind == "blif":
            if not isinstance(spec.get("text"), str):
                raise ValueError("blif circuit spec needs 'text'")
            return {"kind": "blif", "text": spec["text"]}
        if kind == "file":
            if not isinstance(spec.get("path"), str):
                raise ValueError("file circuit spec needs a 'path'")
            return {"kind": "file", "path": spec["path"]}
        raise ValueError("unknown circuit spec kind %r" % kind)
    raise ValueError("circuit spec must be a name or a tagged dict, "
                     "got %r" % type(spec).__name__)


def load_circuit(spec: Any) -> LogicNetwork:
    """Materialise the circuit named by a (normalised) spec."""
    spec = normalize_circuit_spec(spec)
    if spec["kind"] == "bench":
        return circuit_by_name(spec["name"]).build()
    if spec["kind"] == "blif":
        return parse_blif(spec["text"])
    with open(spec["path"], "r", encoding="utf-8") as handle:
        return parse_blif(handle.read())


@dataclass(frozen=True)
class ResynthRequest:
    """One end-to-end resynthesis run, described declaratively."""

    circuit: Any = None
    #: Optimisation passes over the network; the pipeline stops early
    #: when a pass accepts no rewrite.
    passes: int = 2
    #: Maximum window boundary inputs (= relation inputs) per cut.
    window: int = 8
    #: Transitive-fanout levels included in each window (backed off
    #: per cut until the boundary fits ``window``).
    tfo_depth: int = 1
    #: Cut enumeration policy (:data:`repro.resynth.window.CUT_POLICIES`).
    cut_policy: str = "nodes"
    #: Cap on candidate cuts per pass; ``None`` = all of them.
    max_nodes: Optional[int] = None
    # -- solver knobs, passed through to each SolveRequest -------------
    cost: str = "literals"
    minimizer: str = "isop"
    strategy: str = "bfs"
    max_explored: Optional[int] = 10
    memo: Optional[bool] = None
    decompose: Optional[bool] = None
    # -- batch execution -----------------------------------------------
    executor: str = "serial"
    workers: Optional[int] = None
    # -- verification ---------------------------------------------------
    #: ``auto`` = exhaustive when the frame has at most
    #: ``verify_exhaustive_limit`` leaves, random-vector signature
    #: otherwise; ``none`` skips the final whole-network check (the
    #: per-rewrite window checks always run).
    verify: str = "auto"
    verify_exhaustive_limit: int = 12
    verify_vectors: int = 256
    #: Seed for the signature vectors (and any other tie-breaking).
    seed: int = 0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.circuit is not None:
            object.__setattr__(self, "circuit",
                               normalize_circuit_spec(self.circuit))
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if not 1 <= self.window <= MAX_WINDOW_LEAVES:
            raise ValueError("window must be in 1..%d"
                             % MAX_WINDOW_LEAVES)
        if self.tfo_depth < 0:
            raise ValueError("tfo_depth must be >= 0")
        if self.cut_policy not in CUT_POLICIES:
            raise ValueError("unknown cut policy %r" % self.cut_policy)
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        check_executor(self.executor)
        if self.verify not in VERIFY_MODES:
            raise ValueError("verify must be one of %s"
                             % ", ".join(VERIFY_MODES))
        if not 0 <= self.verify_exhaustive_limit <= 16:
            raise ValueError("verify_exhaustive_limit must be in 0..16")
        if self.verify_vectors < 1:
            raise ValueError("verify_vectors must be >= 1")
        if self.cost not in cost_registry:
            cost_registry.get(self.cost)  # raises with the valid names
        if self.minimizer not in minimizer_registry:
            minimizer_registry.get(self.minimizer)
        # Validate the solver knobs eagerly via a throwaway request.
        self.solver_request({"kind": "pla", "text": ".i 1\n.o 1\n"
                                                   "0 0\n1 1\n.e\n"})

    # -- conversion ----------------------------------------------------
    def solver_request(self, relation_spec: Any,
                       label: Optional[str] = None) -> SolveRequest:
        """The per-cut :class:`SolveRequest` for one mined relation."""
        return SolveRequest(
            relation=relation_spec,
            cost=self.cost,
            minimizer=self.minimizer,
            strategy=self.strategy,
            max_explored=self.max_explored,
            memo=self.memo,
            decompose=self.decompose,
            label=label)

    def options_key(self) -> Tuple[Any, ...]:
        """Canonical tuple of every result-affecting knob.

        The service folds this into the cache fingerprint, so — like
        ``Session._options_key`` — every field that can change the
        rewritten network or the report MUST appear here.  The schema
        guard test enumerates the dataclass fields against this tuple.
        """
        return (
            "resynth-v1",
            self.passes,
            self.window,
            self.tfo_depth,
            self.cut_policy,
            self.max_nodes,
            self.cost,
            self.minimizer,
            self.strategy,
            self.max_explored,
            self.memo,
            self.decompose,
            self.verify,
            self.verify_exhaustive_limit,
            self.verify_vectors,
            self.seed,
        )

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResynthRequest":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError("unknown ResynthRequest fields: %s"
                             % ", ".join(sorted(unknown)))
        return cls(**dict(data))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResynthRequest":
        return cls.from_dict(json.loads(text))
