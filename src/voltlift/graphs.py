"""Digraphs and graphs with multi-arcs, plus the standard constructors.

A :class:`Digraph` is an ordered vertex list with a multiset of arcs.  A
:class:`Graph` is a digraph whose arcs are matched into digons (opposite arc
pairs); loops are stored as two parallel self-arcs paired with each other.
Vertex order is fixed at construction and determines matrix row order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    IdentityInS,
    InvalidPairing,
    LoopsUnsupported,
    NotInverseClosed,
    VoltliftError,
)


@dataclass(frozen=True)
class UniversalCoefficients:
    """Coefficients of U = c1*A + c2*D + c3*I + c4*J with c1 != 0."""

    c1: float
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0

    def __post_init__(self):
        if self.c1 == 0:
            raise VoltliftError("universal matrix requires c1 != 0")

    @classmethod
    def adjacency(cls) -> "UniversalCoefficients":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def laplacian(cls) -> "UniversalCoefficients":
        return cls(-1.0, 1.0, 0.0, 0.0)

    @classmethod
    def signless_laplacian(cls) -> "UniversalCoefficients":
        return cls(1.0, 1.0, 0.0, 0.0)

    @classmethod
    def seidel(cls) -> "UniversalCoefficients":
        return cls(-2.0, 0.0, -1.0, 1.0)


class Digraph:
    """Ordered vertices with a multiset of arcs (tail index, head index)."""

    def __init__(self, labels: Sequence, arcs: Sequence[tuple[int, int]]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise VoltliftError("vertex labels must be unique")
        n = len(labels)
        checked = []
        for tail, head in arcs:
            tail, head = int(tail), int(head)
            if not (0 <= tail < n and 0 <= head < n):
                raise VoltliftError(f"arc ({tail},{head}) out of vertex range 0..{n-1}")
            checked.append((tail, head))
        self.labels = labels
        self.arcs = tuple(checked)
        self.label_index = {label: i for i, label in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def out_degrees(self) -> list[int]:
        degs = [0] * self.n
        for tail, _ in self.arcs:
            degs[tail] += 1
        return degs

    def in_degrees(self) -> list[int]:
        degs = [0] * self.n
        for _, head in self.arcs:
            degs[head] += 1
        return degs

    def arc_counter(self) -> Counter:
        return Counter(self.arcs)

    def arc_array(self) -> np.ndarray:
        """The arcs as an (arc_count, 2) integer array of (tail, head) rows."""
        return np.array(self.arcs, dtype=np.intp).reshape(-1, 2)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        arcs = self.arc_array()
        np.add.at(a, (arcs[:, 0], arcs[:, 1]), 1.0)
        return a

    def universal_matrix(self, coeffs: UniversalCoefficients) -> np.ndarray:
        """c1*A + c2*D + c3*I + c4*J, with D the out-degree diagonal.

        Built in place in the adjacency array; every entry is rounded in the
        order of the sum as written, so the result equals it exactly.
        """
        u = self.adjacency_matrix()
        diagonal = coeffs.c1 * u.diagonal() + coeffs.c2 * u.sum(axis=1) + coeffs.c3 + coeffs.c4
        u *= coeffs.c1
        u += coeffs.c4
        np.fill_diagonal(u, diagonal)
        return u

    def to_json(self) -> dict:
        return {
            "vertices": [_label_to_json(label) for label in self.labels],
            "arcs": [[tail, head] for tail, head in self.arcs],
            "undirected": False,
        }

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        for label in self.labels:
            lines.append(f'  "{_label_str(label)}";')
        for tail, head in self.arcs:
            lines.append(
                f'  "{_label_str(self.labels[tail])}" -> "{_label_str(self.labels[head])}";'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Digraph({self.n} vertices, {self.arc_count} arcs)"


class Graph:
    """A digraph whose arcs pair into digons; the pairing is involutive."""

    def __init__(self, digraph: Digraph, pairing: Sequence[int]):
        pairing = tuple(int(p) for p in pairing)
        arcs = digraph.arcs
        if len(pairing) != len(arcs):
            raise InvalidPairing("pairing length differs from arc count")
        for i, j in enumerate(pairing):
            if not 0 <= j < len(arcs) or pairing[j] != i or j == i:
                raise InvalidPairing(f"pairing is not an involutive perfect matching at arc {i}")
            if arcs[j] != (arcs[i][1], arcs[i][0]):
                raise InvalidPairing(f"arcs {i} and {j} are not mutually reversed")
        self.digraph = digraph
        self.pairing = pairing

    @classmethod
    def from_edges(cls, labels: Sequence, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Build from an edge multiset; every edge becomes a digon pair."""
        arcs = []
        pairing = []
        for u, v in edges:
            i = len(arcs)
            arcs.append((u, v))
            arcs.append((v, u))
            pairing.extend([i + 1, i])
        return cls(Digraph(labels, arcs), pairing)

    @property
    def labels(self):
        return self.digraph.labels

    @property
    def label_index(self):
        return self.digraph.label_index

    @property
    def n(self) -> int:
        return self.digraph.n

    def edges(self) -> list[tuple[int, int]]:
        """One (tail, head) per digon pair, in first-arc order."""
        return [
            self.digraph.arcs[i]
            for i, j in enumerate(self.pairing)
            if i < j
        ]

    @property
    def edge_count(self) -> int:
        return len(self.digraph.arcs) // 2

    def degrees(self) -> list[int]:
        return self.digraph.out_degrees()

    def has_loops(self) -> bool:
        return any(tail == head for tail, head in self.digraph.arcs)

    def adjacency_matrix(self) -> np.ndarray:
        return self.digraph.adjacency_matrix()

    def universal_matrix(self, coeffs: UniversalCoefficients) -> np.ndarray:
        return self.digraph.universal_matrix(coeffs)

    def to_json(self) -> dict:
        data = self.digraph.to_json()
        data["undirected"] = True
        return data

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for label in self.labels:
            lines.append(f'  "{_label_str(label)}";')
        for tail, head in self.edges():
            lines.append(
                f'  "{_label_str(self.labels[tail])}" -- "{_label_str(self.labels[head])}";'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {self.edge_count} edges)"


def match_digon_pairing(arcs: Sequence[tuple[int, int]]) -> list[int]:
    """Match arcs into digons; raises InvalidPairing if impossible."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, arc in enumerate(arcs):
        buckets.setdefault(arc, []).append(i)
    pairing = [-1] * len(arcs)
    for i, (tail, head) in enumerate(arcs):
        if pairing[i] != -1:
            continue
        rev = buckets.get((head, tail), [])
        j = next((k for k in rev if pairing[k] == -1 and k != i), None)
        if j is None:
            raise InvalidPairing(f"arc {i} ({tail}->{head}) has no unmatched reverse")
        pairing[i], pairing[j] = j, i
    return pairing


def graph_from_json(data: dict) -> Graph | Digraph:
    labels = tuple(_label_from_json(label) for label in data["vertices"])
    arcs = [(int(t), int(h)) for t, h in data["arcs"]]
    digraph = Digraph(labels, arcs)
    if data.get("undirected"):
        return Graph(digraph, match_digon_pairing(arcs))
    return digraph


def load_graph(path) -> Graph | Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def adjacency_csv(graph: Graph | Digraph) -> str:
    """Row-major adjacency matrix as integer CSV."""
    a = graph.adjacency_matrix()
    lines = [",".join(str(int(x)) for x in row) for row in a]
    return "\n".join(lines) + "\n"


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(_label_from_json(x) for x in label)
    return label


def _label_str(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(_label_str(x) for x in label) + ")"
    return str(label)


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1, edges in lexicographic order."""
    if n < 1:
        raise VoltliftError("complete_graph needs n >= 1")
    return Graph.from_edges(range(n), list(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    """Undirected cycle C_n, n >= 3."""
    if n < 3:
        raise VoltliftError("cycle_graph needs n >= 3")
    return Graph.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def directed_cycle(n: int) -> Digraph:
    """Directed cycle with arcs i -> i+1 (mod n)."""
    if n < 1:
        raise VoltliftError("directed_cycle needs n >= 1")
    return Digraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def cayley_graph(group, gens, directed: bool = False) -> Graph | Digraph:
    """Cayley graph of `group` with connection set `gens` (arc g -> g*s).

    Vertices follow the group's canonical enumeration; labels are element
    keys.  The undirected variant requires an inverse-closed connection set.
    """
    gens = [group.element(s) for s in gens]
    if not gens:
        raise VoltliftError("connection set must be non-empty")
    if len(set(gens)) != len(gens):
        raise VoltliftError("connection set has repeated generators")
    if any(s.is_identity for s in gens):
        raise IdentityInS("connection set must not contain the identity")
    if not directed:
        gen_set = set(gens)
        if {s.inverse() for s in gens} != gen_set:
            raise NotInverseClosed("undirected Cayley graph needs S closed under inverses")
    els = group.elements()
    labels = [el.key for el in els]
    arcs = []
    for i, g in enumerate(els):
        for s in gens:
            arcs.append((i, group.index_of(g * s)))
    digraph = Digraph(labels, arcs)
    if directed:
        return digraph
    return Graph(digraph, match_digon_pairing(arcs))


def line_graph(graph: Graph) -> Graph:
    """Line graph: a vertex per edge, adjacency iff exactly one shared endpoint."""
    if graph.has_loops():
        raise LoopsUnsupported("line graphs of loopy graphs are undefined here")
    edge_ends = [tuple(sorted(e)) for e in graph.edges()]
    labels = list(edge_ends)
    seen = Counter(edge_ends)
    if any(c > 1 for c in seen.values()):
        # parallel edges need distinct labels
        counts: Counter = Counter()
        labels = []
        for ends in edge_ends:
            labels.append(ends + (counts[ends],) if seen[ends] > 1 else ends)
            counts[ends] += 1
    new_edges = []
    for i, j in combinations(range(len(edge_ends)), 2):
        if len(set(edge_ends[i]) & set(edge_ends[j])) == 1:
            new_edges.append((i, j))
    return Graph.from_edges(labels, new_edges)
