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


def _arc_rows(arcs, n: int) -> np.ndarray:
    """The arcs as a read-only (A, 2) intp array of (tail, head) rows, each
    index in range(n); raises for the first malformed or out-of-range arc."""
    rows = arcs if isinstance(arcs, np.ndarray) else list(arcs)
    try:
        a = np.array(rows, dtype=np.intp)
    except (ValueError, OverflowError):
        a = None  # ragged rows, or an entry that is not a machine integer
    if a is not None and a.shape == (0,):
        a = np.empty((0, 2), dtype=np.intp)
    if a is None or a.ndim != 2 or a.shape[1] != 2:
        for row in rows:
            tail, head = map(int, row)  # Python's own error for the first bad row
        raise VoltliftError(f"arcs must be (tail, head) integer rows in vertex range 0..{n-1}")
    bad = np.flatnonzero(((a < 0) | (a >= n)).any(axis=1))
    if bad.size:
        tail, head = a[bad[0]].tolist()
        raise VoltliftError(f"arc ({tail},{head}) out of vertex range 0..{n-1}")
    a.flags.writeable = False
    return a


class Digraph:
    """Ordered vertices with a multiset of arcs (tail index, head index).

    The arcs are held as one read-only (A, 2) integer array."""

    def __init__(self, labels: Sequence, arcs: Sequence[tuple[int, int]] | np.ndarray):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise VoltliftError("vertex labels must be unique")
        self._arcs = _arc_rows(arcs, len(labels))
        self.labels = labels
        self.label_index = {label: i for i, label in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def arc_count(self) -> int:
        return len(self._arcs)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The arcs as (tail, head) tuples, built from the array on each call."""
        return tuple(map(tuple, self._arcs.tolist()))

    def out_degrees(self) -> list[int]:
        return np.bincount(self._arcs[:, 0], minlength=self.n).tolist()

    def arc_array(self) -> np.ndarray:
        """The arcs as the stored read-only (arc_count, 2) array of (tail, head) rows."""
        return self._arcs

    def adjacency_matrix(self) -> np.ndarray:
        n = self.n
        tails, heads = self._arcs.T
        # float weights make bincount count straight into a float array (sums
        # of ones stay exact); with no arcs it returns integer zeros
        counts = np.bincount(tails * n + heads, weights=np.ones(len(tails)), minlength=n * n)
        return counts.reshape(n, n).astype(float, copy=False)

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
            "arcs": self._arcs.tolist(),
            "undirected": False,
        }

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        for label in self.labels:
            lines.append(f'  "{_label_str(label)}";')
        for tail, head in self._arcs.tolist():
            lines.append(
                f'  "{_label_str(self.labels[tail])}" -> "{_label_str(self.labels[head])}";'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Digraph({self.n} vertices, {self.arc_count} arcs)"


class Graph:
    """A digraph whose arcs pair into digons; the pairing is involutive.

    The pairing is held as a read-only integer array: arc i pairs with arc
    pairing[i]."""

    def __init__(self, digraph: Digraph, pairing: Sequence[int] | np.ndarray):
        pairing = np.array(pairing, dtype=np.intp)
        arcs = digraph.arc_array()
        count = len(arcs)
        if pairing.shape != (count,):
            raise InvalidPairing("pairing length differs from arc count")
        own = np.arange(count)
        # an out-of-range partner is replaced by the arc itself, which is unmatched
        partner = np.where((pairing >= 0) & (pairing < count), pairing, own)
        unmatched = (partner == own) | (pairing[partner] != own)
        unreversed = (arcs[partner] != arcs[:, ::-1]).any(axis=1) & ~unmatched
        bad = np.flatnonzero(unmatched | unreversed)
        if bad.size:
            i = int(bad[0])
            if unmatched[i]:
                raise InvalidPairing(f"pairing is not an involutive perfect matching at arc {i}")
            raise InvalidPairing(f"arcs {i} and {pairing[i]} are not mutually reversed")
        pairing.flags.writeable = False
        self.digraph = digraph
        self._pairing = pairing

    @classmethod
    def from_edges(cls, labels: Sequence,
                   edges: Sequence[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build from an edge multiset; edge e becomes the digon of arcs 2e
        (its stored direction) and 2e + 1 (the reverse)."""
        edges = np.asarray(edges, dtype=np.intp)
        # Digraph checks the rows; a bad edge is first seen as its arc 2e
        arcs = np.stack([edges, edges[..., ::-1]], axis=1).reshape(-1, *edges.shape[1:])
        return cls(Digraph(labels, arcs), np.arange(len(arcs)) ^ 1)

    @property
    def labels(self):
        return self.digraph.labels

    @property
    def label_index(self):
        return self.digraph.label_index

    @property
    def n(self) -> int:
        return self.digraph.n

    @property
    def pairing(self) -> tuple[int, ...]:
        """The pairing as a tuple, built from the array on each call."""
        return tuple(self._pairing.tolist())

    def edge_array(self) -> np.ndarray:
        """One (tail, head) row per digon pair, in first-arc order."""
        arcs = self.digraph.arc_array()
        return arcs[self._pairing > np.arange(len(arcs))]

    def edges(self) -> list[tuple[int, int]]:
        """One (tail, head) per digon pair, in first-arc order."""
        return list(map(tuple, self.edge_array().tolist()))

    @property
    def edge_count(self) -> int:
        return self.digraph.arc_count // 2

    def degrees(self) -> list[int]:
        return self.digraph.out_degrees()

    def has_loops(self) -> bool:
        arcs = self.digraph.arc_array()
        return bool((arcs[:, 0] == arcs[:, 1]).any())

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


def match_digon_pairing(arcs: Sequence[tuple[int, int]], voltages=None) -> list[int]:
    """Match arcs into digons; raises InvalidPairing if impossible.

    With voltages (one group element per arc), an arc only pairs with a
    reversed arc that carries the inverse voltage.
    """
    if voltages is None:
        keys = list(arcs)
    else:
        keys = [(tail, head, w.key) for (tail, head), w in zip(arcs, voltages)]
    buckets: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    pairing = [-1] * len(arcs)
    for i, (tail, head) in enumerate(arcs):
        if pairing[i] != -1:
            continue
        want = (head, tail) if voltages is None else (head, tail, voltages[i].inverse().key)
        j = next((k for k in buckets.get(want, []) if pairing[k] == -1 and k != i), None)
        if j is None:
            raise InvalidPairing(f"arc {i} {keys[i]} has no unmatched reverse"
                                 + ("" if voltages is None else " with inverse voltage"))
        pairing[i], pairing[j] = j, i
    return pairing


_JSON_KINDS = {list: "list", dict: "object", int: "integer"}


def _json_field(data, name: str, kinds: tuple, what: str):
    """data[name], where data must be a JSON object and the field one of the
    given JSON kinds; a VoltliftError naming the field otherwise."""
    if not isinstance(data, dict):
        raise VoltliftError(f"{what} must be an object, got {type(data).__name__}")
    if name not in data:
        raise VoltliftError(f"{what} has no '{name}' field")
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
        raise VoltliftError(f"{what} field '{name}' is a {type(value).__name__}, "
                            f"expected {expected}")
    return value


def _json_indices(values, where: str) -> list:
    """values, if every one is a JSON integer; a VoltliftError otherwise."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise VoltliftError(f"{where} has a non-integer index {value!r}")
    return values


def graph_from_json(data: dict) -> Graph | Digraph:
    what = "graph JSON"
    labels = tuple(_label_from_json(label)
                   for label in _json_field(data, "vertices", (list,), what))
    arcs = _json_field(data, "arcs", (list,), what)
    for i, row in enumerate(arcs):
        if not isinstance(row, list) or len(row) != 2:
            raise VoltliftError(f"{what} arcs[{i}] must be [tail, head], got {row!r}")
        _json_indices(row, f"{what} arcs[{i}]")
    digraph = Digraph(labels, arcs)
    if data.get("undirected"):
        return Graph(digraph, match_digon_pairing(digraph.arcs))
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


def _validate_connection_set(group, gens, directed: bool) -> list:
    """The connection set as group elements: non-empty, no repeats, no
    identity, and closed under inverses unless directed."""
    gens = [group.element(s) for s in gens]
    if not gens:
        raise VoltliftError("connection set must be non-empty")
    if len(set(gens)) != len(gens):
        raise VoltliftError("connection set has repeated generators")
    if any(s.is_identity for s in gens):
        raise IdentityInS("connection set must not contain the identity")
    if not directed and {s.inverse() for s in gens} != set(gens):
        raise NotInverseClosed("undirected construction needs S closed under inverses")
    return gens


def cayley_graph(group, gens, directed: bool = False) -> Graph | Digraph:
    """Cayley graph of `group` with connection set `gens` (arc g -> g*s).

    Vertices follow the group's canonical enumeration; labels are element
    keys.  Arc g*|S| + j is g -> g*s_j.  The undirected variant requires an
    inverse-closed connection set.
    """
    gens = _validate_connection_set(group, gens, directed)
    labels = [el.key for el in group.elements()]
    heads = group.right_columns([s.index for s in gens])
    tails = np.repeat(np.arange(group.size), len(gens))
    digraph = Digraph(labels, np.stack([tails, heads.ravel()], axis=1))
    if directed:
        return digraph
    return Graph(digraph, match_digon_pairing(digraph.arcs))


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
