"""Digraphs and graphs with multi-arcs, plus the standard constructors.

A :class:`Digraph` is an ordered vertex list with a multiset of arcs.  A
:class:`Graph` is a :class:`Digraph` whose arcs are matched into digons
(opposite arc pairs); a loop is stored as two parallel self-arcs paired with
each other, or as one self-arc paired with itself, a semi-edge.  Everything
that reads arcs takes either.
Vertex order is fixed at construction and determines matrix row order.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
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
    """Finite real coefficients of U = c1*A + c2*D + c3*I + c4*J with c1 != 0."""

    c1: float
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0

    def __post_init__(self):
        # the character route pairs conjugate characters, which needs real U
        if not all(isinstance(c, numbers.Real) for c in (self.c1, self.c2, self.c3, self.c4)):
            raise VoltliftError("universal matrix coefficients must be real")
        if not all(map(math.isfinite, (self.c1, self.c2, self.c3, self.c4))):
            raise VoltliftError("universal matrix coefficients must be finite")
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


def _integer(value, what: str) -> int:
    """value as an int (anything with __index__ but bool), else a VoltliftError
    naming it as `what`: floats, strings and booleans are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        shown = value.item() if isinstance(value, np.generic) else value
        raise VoltliftError(f"{what} {shown!r} is not an integer") from None


def _integers(values, what: str) -> np.ndarray:
    """values as a new intp array of the same shape.  An intp ndarray, as the
    builders pass, gets only a dtype test; anything else has each entry
    checked by _integer, so floats and strings are refused, not truncated.
    An entry beyond intp raises OverflowError."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.intp):
        values = np.array(values, dtype=object)
        for value in values.flat:
            _integer(value, what)
    return values.astype(np.intp)


def _arc_rows(arcs, n: int) -> np.ndarray:
    """The arcs as a read-only (A, 2) intp array of (tail, head) rows, each
    index in range(n); raises for the first malformed, non-integer or
    out-of-range arc."""
    rows = arcs if isinstance(arcs, np.ndarray) else np.array(list(arcs), dtype=object)
    if rows.shape == (0,):
        rows = np.empty((0, 2), dtype=np.intp)
    try:
        a = _integers(rows, "arc entry") if rows.ndim == 2 and rows.shape[1] == 2 else None
    except OverflowError:
        a = None  # an entry beyond intp
    if a is None:
        for row in rows:
            tail, head = row  # Python's own error for the first bad row
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
        return _dot(name, self.labels, self._arcs)

    def __repr__(self) -> str:
        return f"Digraph({self.n} vertices, {self.arc_count} arcs)"


class Graph(Digraph):
    """A digraph whose arcs pair into digons; the pairing is involutive.

    It shares the labels, label index and arc array of the digraph it is
    built from, and holds the pairing as a read-only integer array: arc i
    pairs with arc pairing[i].  A loop arc may pair with itself: a semi-edge,
    counted once as an edge."""

    def __init__(self, digraph: Digraph, pairing: Sequence[int] | np.ndarray):
        pairing = _integers(pairing, "pairing entry")
        arcs = digraph.arc_array()
        count = len(arcs)
        if pairing.shape != (count,):
            raise InvalidPairing("pairing length differs from arc count")
        own = np.arange(count)
        semi = pairing == own
        # an out-of-range partner is replaced by the arc itself, which is unmatched
        partner = np.where((pairing >= 0) & (pairing < count), pairing, own)
        unmatched = (pairing[partner] != own) | (semi & (arcs[:, 0] != arcs[:, 1]))
        unreversed = (arcs[partner] != arcs[:, ::-1]).any(axis=1) & ~unmatched
        bad = np.flatnonzero(unmatched | unreversed)
        if bad.size:
            i = int(bad[0])
            if unmatched[i]:
                raise InvalidPairing(f"pairing is not an involutive perfect matching at arc {i}"
                                     + (": only a loop pairs with itself" if semi[i] else ""))
            raise InvalidPairing(f"arcs {i} and {pairing[i]} are not mutually reversed")
        pairing.flags.writeable = False
        self.labels, self.label_index, self._arcs = digraph.labels, digraph.label_index, arcs
        self._pairing = pairing

    @classmethod
    def from_edges(cls, labels: Sequence,
                   edges: Sequence[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build from an edge multiset; edge e becomes the digon of arcs 2e
        (its stored direction) and 2e + 1 (the reverse)."""
        edges = _integers(edges, "edge entry")
        # Digraph checks the rows; a bad edge is first seen as its arc 2e
        arcs = np.stack([edges, edges[..., ::-1]], axis=1).reshape(-1, *edges.shape[1:])
        return cls(Digraph(labels, arcs), np.arange(len(arcs)) ^ 1)

    @property
    def pairing(self) -> tuple[int, ...]:
        """The pairing as a tuple, built from the array on each call."""
        return tuple(self._pairing.tolist())

    def edge_array(self) -> np.ndarray:
        """One (tail, head) row per digon pair or semi-edge, in first-arc order."""
        return self._arcs[self._pairing >= np.arange(self.arc_count)]

    def edges(self) -> list[tuple[int, int]]:
        """One (tail, head) per digon pair or semi-edge, in first-arc order."""
        return list(map(tuple, self.edge_array().tolist()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._pairing >= np.arange(self.arc_count)))

    def degrees(self) -> list[int]:
        return self.out_degrees()

    def has_loops(self) -> bool:
        return bool((self._arcs[:, 0] == self._arcs[:, 1]).any())

    def to_json(self) -> dict:
        data = super().to_json()
        data["undirected"] = True
        return data

    def to_dot(self, name: str = "G") -> str:
        return _dot(name, self.labels, self.edge_array(), undirected=True)

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {self.edge_count} edges)"


def match_digon_pairing(arcs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Match arcs into digons: an intp array whose entry i is the partner of
    arc i, which Graph takes on its dtype alone; raises InvalidPairing if
    impossible.

    The k-th arc of a key (tail, head), in index order, pairs with the k-th
    arc of the reverse key, and a loop key pairs consecutive arcs: the greedy
    first-fit match in arc order, found with one sort of the keys packed into
    integers.  On failure the lowest-index arc left over is named.
    """
    a = _integers(arcs, "arc entry").reshape(-1, 2)
    if not len(a):
        return np.empty(0, dtype=np.intp)
    # the entries renumbered 0..n-1 pack each (tail, head) below n^2 in int64
    values, dense = np.unique(a, return_inverse=True)
    n, dense = len(values), dense.reshape(a.shape)
    key, reverse = dense @ [n, 1], dense @ [1, n]
    # the arcs by key, in index order within a key, and each one's rank there
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    rank = np.empty(len(a), dtype=np.intp)
    rank[order] = np.arange(len(a)) - np.searchsorted(ordered, ordered)
    first, end = np.searchsorted(ordered, reverse), np.searchsorted(ordered, reverse, "right")
    want = np.where(key == reverse, rank ^ 1, rank)
    left = np.flatnonzero(want >= end - first)
    if left.size:
        i = int(left[0])
        raise InvalidPairing(f"arc {i} {tuple(a[i].tolist())} has no unmatched reverse")
    return order[first + want]


_JSON_KINDS = {list: "list", dict: "object", int: "integer", bool: "boolean"}


def _json_field(data, name: str, kinds: tuple, what: str):
    """data[name], where data must be a JSON object and the field one of the
    given JSON kinds; a VoltliftError naming the field otherwise."""
    if not isinstance(data, dict):
        raise VoltliftError(f"{what} must be an object, got {type(data).__name__}")
    if name not in data:
        raise VoltliftError(f"{what} has no '{name}' field")
    value = data[name]
    if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
        expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
        raise VoltliftError(f"{what} field '{name}' is a {type(value).__name__}, "
                            f"expected {expected}")
    return value


def _json_indices(values, where: str) -> list:
    """values, if every one is a JSON integer; a VoltliftError otherwise."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise VoltliftError(f"{where} has a non-integer entry {value!r}")
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
    if "undirected" in data and _json_field(data, "undirected", (bool,), what):
        return Graph(digraph, match_digon_pairing(digraph.arc_array()))
    return digraph


def adjacency_csv(graph: Digraph) -> str:
    """Row-major adjacency matrix as integer CSV."""
    a = graph.adjacency_matrix()
    lines = [",".join(str(int(x)) for x in row) for row in a]
    return "\n".join(lines) + "\n"


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _label_from_json(label):
    """A JSON label as a vertex label: lists become tuples, nested; integers
    and strings stay; anything else raises a VoltliftError."""
    if isinstance(label, list):
        return tuple(_label_from_json(x) for x in label)
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise VoltliftError(f"vertex label {label!r} is not an integer, a string "
                            "or a list of those")
    return label


def _label_str(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(_label_str(x) for x in label) + ")"
    return str(label)


def _dot(name: str, labels, rows: np.ndarray, undirected: bool = False,
         arc_labels=None) -> str:
    """DOT text: one line per vertex, then one per (tail, head) row, joined
    by -- when undirected and by -> otherwise; ``arc_labels``, when given,
    labels the rows in order."""
    names = [f'"{_label_str(label)}"' for label in labels]
    link = "--" if undirected else "->"
    lines = [f"{'graph' if undirected else 'digraph'} {name} {{"]
    lines += [f"  {vertex};" for vertex in names]
    for i, (tail, head) in enumerate(rows.tolist()):
        suffix = "" if arc_labels is None else f' [label="{arc_labels[i]}"]'
        lines.append(f"  {names[tail]} {link} {names[head]}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cycle_arcs(n: int) -> np.ndarray:
    """Rows (i, i + 1 mod n) for i in range(n)."""
    i = np.arange(n)
    return np.stack([i, (i + 1) % n], axis=1)


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1, edges in lexicographic order."""
    n = _integer(n, "vertex count")
    if n < 1:
        raise VoltliftError("complete_graph needs n >= 1")
    return Graph.from_edges(range(n), np.stack(np.triu_indices(n, 1), axis=1))


def cycle_graph(n: int) -> Graph:
    """Undirected cycle C_n, n >= 3."""
    n = _integer(n, "vertex count")
    if n < 3:
        raise VoltliftError("cycle_graph needs n >= 3")
    return Graph.from_edges(range(n), _cycle_arcs(n))


def directed_cycle(n: int) -> Digraph:
    """Directed cycle with arcs i -> i+1 (mod n)."""
    n = _integer(n, "vertex count")
    if n < 1:
        raise VoltliftError("directed_cycle needs n >= 1")
    return Digraph(range(n), _cycle_arcs(n))


def _validate_connection_set(group, gens, directed: bool) -> np.ndarray:
    """The connection set as an intp array of element indices: non-empty, no
    repeats, no identity, and closed under inverses unless directed."""
    idx = group.indices(gens)
    if not idx.size:
        raise VoltliftError("connection set must be non-empty")
    ordered = np.sort(idx)
    # repeats by sort and diff; a plain np.unique imports numpy.ma
    if (np.diff(ordered) == 0).any():
        raise VoltliftError("connection set has repeated generators")
    if (idx == group._identity_index).any():
        raise IdentityInS("connection set must not contain the identity")
    # without repeats, S is inverse-closed when its inverses sort to S
    if not directed and not np.array_equal(np.sort(group.inverse_indices()[idx]), ordered):
        raise NotInverseClosed("undirected construction needs S closed under inverses")
    return idx


def cayley_graph(group, gens, directed: bool = False) -> Graph | Digraph:
    """Cayley graph of `group` with connection set `gens` (arc g -> g*s).

    Vertices follow the group's canonical enumeration; labels are element
    keys.  Arc g*|S| + j is g -> g*s_j.  The undirected variant requires an
    inverse-closed connection set.
    """
    gens = _validate_connection_set(group, gens, directed)
    labels = group.keys(np.arange(group.size))
    tails = np.repeat(np.arange(group.size), len(gens))
    digraph = Digraph(labels, np.stack([tails, group.right_columns(gens).ravel()], axis=1))
    if directed:
        return digraph
    return Graph(digraph, match_digon_pairing(digraph.arc_array()))


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
    # pair every edge end with the later ends at the same vertex; sorted
    # stably by vertex, ends 2e and 2e + 1 list each vertex's edges in order
    count = len(edge_ends)
    ends = graph.edge_array().ravel()
    order = np.argsort(ends, kind="stable")
    vertex = ends[order]
    later = np.searchsorted(vertex, vertex, side="right") - np.arange(len(vertex)) - 1
    first = np.repeat(np.arange(len(vertex)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    keys = order[first] // 2 * count + order[second] // 2
    # parallel edges meet at both ends, so they are seen twice: not adjacent
    keys, seen = np.unique(keys, return_counts=True)
    return Graph.from_edges(labels, np.stack(np.divmod(keys[seen == 1], count), axis=1))
