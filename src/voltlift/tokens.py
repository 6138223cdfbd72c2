"""k-token graphs and k-token digraphs.

Vertices are the sorted k-subsets of the host's vertex indices, in
lexicographic order.  A move slides one token along an edge (or arc) to an
unoccupied vertex; multi-arcs in the host give multi-arcs in the token graph.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import DimensionTooLarge, KOutOfRange
from .graphs import Digraph, Graph, _integer


def token_configs(n: int, k: int) -> list[tuple[int, ...]]:
    """All sorted k-subsets of range(n), lexicographically."""
    n, k = _integer(n, "vertex count"), _integer(k, "token count")
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    return list(combinations(range(n), k))


def _combination_ranker(n: int, k: int):
    """rank(rows) maps each sorted k-subset row c_0 < ... < c_{k-1} of range(n)
    to its lexicographic index, C(n,k) - 1 minus the sum_i C(n-1-c_i, k-i)
    subsets after it; other rows get meaningless ranks.  Refuses with
    DimensionTooLarge a C(n,k) whose ranks do not fit int64."""
    count = math.comb(n, k)
    if count >= 2**63:
        raise DimensionTooLarge(f"C({n}, {k}) = {count} {k}-subsets: "
                                "their ranks do not fit int64")
    # C(a, b) is the sum of C(j, b - 1) over j < a.  An entry with
    # a - b < n - k sums only such entries; the others are never read and
    # may wrap past int64
    binom = np.zeros((n, k + 1), dtype=np.int64)
    binom[:, 0] = 1
    for b in range(1, k + 1):
        binom[1:, b] = np.cumsum(binom[:-1, b - 1])
    return lambda rows: count - 1 - binom[n - 1 - rows, np.arange(k, 0, -1)].sum(-1)


def _token_moves(arcs: np.ndarray, configs, n: int) -> np.ndarray:
    """(config index, moved config rank) rows for every token sliding along
    one of the arcs (u, v) onto an unoccupied head, arc-major then config
    order; the configs may be any sorted k-subsets of range(n)."""
    rows = np.asarray(configs, dtype=np.intp)
    count, k = rows.shape
    occupied = np.zeros((count, n), dtype=bool)
    occupied[np.arange(count)[:, None], rows] = True
    tails, heads = arcs[:, 0], arcs[:, 1]
    # a loop never moves a token: its tail is occupied exactly when its head is
    arc, config = np.nonzero((occupied[:, tails] & ~occupied[:, heads]).T)
    moved = rows[config]
    moved = np.where(moved == tails[arc, None], heads[arc, None], moved)
    moved.sort(axis=1)
    return np.stack([config, _combination_ranker(n, k)(moved)], axis=1)


def token_graph(graph: Graph, k: int) -> Graph:
    """The k-token graph of an undirected graph: one edge per move along an
    edge in its stored direction; the reverse move is the edge's other arc."""
    configs = token_configs(graph.n, k)
    return Graph.from_edges(configs, _token_moves(graph.edge_array(), configs, graph.n))


def token_digraph(digraph: Digraph, k: int) -> Digraph:
    """The k-token digraph: arc A -> B when one token follows an arc u -> v
    with v unoccupied."""
    configs = token_configs(digraph.n, k)
    return Digraph(configs, _token_moves(digraph.arc_array(), configs, digraph.n))
