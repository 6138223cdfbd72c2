"""k-token graphs and k-token digraphs.

Vertices are the sorted k-subsets of the host's vertex indices, in
lexicographic order.  A move slides one token along an edge (or arc) to an
unoccupied vertex; multi-arcs in the host give multi-arcs in the token graph.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import KOutOfRange
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
    subsets after it; other rows get meaningless ranks."""
    # C(a, b); the entries with a - b >= n - k are never read and may
    # exceed int64, so they are left 0
    binom = np.array([[math.comb(a, b) if a - b < n - k else 0 for b in range(k + 1)]
                      for a in range(n)], dtype=np.int64)
    return lambda rows: math.comb(n, k) - 1 - binom[n - 1 - rows, np.arange(k, 0, -1)].sum(-1)


def _token_moves(arcs: np.ndarray, configs, n: int) -> np.ndarray:
    """(config index, moved config rank) rows for every token sliding along
    one of the arcs (u, v) onto an unoccupied head, arc-major then config
    order; the configs may be any sorted k-subsets of range(n)."""
    rows = np.array(configs, dtype=np.intp)
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
