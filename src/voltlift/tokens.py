"""k-token graphs and k-token digraphs.

Vertices are the sorted k-subsets of the host's vertex indices, in
lexicographic order.  A move slides one token along an edge (or arc) to an
unoccupied vertex; multi-arcs in the host give multi-arcs in the token graph.
"""

from __future__ import annotations

from itertools import combinations

from .errors import KOutOfRange
from .graphs import Digraph, Graph


def token_configs(n: int, k: int) -> list[tuple[int, ...]]:
    """All sorted k-subsets of range(n), lexicographically."""
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    return list(combinations(range(n), k))


def _token_moves(arcs, configs) -> list[tuple[int, int]]:
    """(config index, moved config index) for every token sliding along one
    of the arcs (u, v) onto an unoccupied head, arc-major then config order."""
    index = {c: i for i, c in enumerate(configs)}
    moves = []
    for u, v in arcs:
        if u == v:
            continue  # a token cannot slide along a loop
        for c in configs:
            if u in c and v not in c:
                moved = tuple(sorted(set(c) - {u} | {v}))
                moves.append((index[c], index[moved]))
    return moves


def token_graph(graph: Graph, k: int) -> Graph:
    """The k-token graph of an undirected graph: one edge per move along an
    edge in its stored direction; the reverse move is the edge's other arc."""
    configs = token_configs(graph.n, k)
    return Graph.from_edges(configs, _token_moves(graph.edges(), configs))


def token_digraph(digraph: Digraph, k: int) -> Digraph:
    """The k-token digraph: arc A -> B when one token follows an arc u -> v
    with v unoccupied."""
    configs = token_configs(digraph.n, k)
    return Digraph(configs, _token_moves(digraph.arcs, configs))
