"""Token graphs and token digraphs against brute-force move enumeration."""

import math
from itertools import combinations

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    Digraph,
    Graph,
    KOutOfRange,
    VoltliftError,
    cayley_graph,
    complete_graph,
    cycle_graph,
    directed_cycle,
    token_configs,
    token_digraph,
    token_graph,
)


def test_one_token_graph_is_the_graph():
    g = cycle_graph(5)
    t = token_graph(g, 1)
    assert np.array_equal(t.adjacency_matrix(), g.adjacency_matrix())


def test_one_token_digraph_is_the_digraph():
    d = directed_cycle(4)
    t = token_digraph(d, 1)
    assert np.array_equal(t.adjacency_matrix(), d.adjacency_matrix())


@pytest.mark.parametrize("name", ["cycle", "complete", "loopy-multigraph"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_token_digraph_of_a_graph_follows_its_arcs(name, k):
    """A Graph is a Digraph, so token_digraph takes it and sees its arcs."""
    host = HOSTS[name]
    t = token_digraph(host, k)
    expected = token_digraph(Digraph(host.labels, host.arc_array()), k)
    assert type(t) is Digraph
    assert t.labels == expected.labels
    assert np.array_equal(t.arc_array(), expected.arc_array())
    # every move and its reverse: the arcs of the token graph, in another order
    assert sorted(t.arc_array().tolist()) == sorted(token_graph(host, k).arc_array().tolist())


def test_two_tokens_of_k5_is_johnson():
    t = token_graph(complete_graph(5), 2)
    assert t.n == 10
    assert set(t.out_degrees().tolist()) == {6}


def test_vertex_counts():
    g = complete_graph(6)
    for k in range(1, 7):
        assert token_graph(g, k).n == math.comb(6, k)
    with pytest.raises(KOutOfRange):
        token_graph(g, 0)
    with pytest.raises(KOutOfRange):
        token_graph(g, 7)


@pytest.mark.parametrize("build, message", [
    (lambda: token_graph(cayley_graph(AbelianGroup(5), [1, 4]), 2.0),
     "token count 2.0 is not an integer"),
    (lambda: token_configs(5, 2.5), "token count 2.5 is not an integer"),
    (lambda: token_configs(5.0, 2), "vertex count 5.0 is not an integer"),
    (lambda: token_configs(5, True), "token count True is not an integer"),
], ids=["token-graph-k-float", "configs-k-float", "configs-n-float", "configs-k-bool"])
def test_sizes_must_be_integers(build, message):
    with pytest.raises(VoltliftError) as err:
        build()
    assert str(err.value) == message
    assert token_configs(np.int64(5), np.int64(2)) == token_configs(5, 2)


def test_config_order_is_lexicographic():
    assert token_configs(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_degree_counts_boundary_edges():
    g = cycle_graph(6)
    t = token_graph(g, 2)
    for idx, config in enumerate(t.labels):
        boundary = sum(
            1 for u, v in g.edge_array().tolist() if (u in config) != (v in config)
        )
        assert t.out_degrees()[idx] == boundary


def test_complement_symmetry():
    g = cycle_graph(6)
    a = token_graph(g, 2)
    b = token_graph(g, 4)
    assert a.n == b.n
    # complements of the k-subsets give an explicit isomorphism
    comp = {config: tuple(sorted(set(range(6)) - set(config))) for config in a.labels}
    perm = [b.label_index[comp[config]] for config in a.labels]
    ma = a.adjacency_matrix()
    mb = b.adjacency_matrix()
    assert np.array_equal(ma, mb[np.ix_(perm, perm)])
    sa = sorted(np.linalg.eigvalsh(ma))
    sb = sorted(np.linalg.eigvalsh(mb))
    assert max(abs(x - y) for x, y in zip(sa, sb)) < 1e-9


def test_token_digraph_of_c5_moves():
    t = token_digraph(directed_cycle(5), 2)
    assert t.n == 10
    idx = t.label_index
    out = [h for tail, h in t.arc_array().tolist() if tail == idx[(0, 1)]]
    # the move 0 -> 1 is blocked (1 occupied), so only {0,2} remains
    assert [t.labels[h] for h in out] == [(0, 2)]
    out_degrees = t.out_degrees()
    for config, expected in [((0, 1), 1), ((0, 2), 2), ((1, 3), 2), ((1, 2), 1)]:
        assert out_degrees[idx[config]] == expected


def test_token_digraph_of_c3_is_directed_triangle():
    t = token_digraph(directed_cycle(3), 2)
    assert t.n == 3
    arcs = {(t.labels[a], t.labels[b]) for a, b in t.arc_array().tolist()}
    assert arcs == {((0, 1), (0, 2)), ((0, 2), (1, 2)), ((1, 2), (0, 1))}


def test_multi_edges_propagate():
    g = Graph.from_edges([0, 1, 2], [(0, 1), (0, 1), (1, 2)])
    t = token_graph(g, 2)
    a = t.adjacency_matrix()
    i, j = t.label_index[(0, 2)], t.label_index[(1, 2)]
    assert a[i, j] == 2.0


def test_brute_force_against_direct_enumeration():
    g = cycle_graph(5)
    t = token_graph(g, 2)
    configs = list(combinations(range(5), 2))
    edges = set(map(tuple, map(sorted, g.edge_array().tolist())))
    expected = np.zeros((10, 10))
    for i, a in enumerate(configs):
        for j, b in enumerate(configs):
            diff = set(a) ^ set(b)
            if len(diff) == 2 and tuple(sorted(diff)) in edges:
                expected[i, j] = 1
    assert np.array_equal(t.adjacency_matrix(), expected)


def _moves_per_configuration(arcs, configs):
    """Reference move list: one set difference per (arc, configuration)."""
    index = {c: i for i, c in enumerate(configs)}
    moves = []
    for u, v in arcs:
        if u == v:
            continue
        for c in configs:
            if u in c and v not in c:
                moves.append((index[c], index[tuple(sorted(set(c) - {u} | {v}))]))
    return moves


LOOPY_MULTIGRAPH = Graph.from_edges(
    range(5), [(0, 0), (0, 1), (1, 0), (0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 1)])
LOOPY_MULTIDIGRAPH = Digraph(
    range(5), [(0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (3, 2), (2, 3), (4, 4), (0, 4), (4, 3)])
HOSTS = {
    "cycle": cycle_graph(5),
    "complete": complete_graph(5),
    "loopy-multigraph": LOOPY_MULTIGRAPH,
    "directed-cycle": directed_cycle(5),
    "loopy-multidigraph": LOOPY_MULTIDIGRAPH,
}
# k near n with n >= 16: C(n, k) is small although n^k is far beyond 64 bits
NEAR_FULL = {
    "K16-k16": (complete_graph(16), 16),
    "K17-k16": (complete_graph(17), 16),
    "C17-k16": (cycle_graph(17), 16),
    "directed-C18-k15": (directed_cycle(18), 15),
}
CASES = {f"{name}-k{k}": (host, k) for name, host in HOSTS.items() for k in (1, 2, 3)}


@pytest.mark.parametrize("host, k", (CASES | NEAR_FULL).values(),
                         ids=(CASES | NEAR_FULL).keys())
def test_builders_match_per_configuration_loop(host, k):
    configs = token_configs(host.n, k)
    if isinstance(host, Graph):
        moves = _moves_per_configuration(host.edge_array().tolist(), configs)
        t = token_graph(host, k)
        assert t.arc_array().tolist() == [arc for u, v in moves for arc in ([u, v], [v, u])]
        assert t.pairing.tolist() == [i ^ 1 for i in range(2 * len(moves))]
    else:
        moves = _moves_per_configuration(host.arc_array().tolist(), configs)
        t = token_digraph(host, k)
        assert t.arc_array().tolist() == list(map(list, moves))
    assert t.labels == tuple(configs)
