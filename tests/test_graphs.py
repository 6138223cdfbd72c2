"""Graph/digraph containers, constructors, matrices, serialization."""

import json
import random

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    Digraph,
    Graph,
    IdentityInS,
    InvalidPairing,
    LoopsUnsupported,
    NotInverseClosed,
    UniversalCoefficients,
    VoltliftError,
    adjacency_csv,
    cayley_graph,
    complete_graph,
    cycle_graph,
    directed_cycle,
    graph_from_json,
    line_graph,
)


def test_complete_graph_edge_counts():
    assert complete_graph(5).edge_count == 10
    assert complete_graph(1).edge_count == 0


def test_directed_cycle_arcs():
    d = directed_cycle(5)
    assert d.arcs == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))


def test_adjacency_symmetry_and_handshake():
    g = complete_graph(6)
    a = g.adjacency_matrix()
    assert np.array_equal(a, a.T)
    assert a.sum() == 2 * g.edge_count


def test_cayley_toroidal_mesh():
    group = AbelianGroup(3, 3)
    gens = [group.element(c) for c in [(1, 0), (2, 0), (0, 1), (0, 2)]]
    g = cayley_graph(group, gens)
    assert g.n == 9
    assert set(g.degrees()) == {4}


def test_cayley_circulant_z8():
    group = AbelianGroup(8)
    g = cayley_graph(group, [1, 2, 3, 5, 6, 7])
    assert g.n == 8
    assert set(g.degrees()) == {6}


def test_cayley_all_nonzero_is_complete():
    group = AbelianGroup(6)
    g = cayley_graph(group, list(range(1, 6)))
    assert np.array_equal(g.adjacency_matrix(), complete_graph(6).adjacency_matrix())


def test_cayley_rejects_identity():
    with pytest.raises(IdentityInS):
        cayley_graph(AbelianGroup(5), [0, 1, 4])


def test_cayley_rejects_non_inverse_closed():
    with pytest.raises(NotInverseClosed):
        cayley_graph(AbelianGroup(5), [1, 2])
    # but the directed variant accepts it
    d = cayley_graph(AbelianGroup(5), [1, 2], directed=True)
    assert d.arc_count == 10


def test_cayley_vertex_transitivity():
    rng = random.Random(3)
    group = AbelianGroup(3, 3)
    gens = [group.element(c) for c in [(1, 0), (2, 0), (0, 1), (0, 2)]]
    g = cayley_graph(group, gens)
    arcs = set()
    for t, h in g.digraph.arcs:
        arcs.add((t, h))
    els = group.elements()
    for _ in range(5):
        h = els[rng.randrange(9)]
        relabel = {i: group.index_of(h * els[i]) for i in range(9)}
        assert {(relabel[t], relabel[u]) for t, u in arcs} == arcs


def test_line_graph_of_k5():
    lg = line_graph(complete_graph(5))
    assert lg.n == 10
    assert set(lg.degrees()) == {6}


def test_line_graph_of_circulant_z12():
    group = AbelianGroup(12)
    g = cayley_graph(group, [2, 3, 9, 10])
    lg = line_graph(g)
    assert lg.n == 24
    assert set(lg.degrees()) == {6}


def test_line_graph_of_cycle_is_cycle():
    lg = line_graph(cycle_graph(4))
    assert lg.n == 4
    assert set(lg.degrees()) == {2}
    vals = sorted(np.linalg.eigvalsh(lg.adjacency_matrix()))
    assert vals == pytest.approx([-2, 0, 0, 2], abs=1e-12)


def test_line_graph_regularity_shift():
    g = cayley_graph(AbelianGroup(8), [1, 2, 3, 5, 6, 7])  # 6-regular
    lg = line_graph(g)
    assert lg.n == g.edge_count
    assert set(lg.degrees()) == {2 * 6 - 2}


def test_line_graph_rejects_loops():
    g = Graph.from_edges([0, 1], [(0, 0), (0, 1)])
    with pytest.raises(LoopsUnsupported):
        line_graph(g)


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(3),
        Digraph([0, 1, 2], [(0, 1), (0, 1), (1, 1), (1, 1), (2, 0), (1, 2), (2, 2)]),
        Graph.from_edges([0, 1, 2], [(0, 0), (0, 1), (1, 2), (1, 2)]),
        Digraph([0, 1, 2], []),
    ],
    ids=["k3", "loopy-multi-digraph", "graph-with-loop", "no-arcs"],
)
def test_universal_matrix_presets(g):
    arcs = g.digraph.arcs if isinstance(g, Graph) else g.arcs
    a = np.zeros((g.n, g.n))
    degree = np.zeros(g.n)
    for tail, head in arcs:
        a[tail, head] += 1.0
        degree[tail] += 1.0
    assert np.array_equal(g.adjacency_matrix(), a)
    presets = [
        UniversalCoefficients.adjacency(),
        UniversalCoefficients.laplacian(),
        UniversalCoefficients.signless_laplacian(),
        UniversalCoefficients.seidel(),
        UniversalCoefficients(0.3, -0.7, 1.1, 0.1),
    ]
    for c in presets:
        expected = (c.c1 * a + c.c2 * np.diag(degree) + c.c3 * np.eye(g.n)
                    + c.c4 * np.ones((g.n, g.n)))
        assert np.array_equal(g.universal_matrix(c), expected)
    lap = g.universal_matrix(UniversalCoefficients.laplacian())
    assert np.allclose(lap.sum(axis=1), 0)
    with pytest.raises(VoltliftError):
        UniversalCoefficients(0.0, 1.0, 0.0, 0.0)


def test_out_degree_diagonal_for_digraphs():
    d = Digraph([0, 1], [(0, 1), (0, 1), (1, 1)])
    u = d.universal_matrix(UniversalCoefficients(1.0, 1.0))
    assert u[0, 0] == 2.0  # out-degree 2
    assert u[1, 1] == 1.0 + 1.0  # loop arc + its own degree


def test_loop_counts_twice_in_graph_degree():
    g = Graph.from_edges([0], [(0, 0)])
    assert g.degrees() == [2]
    assert g.adjacency_matrix()[0, 0] == 2.0


def test_pairing_validation():
    d = Digraph([0, 1], [(0, 1), (0, 1)])
    with pytest.raises(InvalidPairing):
        Graph(d, [1, 0])


PATH_ARCS = [(0, 1), (1, 0), (1, 2), (2, 1)]

# each malformed container with the exception type and message it raises;
# the message names the first offending arc in arc order
INVALID_CONTAINERS = {
    "arc-out-of-range": (lambda: Digraph([0, 1], [(0, 1), (1, 2)]),
                         VoltliftError, "arc (1,2) out of vertex range 0..1"),
    "negative-arc": (lambda: Digraph([0, 1], [(0, 1), (-1, 0)]),
                     VoltliftError, "arc (-1,0) out of vertex range 0..1"),
    # Python's own unpacking error; 3.13 appends ", got 3"
    "arc-row-of-3": (lambda: Digraph([0, 1, 2], [(0, 1), (0, 1, 2)]),
                     ValueError, "too many values to unpack (expected 2"),
    "pairing-too-short": (lambda: Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [1]),
                          InvalidPairing, "pairing length differs from arc count"),
    "pairing-not-involutive": (lambda: Graph(Digraph([0, 1, 2], PATH_ARCS), [1, 0, 3, 1]),
                               InvalidPairing,
                               "pairing is not an involutive perfect matching at arc 2"),
    "pairing-out-of-range": (lambda: Graph(Digraph([0, 1, 2], PATH_ARCS), [1, 0, 2, 7]),
                             InvalidPairing,
                             "pairing is not an involutive perfect matching at arc 2"),
    "pairing-negative": (lambda: Graph(Digraph([0, 1, 2], PATH_ARCS), [1, 0, -1, 2]),
                         InvalidPairing,
                         "pairing is not an involutive perfect matching at arc 2"),
    "partner-not-reversed": (lambda: Graph(Digraph([0, 1, 2], [(0, 1), (1, 0), (1, 2), (0, 1)]),
                                           [1, 0, 3, 2]),
                             InvalidPairing, "arcs 2 and 3 are not mutually reversed"),
    # arc 0's partner is not reversed, which is reported before arc 2's
    # self-pairing
    "first-bad-arc-wins": (lambda: Graph(Digraph([0, 1, 2], [(0, 1), (0, 1), (1, 2), (2, 1)]),
                                         [1, 0, 2, 3]),
                           InvalidPairing, "arcs 0 and 1 are not mutually reversed"),
}


@pytest.mark.parametrize("build, kind, message", INVALID_CONTAINERS.values(),
                         ids=INVALID_CONTAINERS.keys())
def test_invalid_containers_name_the_first_bad_arc(build, kind, message):
    with pytest.raises(kind) as excinfo:
        build()
    assert type(excinfo.value) is kind
    assert str(excinfo.value).startswith(message)


def test_json_round_trip():
    g = cayley_graph(AbelianGroup(3, 3),
                     [AbelianGroup(3, 3).element(c) for c in [(1, 0), (2, 0)]],
                     directed=True)
    data = json.loads(json.dumps(g.to_json()))
    again = graph_from_json(data)
    assert again.labels == g.labels
    assert again.arcs == g.arcs

    und = complete_graph(4)
    again = graph_from_json(json.loads(json.dumps(und.to_json())))
    assert isinstance(again, Graph)
    assert np.array_equal(again.adjacency_matrix(), und.adjacency_matrix())


def test_dot_and_csv_exports():
    g = complete_graph(3)
    dot = g.to_dot()
    assert dot.startswith("graph G {")
    assert '"0" -- "1";' in dot
    csv = adjacency_csv(g)
    assert csv.splitlines()[0] == "0,1,1"
    d = directed_cycle(3)
    assert '"0" -> "1";' in d.to_dot()
