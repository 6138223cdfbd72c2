"""Graph/digraph containers, constructors, matrices, serialization."""

import json
import math
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
    token_base_graph,
)

from voltlift.graphs import match_digon_pairing

from helpers import dihedral_group


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


REPEATED = "connection set has repeated generators"
IDENTITY = "connection set must not contain the identity"
NOT_CLOSED = "undirected construction needs S closed under inverses"


@pytest.mark.parametrize("group, gens, directed, error, message", [
    (AbelianGroup(5), [], False, VoltliftError, "connection set must be non-empty"),
    (AbelianGroup(6), [1, 1, 5], False, VoltliftError, REPEATED),
    (AbelianGroup(5), [1, 6], True, VoltliftError, REPEATED),
    (AbelianGroup(5), [0, 0], False, VoltliftError, REPEATED),
    (AbelianGroup(5), [4, 0, 1], False, IdentityInS, IDENTITY),
    (AbelianGroup(5), [0], True, IdentityInS, IDENTITY),
    (AbelianGroup(5), [0, 1], False, IdentityInS, IDENTITY),
    (AbelianGroup(5), [1, 2], False, NotInverseClosed, NOT_CLOSED),
    (AbelianGroup(3, 3), [(1, 0), (2, 0), (0, 1)], False, NotInverseClosed, NOT_CLOSED),
    (dihedral_group(7), [1, 7, 6, 7], False, VoltliftError, REPEATED),
    (dihedral_group(7), [0, 7], False, IdentityInS, IDENTITY),
    (dihedral_group(7), [1, 7], False, NotInverseClosed, NOT_CLOSED),
], ids=["empty", "repeat", "repeat-mod-n-directed", "repeated-identity", "identity",
        "identity-directed", "identity-before-closure", "not-closed", "Z3xZ3-not-closed",
        "D7-repeat", "D7-identity", "D7-not-closed"])
def test_connection_set_checks_in_order(group, gens, directed, error, message):
    """Both builders of a connection set raise the first failed check, in the
    order non-empty, no repeats, no identity, inverse-closed."""
    for build in (cayley_graph, lambda g, s, directed: token_base_graph(g, s, 2, directed=directed)):
        with pytest.raises(error) as err:
            build(group, gens, directed=directed)
        assert str(err.value) == message


def test_cayley_names_a_refused_numpy_generator_as_a_list_would():
    for gens in ([1.0, 4.0], np.array([1.0, 4.0])):
        with pytest.raises(VoltliftError) as err:
            cayley_graph(AbelianGroup(5), gens)
        assert str(err.value) == "Z5 element coordinate 1.0 is not an integer"
    with pytest.raises(VoltliftError) as err:
        cayley_graph(AbelianGroup(5), np.array(["1", "4"]))
    assert str(err.value) == "Z5 element coordinate '1' is not an integer"


def test_connection_set_accepts_inverse_pairs_in_any_order():
    d7 = dihedral_group(7)
    assert cayley_graph(d7, [6, 7, 1, 9]).edge_count == 28
    assert cayley_graph(AbelianGroup(3, 3), [(0, 2), (1, 0), (0, 1), (2, 0)]).edge_count == 18


def test_cayley_vertex_transitivity():
    rng = random.Random(3)
    group = AbelianGroup(3, 3)
    gens = [group.element(c) for c in [(1, 0), (2, 0), (0, 1), (0, 2)]]
    g = cayley_graph(group, gens)
    arcs = set()
    for t, h in g.arcs:
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


def _line_graph_pair_loop(graph):
    """Labels and edges of the line graph by the pair test that line_graph
    replaced: every pair of edges, adjacent iff exactly one end is shared."""
    from collections import Counter
    from itertools import combinations

    edge_ends = [tuple(sorted(e)) for e in graph.edges()]
    labels = list(edge_ends)
    seen = Counter(edge_ends)
    if any(c > 1 for c in seen.values()):
        counts = Counter()
        labels = []
        for ends in edge_ends:
            labels.append(ends + (counts[ends],) if seen[ends] > 1 else ends)
            counts[ends] += 1
    new_edges = []
    for i, j in combinations(range(len(edge_ends)), 2):
        if len(set(edge_ends[i]) & set(edge_ends[j])) == 1:
            new_edges.append((i, j))
    return tuple(labels), new_edges


@pytest.mark.parametrize("make", [
    lambda: complete_graph(5),
    lambda: cayley_graph(AbelianGroup(12), [2, 3, 9, 10]),
    # parallel edges 0-1 (three times, in both directions) and 2-3
    lambda: Graph.from_edges(range(5), [(0, 1), (1, 2), (1, 0), (2, 3), (3, 2),
                                        (0, 1), (3, 4), (4, 0), (2, 0)]),
    lambda: Graph.from_edges([0], []),
], ids=["K5", "C12-2-3", "multigraph", "no-edges"])
def test_line_graph_matches_pair_loop(make):
    graph = make()
    labels, edges = _line_graph_pair_loop(graph)
    lg = line_graph(graph)
    assert lg.labels == labels
    assert lg.edges() == edges
    assert lg.pairing == Graph.from_edges(labels, edges).pairing


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
    a = np.zeros((g.n, g.n))
    degree = np.zeros(g.n)
    for tail, head in g.arcs:
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
    # the character route gives chi-bar the conjugate spectrum of chi, which
    # holds only for a real universal matrix
    with pytest.raises(VoltliftError, match="must be real"):
        UniversalCoefficients(1.0, 0.0, 1j, 0.0)
    assert UniversalCoefficients(np.float64(2.0), 1, np.int64(0)).c1 == 2.0


@pytest.mark.parametrize("coeffs", [
    (math.nan, 0.0, 0.0, 0.0),
    (1.0, math.inf, 0.0, 0.0),
    (1.0, 0.0, -math.inf, 0.0),
    (1.0, 0.0, 0.0, np.float64("nan")),
], ids=["c1-nan", "c2-inf", "c3-minus-inf", "c4-numpy-nan"])
def test_universal_coefficients_must_be_finite(coeffs):
    with pytest.raises(VoltliftError, match="universal matrix coefficients must be finite"):
        UniversalCoefficients(*coeffs)


def test_graph_is_a_digraph_sharing_its_arrays():
    digraph = Digraph(["a", "b", "c"], [(0, 1), (1, 0), (1, 2), (2, 1), (2, 2), (2, 2)])
    g = Graph(digraph, [1, 0, 3, 2, 5, 4])
    assert isinstance(g, Digraph)
    assert g.labels is digraph.labels
    assert g.label_index is digraph.label_index
    assert g.arc_array() is digraph.arc_array()
    assert not hasattr(g, "digraph")
    # the matrices and vertex data are Digraph's own, not wrappers
    for name in ("labels", "label_index", "n", "adjacency_matrix", "universal_matrix"):
        assert name not in vars(Graph)
    assert np.array_equal(g.universal_matrix(UniversalCoefficients.laplacian()),
                          digraph.universal_matrix(UniversalCoefficients.laplacian()))
    assert g.edges() == [(0, 1), (1, 2), (2, 2)]
    assert (g.n, g.arc_count, g.edge_count, g.degrees()) == (3, 6, 3, [1, 2, 3])
    assert repr(g) == "Graph(3 vertices, 3 edges)"


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


# arc rows, pairings, edges, voltages and sizes that are not integers, with
# the message naming the first one; floats and strings were truncated or parsed
NON_INTEGERS = {
    "arc-float": (lambda: Digraph([0, 1, 2], [(0, 1.9)]), "arc entry 1.9 is not an integer"),
    "arc-string": (lambda: Digraph([0, 1, 2], [(0, "1")]), "arc entry '1' is not an integer"),
    "arc-float-array": (lambda: Digraph([0, 1], np.array([[0, 1.0]])),
                        "arc entry 0.0 is not an integer"),
    "pairing-float": (lambda: Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [1.7, 0.2]),
                      "pairing entry 1.7 is not an integer"),
    "edge-float": (lambda: Graph.from_edges([0, 1], [(0, 1), (1, 0.0)]),
                   "edge entry 0.0 is not an integer"),
    "digon-arc-float": (lambda: match_digon_pairing([(0, 1), (1, 0.5)]),
                        "arc entry 0.5 is not an integer"),
    "digon-voltage-float": (lambda: match_digon_pairing([(0, 0), (0, 0)], [1.0, 4.0],
                                                        AbelianGroup(5)),
                            "voltage index 1.0 is not an integer"),
    "complete-float": (lambda: complete_graph(3.0), "vertex count 3.0 is not an integer"),
    "cycle-string": (lambda: cycle_graph("5"), "vertex count '5' is not an integer"),
    "directed-cycle-float": (lambda: directed_cycle(4.5), "vertex count 4.5 is not an integer"),
}


@pytest.mark.parametrize("build, message", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_graph_layer_refuses_non_integers(build, message):
    with pytest.raises(VoltliftError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_graph_layer_takes_integers_of_any_type():
    d = Digraph([0, 1], [(np.int32(0), 1), (1, np.int64(0))])
    assert d.arcs == ((0, 1), (1, 0))
    assert Digraph([0, 1], np.array([[0, 1]], dtype=np.int32)).arcs == ((0, 1),)
    assert Graph(d, np.array([1, 0], dtype=np.int32)).pairing == (1, 0)
    assert match_digon_pairing([(0, 0), (0, 0)], np.array([1, 4], dtype=np.int16),
                               AbelianGroup(5)).tolist() == [1, 0]
    assert complete_graph(np.int64(3)).edges() == [(0, 1), (0, 2), (1, 2)]
    assert cycle_graph(np.intp(3)).edge_count == 3
    assert directed_cycle(np.int32(1)).arcs == ((0, 0),)


def test_match_digon_pairing_returns_an_intp_array():
    for args, want in [(([(0, 1), (0, 0), (1, 0), (0, 0)],), [2, 3, 0, 1]),
                       ((np.empty((0, 2), dtype=np.intp),), []),
                       (([(0, 0), (0, 0)], [1, 4], AbelianGroup(5)), [1, 0])]:
        pairing = match_digon_pairing(*args)
        assert isinstance(pairing, np.ndarray) and pairing.dtype == np.intp
        assert pairing.tolist() == want


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


@pytest.mark.parametrize("flag, kind", [("no", "str"), (1, "int"), (None, "NoneType")])
def test_graph_json_undirected_must_be_a_boolean(flag, kind):
    """Only a JSON boolean sets the graph-JSON undirected flag, as in the
    voltage-graph reader."""
    data = {"vertices": [0, 1], "arcs": [[0, 1], [1, 0]], "undirected": flag}
    with pytest.raises(VoltliftError) as err:
        graph_from_json(data)
    assert str(err.value) == f"graph JSON field 'undirected' is a {kind}, expected boolean"
    data["undirected"] = False
    assert type(graph_from_json(data)) is Digraph


def test_dot_and_csv_exports():
    g = complete_graph(3)
    dot = g.to_dot()
    assert dot.startswith("graph G {")
    assert '"0" -- "1";' in dot
    csv = adjacency_csv(g)
    assert csv.splitlines()[0] == "0,1,1"
    d = directed_cycle(3)
    assert '"0" -> "1";' in d.to_dot()
