"""Voltage graphs: lifts, base matrices, character evaluation, lifting."""

import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    Digraph,
    GenericGroup,
    Graph,
    InvalidPairing,
    LengthMismatch,
    NonAbelianGroup,
    Representation,
    UnitSymmetry,
    UniversalCoefficients,
    VoltageGraph,
    cayley_graph,
    check_representation,
    circulant_linegraph_base,
    cycle_graph,
    direct_spectrum,
    directed_cycle,
    enumerate_characters,
    johnson_base,
    k_set_decomposition,
    lift_eigenvector,
    multiset_equal,
    rep_spectrum,
    token_base_graph,
    token_digraph,
    token_graph,
    verify_natural_isomorphism,
    voltage_graph_from_json,
)

from helpers import (dihedral_group, dihedral_irreps, entry, greedy_pairing, group_law,
                     random_voltage_graph)

Z5 = AbelianGroup(5)


def c5_digraph_base():
    return VoltageGraph.directed_from_arcs(
        Z5, [(0, 1), (0, 2)], [(0, 1, 0), (1, 0, 1), (1, 1, -2)]
    )


def test_loop_pair_lifts_to_cycle():
    vg = VoltageGraph.undirected_from_edges(Z5, [0], [(0, 0, 1)])
    lifted = vg.lift()
    assert isinstance(lifted, Graph)
    expected = cycle_graph(5).adjacency_matrix()
    assert np.array_equal(lifted.adjacency_matrix(), expected)


@pytest.mark.parametrize("make, undirected", [
    (lambda: johnson_base(7, 3), True),
    (lambda: circulant_linegraph_base(13, [1, 3, 4]), True),
    (lambda: token_base_graph(dihedral_group(7), [1, 6, 3, 4], 3), True),
    (lambda: token_base_graph(AbelianGroup(7), [3], 3, directed=True), False),
], ids=["johnson", "circulant-linegraph", "d7-generic", "directed-token"])
def test_lift_is_a_digraph_and_the_pairing_one_array(make, undirected):
    vg = make()
    lifted = vg.lift()
    assert isinstance(lifted, Digraph)
    assert isinstance(lifted, Graph) == isinstance(vg.digraph, Graph) == vg.undirected \
        == undirected
    assert not hasattr(vg, "_pairing")
    if undirected:
        stored = vg.pairing
        assert stored.dtype == np.intp and not stored.flags.writeable
        assert stored is vg.digraph.pairing
    else:
        assert vg.pairing is None


def test_c5_base_lifts_to_token_digraph():
    lifted = c5_digraph_base().lift()
    target = token_digraph(directed_cycle(5), 2)
    # map (rep, g) -> rep + g and compare arc multisets
    image = {}
    for i, (label, key) in enumerate(lifted.labels):
        image[i] = tuple(sorted((x + key[0]) % 5 for x in label))
    mapped = sorted((image[t], image[h]) for t, h in lifted.arc_array().tolist())
    direct = sorted((target.labels[t], target.labels[h]) for t, h in target.arc_array().tolist())
    assert mapped == direct


@pytest.mark.parametrize(
    "n, k, gens",
    [(7, 5, [1, 6]), (7, 5, [1, 6, 2, 5]), (7, 3, [1, 6, 2, 5]), (7, 3, [1, 6, 7]),
     (11, 3, [1, 10, 11])],
    ids=["k5-r1", "k5-r1-r2", "k3-r1-r2", "k3-r1-s", "D11-k3-r1-s"],
)
def test_dihedral_token_base_matches_oracles(n, k, gens):
    """S = {r, r^-1, s} gives the reflection s loops that are semi-edges."""
    group = dihedral_group(n)
    irreps = dihedral_irreps(group, n)
    assert all(check_representation(group, rho).passed for rho in irreps)
    vg = token_base_graph(group, gens, k)
    target = token_graph(cayley_graph(group, gens), k)
    cmp = multiset_equal(rep_spectrum(vg, irreps), direct_spectrum(target), 1e-8)
    assert cmp.equal, cmp.max_distance
    assert verify_natural_isomorphism(vg, target).ok


def test_dihedral_custom_representatives_translate_on_the_left():
    group = dihedral_group(7)
    multiply = group_law(group)[0]
    default = k_set_decomposition(group, 3).representatives
    # move every orbit's representative by a different non-identity element
    custom = [
        tuple(sorted(multiply((3 * i + 8) % 14, j) for j in rep))
        for i, rep in enumerate(default)
    ]
    dec = k_set_decomposition(group, 3, representatives=custom)
    for subset in combinations(range(14), 3):
        i, g = dec.locate(subset)
        assert tuple(sorted(multiply(g, j) for j in custom[i])) == subset
    gens = [1, 6, 2, 5]
    vg = token_base_graph(group, gens, 3, representatives=custom)
    assert verify_natural_isomorphism(vg, token_graph(cayley_graph(group, gens), 3)).ok


def _elementwise_lift(vg):
    """(labels, arcs, pairing) of the lift, one group product per lift arc."""
    group = vg.group
    els, multiply = group.elements(), group_law(group)[0]
    m = len(els)
    labels = [(label, el.key) for label in vg.digraph.labels for el in els]
    arcs = []
    for (u, v), w in zip(vg.digraph.arc_array().tolist(), vg.voltages):
        for g in range(m):
            arcs.append((u * m + g, v * m + multiply(g, w.index)))
    if not vg.undirected:
        return labels, arcs, None
    pairing = []
    for partner, w in zip(vg.pairing.tolist(), vg.voltages):
        for g in range(m):
            pairing.append(partner * m + multiply(g, w.index))
    return labels, arcs, pairing


@pytest.mark.parametrize(
    "make",
    [
        lambda: token_base_graph(AbelianGroup(3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)], 2),
        lambda: circulant_linegraph_base(13, [1, 3, 4]),
        lambda: token_base_graph(AbelianGroup(7), [(3,)], 3, directed=True),
        lambda: token_base_graph(dihedral_group(7), [1, 6, 3, 4], 3),
    ],
    ids=["z3xz3-k2", "circulant-linegraph", "directed-token", "d7-generic"],
)
def test_lift_matches_elementwise_reference(make):
    vg = make()
    labels, arcs, pairing = _elementwise_lift(vg)
    lifted = vg.lift()
    assert list(lifted.labels) == labels
    assert list(map(tuple, lifted.arc_array().tolist())) == arcs
    assert (lifted.pairing.tolist() if vg.undirected else None) == pairing


def test_trivial_group_lift_is_base():
    group = AbelianGroup(1)
    vg = VoltageGraph.directed_from_arcs(group, ["a", "b"], [(0, 1, 0), (1, 0, 0)])
    lifted = vg.lift()
    assert lifted.n == 2
    assert sorted(lifted.arc_array().tolist()) == [[0, 1], [1, 0]]


def test_lift_counts():
    rng = random.Random(11)
    for _ in range(10):
        vg = random_voltage_graph(rng)
        lifted = vg.lift()
        assert lifted.n == vg.n * vg.group.size
        assert lifted.arc_count == vg.digraph.arc_count * vg.group.size


def test_johnson_base_matrix_entries():
    b = johnson_base(5, 2).base_matrix()
    assert b.entries[0][0] == entry(Z5, 1, -1)
    assert b.entries[0][1] == entry(Z5, 0, 1, -1, -2)
    assert b.entries[1][0] == entry(Z5, 0, 1, -1, 2)
    assert b.entries[1][1] == entry(Z5, 2, -2)


def test_c5_base_matrix():
    b = c5_digraph_base().base_matrix()
    assert b.entries[0][0] == {}
    assert b.entries[0][1] == entry(Z5, 0)
    assert b.entries[1][0] == entry(Z5, 1)
    assert b.entries[1][1] == entry(Z5, -2)


def test_toroidal_mesh_base_matrix_entry():
    group = AbelianGroup(3, 3)
    gens = [(1, 0), (2, 0), (0, 1), (0, 2)]
    # row order matching the published table: alpha, beta, gamma, delta
    reps = [(0, 3), (0, 1), (0, 4), (0, 7)]
    b = token_base_graph(group, gens, 2, representatives=reps).base_matrix()
    assert b.entries[0][0] == entry(group, (1, 0), (2, 0))
    assert b.entries[1][1] == entry(group, (0, 1), (0, 2))
    assert b.entries[0][2] == entry(group, (0, 0), (0, 2))
    assert b.entries[0][1] == {}
    assert b.entries[3][2] == entry(group, (0, 0), (1, 0), (2, 1), (2, 2))


def test_undirected_base_matrix_transpose_symmetry():
    rng = random.Random(23)
    for _ in range(10):
        vg = random_voltage_graph(rng)
        if not vg.undirected:
            continue
        b = vg.base_matrix()
        inverse = group_law(vg.group)[1]
        for i in range(vg.n):
            for j in range(vg.n):
                assert b.entries[i][j] == {inverse(g): c for g, c in b.entries[j][i].items()}


def test_evaluate_matrix_trivial_character():
    b = johnson_base(5, 2).base_matrix()
    m = b.evaluate((0,))
    assert np.allclose(m, [[2, 4], [4, 2]])


def test_evaluate_matrix_hermitian():
    b = johnson_base(7, 2).base_matrix()
    for j in enumerate_characters(AbelianGroup(7)):
        m = b.evaluate(j)
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_character_matrix_reads_characters_at_the_voltages_only():
    """A character matrix gathers the character at the term table's voltages,
    not at all |G| elements: over Z_1000003 one call allocates far less than
    one complex value per element."""
    m = 1000003
    vg = VoltageGraph.directed_from_arcs(AbelianGroup(m), [0, 1],
                                         [(0, 1, 1), (1, 0, -1), (0, 0, 5), (0, 0, 5)])
    first = vg.character_matrix(12345)  # builds the base matrix once
    tracemalloc.start()
    try:
        again = vg.character_matrix(12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * 16 // 100
    assert again.tobytes() == first.tobytes()
    z = np.exp(2j * np.pi * 12345 * np.array([1, -1, 5]) / m)
    assert np.abs(again - [[2 * z[2], z[0]], [z[1], 0]]).max() < 1e-9


def test_character_matrix_over_a_generic_group_raises_non_abelian():
    vg = token_base_graph(dihedral_group(5), [1, 4], 3)
    for call in (lambda: vg.character_matrix(0), lambda: lift_eigenvector(vg, [1.0] * vg.n, 0)):
        with pytest.raises(NonAbelianGroup, match="abelian groups only"):
            call()


UNIVERSAL_PRESETS = [
    UniversalCoefficients.adjacency(),
    UniversalCoefficients.laplacian(),
    UniversalCoefficients.signless_laplacian(),
    UniversalCoefficients.seidel(),
    UniversalCoefficients(0.3, -0.7, 1.1, 0.1),
]


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_character_matrix_is_the_universal_sum_as_written(seed):
    """character_matrix(j, coeffs) is c1*B + c2*D + c3*I + c4*|G|*[j = 0]*J,
    each term an array added left to right, to the byte: B the base matrix at
    j and D the base out-degree diagonal."""
    vg = johnson_base(7, 3) if seed is None else random_voltage_graph(random.Random(seed))
    n, m = vg.n, vg.group.size
    degrees = np.diag(np.asarray(vg.digraph.out_degrees(), dtype=float))
    for index in sorted({0, 1 % m, m - 1}):
        j = vg.group.keys([index])[0]
        b = vg.character_matrix(j)
        for c in UNIVERSAL_PRESETS:
            expected = (c.c1 * b + c.c2 * degrees + c.c3 * np.eye(n)
                        + c.c4 * m * (index == 0) * np.ones((n, n)))
            assert vg.character_matrix(j, c).tobytes() == expected.tobytes()


def test_c5_matrix_at_unity():
    b = c5_digraph_base().base_matrix()
    m = b.evaluate((0,))
    assert np.allclose(m, [[0, 1], [1, 1]])


def test_apply_representation_matches_character():
    b = johnson_base(5, 2).base_matrix()
    for j in enumerate_characters(Z5):
        rep = Representation.from_character(Z5, j)
        assert np.allclose(b.apply_representation(rep), b.evaluate(j))


def test_apply_representation_block_shape():
    group = AbelianGroup(4)
    # direct sum of two characters is unitary (reducible, which is fine here)
    chars = enumerate_characters(group)
    rep = Representation(
        group,
        {
            g: np.diag([group.character_values(chars[1])[g.index],
                        group.character_values(chars[3])[g.index]])
            for g in group.elements()
        },
    )
    vg = VoltageGraph.directed_from_arcs(
        group, ["a", "b", "c"], [(0, 1, 1), (1, 2, 2), (2, 0, 3)]
    )
    block = vg.base_matrix().apply_representation(rep)
    assert block.shape == (6, 6)


def _apply_representation_loop(base, rho):
    """The per-entry, per-term, per-block loop that apply_representation
    replaced; the reference for its exact bytes."""
    d = rho.dimension
    out = np.zeros((d * base.n, d * base.n), dtype=complex)
    for i, row in enumerate(base.entries):
        for j, entry in enumerate(row):
            for g, coeff in entry.items():
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] += coeff * rho.matrices[g]
    return out


def _z33_multi_arc_base():
    """Directed base over Z3xZ3 whose entries repeat voltages (count > 1) and
    hold up to three distinct voltages, first seen in a non-sorted order."""
    group = AbelianGroup(3, 3)
    arcs = [(0, 1, (2, 1)), (0, 1, (0, 1)), (0, 1, (2, 1)), (0, 1, (1, 0)),
            (1, 1, (1, 2)), (1, 1, (1, 2)), (1, 1, (1, 2)), (2, 0, (0, 0)),
            (1, 2, (2, 2)), (2, 1, (1, 1)), (0, 1, (0, 1))]
    return VoltageGraph.directed_from_arcs(group, [0, 1, 2], arcs)


def _apply_cases():
    d7 = dihedral_group(7)
    z33 = AbelianGroup(3, 3)
    characters = [Representation.from_character(z33, j) for j in enumerate_characters(z33)]
    empty = VoltageGraph.directed_from_arcs(d7, ["a", "b"], [])
    # matrices (not a homomorphism) whose sums in entry (0, 1), 2*(2,1) + 2*(0,1)
    # + (1,0), round differently in any other order: (2e16 - 2e16) + 1 = 1
    sensitive = {g: np.full((2, 2), 0.25 + 0.5j * g.index) for g in z33.elements()}
    el = {g.key: g for g in z33.elements()}
    sensitive[el[(2, 1)]] = np.array([[1e16, 1e16j], [0, 1e16]])
    sensitive[el[(0, 1)]] = np.array([[-1e16, -1e16j], [0, -1e16]])
    sensitive[el[(1, 0)]] = np.array([[1, 1j], [1j, 1]])
    return {
        "D7-irreps": (token_base_graph(d7, [1, 6, 2, 5], 3), dihedral_irreps(d7, 7)),
        # irreps over an equal group object that is not the base's own
        "D7-irreps-over-copy": (token_base_graph(d7, [1, 6, 2, 5], 3),
                                dihedral_irreps(GenericGroup.from_group(d7), 7)),
        "Z3xZ3-order": (_z33_multi_arc_base(), [Representation(z33, sensitive)]),
        "D7-no-arcs": (empty, dihedral_irreps(d7, 7)),
        "Z3xZ3-characters": (token_base_graph(z33, [(1, 0), (2, 0), (1, 1), (2, 2)], 2),
                             characters),
        "Z3xZ3-counts": (_z33_multi_arc_base(), characters),
    }


@pytest.mark.parametrize("case", ["D7-irreps", "D7-irreps-over-copy", "D7-no-arcs",
                                  "Z3xZ3-characters", "Z3xZ3-counts", "Z3xZ3-order"])
def test_apply_representation_bytes_match_loop(case):
    vg, reps = _apply_cases()[case]
    base = vg.base_matrix()
    if case in ("Z3xZ3-counts", "Z3xZ3-order"):
        assert max(c for row in base.entries for e in row for c in e.values()) > 1
        assert max(len(e) for row in base.entries for e in row) == 3
    for rho in reps:
        expected = _apply_representation_loop(base, rho)
        for _ in range(2):  # the second call reuses the base's term arrays
            block = base.apply_representation(rho)
            assert block.shape == expected.shape and block.dtype == expected.dtype
            assert block.tobytes() == expected.tobytes()


def _entries_loop(vg):
    """The dict-building loop that the term arrays replaced: entry (u, v)
    maps each voltage index to its arc count, in first-occurrence order."""
    entries = [[{} for _ in range(vg.n)] for _ in range(vg.n)]
    for (u, v), w in zip(vg.digraph.arc_array().tolist(), vg.voltages):
        entries[u][v][w.index] = entries[u][v].get(w.index, 0) + 1
    return entries


def _evaluate_loop(base, j):
    """The per-entry loop that evaluate replaced; the reference for its bytes."""
    values = base.group.character_values(j).tolist()
    out = np.zeros((base.n, base.n), dtype=complex)
    for i, row in enumerate(base.entries):
        for j, entry in enumerate(row):
            if entry:
                out[i, j] = sum((c * values[g] for g, c in entry.items()), complex(0))
    return out


_EVALUATE_CASES = {
    "J(7,3)": lambda: johnson_base(7, 3),
    # loops at every vertex
    "L(C13;1,3,4)": lambda: circulant_linegraph_base(13, [1, 3, 4]),
    "Z3xZ3-table-reps": lambda: token_base_graph(
        AbelianGroup(3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)], 2,
        representatives=[(0, 3), (0, 1), (0, 4), (0, 7)]),
    # a loop entry with count 3, entries with counts 2 and three voltages
    "Z3xZ3-counts": _z33_multi_arc_base,
    "no-arcs": lambda: VoltageGraph.directed_from_arcs(AbelianGroup(4), ["a", "b"], []),
    **{f"random-{seed}": (lambda seed=seed: random_voltage_graph(random.Random(seed)))
       for seed in range(8)},
}


@pytest.mark.parametrize("case", _EVALUATE_CASES)
def test_base_matrix_entries_and_evaluate_match_loops(case):
    vg = _EVALUATE_CASES[case]()
    base = vg.base_matrix()
    expected = _entries_loop(vg)
    assert [[list(e.items()) for e in row] for row in base.entries] == \
        [[list(e.items()) for e in row] for row in expected]
    for j in enumerate_characters(vg.group):
        m = base.evaluate(j)
        want = _evaluate_loop(base, j)
        assert m.shape == want.shape and m.dtype == want.dtype
        assert m.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", _EVALUATE_CASES)
def test_base_matrix_is_one_term_table(case):
    """Row, column, voltage index and count arrays: one term per distinct
    voltage of an entry, by entry and then by the voltage's first arc."""
    vg = _EVALUATE_CASES[case]()
    terms = vg.base_matrix().terms
    assert len(terms) == 4 and all(t.dtype == np.intp for t in terms)
    assert list(zip(*(t.tolist() for t in terms))) == [
        (u, v, g, c) for u, row in enumerate(_entries_loop(vg))
        for v, entry in enumerate(row) for g, c in entry.items()]


def test_lift_eigenvector_residuals():
    vg = johnson_base(5, 2)
    lift_adj = vg.lift().adjacency_matrix()
    m = vg.character_matrix((0,))
    vals, vecs = np.linalg.eigh(m)
    top = vecs[:, -1]
    assert vals[-1] == pytest.approx(6.0)
    phi = lift_eigenvector(vg, top, (0,))
    # constant on fibers for the trivial character
    assert np.allclose(phi[:5], phi[0])
    assert np.abs(lift_adj @ phi - 6.0 * phi).max() < 1e-8


def test_lift_eigenvector_formula_and_errors():
    vg = johnson_base(5, 2)
    chi = (1,)
    phi = lift_eigenvector(vg, [1.0, 0.0], chi)
    w = np.exp(2j * np.pi / 5)
    assert phi[3] == pytest.approx(w**3)
    assert np.allclose(lift_eigenvector(vg, [0.0, 0.0], chi), 0)
    with pytest.raises(LengthMismatch):
        lift_eigenvector(vg, [1.0, 2.0, 3.0], chi)


def test_pairing_rejects_non_inverse_voltages():
    from voltlift import Digraph

    # a Graph base is undirected: it is never read as a directed one
    d = Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [1, 0])
    with pytest.raises(InvalidPairing) as err:
        VoltageGraph(AbelianGroup(5), d, [1, 1])
    assert str(err.value) == "arcs 0 and 1 carry voltages that are not mutually inverse"
    vg = VoltageGraph(AbelianGroup(5), d, [1, 4])
    assert vg.undirected


def test_involution_loop_rejected():
    """Only a semi-edge with the identity voltage is refused over Z4."""
    group = AbelianGroup(4)
    # a loop pair with the involution 2 lifts to the doubled matching {h, h + 2}
    pair = VoltageGraph.undirected_from_edges(group, [0], [(0, 0, 2)])
    assert pair.lift().edge_count == 4
    assert pair.lift().edge_array().tolist() == [[0, 2], [1, 3], [2, 0], [3, 1]]
    # a semi-edge with voltage 2 lifts to that matching once
    loop = Digraph([0], [(0, 0)])
    semi = VoltageGraph(group, Graph(loop, [0]), [2])
    assert semi.digraph.edge_count == 1
    assert semi.lift().edge_count == 2
    assert semi.lift().edge_array().tolist() == [[0, 2], [1, 3]]
    with pytest.raises(InvalidPairing) as err:
        VoltageGraph(group, Graph(loop, [0]), [0])
    assert str(err.value) == ("semi-edge 0 carries the identity voltage, "
                              "which would lift to half-loops")
    with pytest.raises(InvalidPairing) as err:
        Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [0, 1])
    assert str(err.value) == ("pairing is not an involutive perfect matching at arc 0: "
                              "only a loop pairs with itself")
    # an involution voltage on a plain edge is an ordinary digon
    vg = VoltageGraph.undirected_from_edges(group, [0, 1], [(0, 1, 2)])
    assert vg.lift().edge_count == 4


def test_voltage_json_round_trip():
    for vg in (johnson_base(7, 2), c5_digraph_base()):
        data = json.loads(json.dumps(vg.to_json()))
        again = voltage_graph_from_json(data)
        assert again.group == vg.group
        assert np.array_equal(again.digraph.arc_array(), vg.digraph.arc_array())
        assert again.voltages == vg.voltages
        assert np.array_equal(again.pairing, vg.pairing)


def test_semi_edge_base_json_round_trip():
    vg = johnson_base(8, 3)
    data = json.loads(json.dumps(vg.to_json()))
    assert data["arcs"][37]["paired_with"] == 37
    again = voltage_graph_from_json(data)
    assert again.to_json() == vg.to_json()
    lift, lifted_again = vg.lift(), again.lift()
    assert lifted_again.labels == lift.labels
    assert np.array_equal(lifted_again.arc_array(), lift.arc_array())
    assert np.array_equal(lifted_again.pairing, lift.pairing)


@pytest.mark.parametrize("make, undirected", [
    (lambda: VoltageGraph.undirected_from_edges(Z5, [0], []), True),
    (lambda: VoltageGraph(Z5, Graph(Digraph([0, 1], []), []), []), True),
    (lambda: VoltageGraph(Z5, Digraph([0], []), []), False),
    (lambda: johnson_base(7, 3), True),
    (lambda: token_base_graph(AbelianGroup(7), [3], 3, directed=True), False),
    (lambda: VoltageGraph.undirected_from_edges(Z5, [0, 1], [(0, 1, 2), (1, 1, 1)]), True),
], ids=["arcless-from-edges", "arcless-graph", "arcless-directed", "johnson", "directed-token",
        "from-edges"])
def test_voltage_json_round_trip_keeps_undirected(make, undirected):
    vg = make()
    data = json.loads(json.dumps(vg.to_json()))
    assert data["undirected"] is undirected
    again = voltage_graph_from_json(data)
    for graph in (vg, again):
        assert graph.undirected == isinstance(graph.digraph, Graph) == undirected
    assert np.array_equal(again.pairing, vg.pairing)
    assert again.to_json() == vg.to_json()


def test_voltage_json_without_the_field_is_undirected_when_an_arc_is_paired():
    data = VoltageGraph.undirected_from_edges(Z5, [0, 1], [(0, 1, 2)]).to_json()
    del data["undirected"]
    assert voltage_graph_from_json(data).pairing.tolist() == [1, 0]
    for arc in data["arcs"]:
        arc["paired_with"] = None
    assert not voltage_graph_from_json(data).undirected
    data["arcs"][0]["paired_with"] = 1
    with pytest.raises(InvalidPairing) as err:
        voltage_graph_from_json(data)
    assert str(err.value) == ("voltage graph JSON is undirected, but arcs[1] has no "
                              "paired_with partner")
    data["arcs"] = []
    assert not voltage_graph_from_json(data).undirected


@pytest.mark.parametrize("undirected, paired_with, message", [
    (True, [1, None], "is undirected, but arcs[1] has no paired_with partner"),
    (True, [None, None], "is undirected, but arcs[0] has no paired_with partner"),
    (False, [None, 0], "is directed, but arcs[1] has a paired_with partner"),
    (False, [1, 0], "is directed, but arcs[0] has a paired_with partner"),
], ids=["undirected-half-paired", "undirected-unpaired", "directed-half-paired",
        "directed-paired"])
def test_voltage_json_refuses_pairs_that_contradict_undirected(undirected, paired_with, message):
    data = VoltageGraph.undirected_from_edges(Z5, [0, 1], [(0, 1, 2)]).to_json()
    data["undirected"] = undirected
    for arc, p in zip(data["arcs"], paired_with):
        arc["paired_with"] = p
    with pytest.raises(InvalidPairing) as err:
        voltage_graph_from_json(data)
    assert str(err.value) == "voltage graph JSON " + message


def test_voltage_json_undirected_field_must_be_a_boolean():
    from voltlift import VoltliftError

    data = johnson_base(5, 2).to_json()
    data["undirected"] = 1
    with pytest.raises(VoltliftError) as err:
        voltage_graph_from_json(data)
    assert str(err.value) == ("voltage graph JSON field 'undirected' is a int, "
                              "expected boolean")


def test_voltage_graph_takes_no_pairing_argument():
    graph = Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [1, 0])
    # the Graph carries the pairing, and symmetries are keyword-only
    with pytest.raises(TypeError):
        VoltageGraph(Z5, graph, [1, 4], [1, 0])
    with pytest.raises(TypeError):
        VoltageGraph(Z5, graph, [1, 4], pairing=[1, 0])


def test_base_matrix_render():
    text = str(johnson_base(5, 2).base_matrix())
    assert text.splitlines()[0].startswith("1/z + z")


def _outcome(fn, *args):
    """fn(*args), an ndarray as a list, or the InvalidPairing message it raises."""
    try:
        result = fn(*args)
    except InvalidPairing as exc:
        return f"InvalidPairing: {exc}"
    return result.tolist() if isinstance(result, np.ndarray) else result


def _d7_builder(gens, k):
    return lambda: token_base_graph(dihedral_group(7), gens, k)


PAIRING_BUILDERS = {
    "J(7,3)": (lambda: johnson_base(7, 3), None),
    "J(11,3)": (lambda: johnson_base(11, 3), None),
    "L(C12;2,3)": (lambda: circulant_linegraph_base(12, [2, 3]), None),
    "Z3xZ3-k2": (lambda: token_base_graph(AbelianGroup(3, 3),
                                          [(1, 0), (2, 0), (0, 1), (0, 2)], 2), None),
    "D7-k3": (_d7_builder([1, 6, 2, 5], 3), None),
    # the involution voltage 4 and the reflection 9 = r^2 s label semi-edges,
    # the first of them at these arcs
    "J(8,3)": (lambda: johnson_base(8, 3), 37),
    "J(4,1)": (lambda: johnson_base(4, 1), 1),
    "D7-reflection": (_d7_builder([1, 6, 7], 3), 39),
}


@pytest.mark.parametrize("name", list(PAIRING_BUILDERS))
def test_builder_pairing_matches_greedy_loop(name):
    """The reverse-move pairing is the greedy voltage-aware match wherever
    that pairs, and the arcs it leaves over are the semi-edges."""
    build, first_semi_edge = PAIRING_BUILDERS[name]
    built = build()
    pairing = built.pairing
    volts = [w.index for w in built.voltages]
    want = np.array(greedy_pairing(built.digraph.arc_array().tolist(), volts, built.group,
                                   strict=False))
    paired = want >= 0
    assert np.array_equal(pairing[paired], want[paired])
    semi_edges = np.flatnonzero(pairing == np.arange(len(pairing)))
    assert np.array_equal(semi_edges, np.flatnonzero(~paired))
    assert semi_edges[:1].tolist() == ([] if first_semi_edge is None else [first_semi_edge])
    tails, heads = built.digraph.arc_array()[semi_edges].T
    inverses = built.group.inverse_indices()[np.array(volts)[semi_edges]]
    assert (tails == heads).all() and np.array_equal(inverses, np.array(volts)[semi_edges])


@pytest.mark.parametrize("name", ["J(7,3)", "L(C12;2,3)", "Z3xZ3-k2", "D7-k3"])
def test_voltage_graph_from_index_array_equals_element_list(name):
    built = PAIRING_BUILDERS[name][0]()
    group, digraph = built.group, built.digraph
    volts = np.array([w.index for w in built.voltages])
    from_elements = VoltageGraph(group, digraph, list(built.voltages))
    for array in (volts, volts.astype(np.int32), volts.astype(np.uint8)):
        from_indices = VoltageGraph(group, digraph, array)
        assert from_indices.voltages == from_elements.voltages == built.voltages
        assert from_indices.pairing is from_elements.pairing is built.pairing
        assert from_indices.to_json() == from_elements.to_json() == built.to_json()


@pytest.mark.parametrize("group, voltages, message", [
    (Z5, np.array([1]), "need exactly one voltage per arc"),
    (Z5, np.array([1, 4, 1]), "need exactly one voltage per arc"),
    (Z5, np.array([[1, 4]]), "need exactly one voltage per arc"),
    (Z5, np.array([1, 5]), "voltage index 5 out of range 0..4"),
    (Z5, np.array([-1, 1]), "voltage index -1 out of range 0..4"),
    (dihedral_group(7), np.array([14, 1], dtype=np.uint64), "voltage index 14 out of range 0..13"),
    (Z5, np.array([1.0, 4.0]), "is not an integer"),
    (dihedral_group(7), np.array([1.5, 4.0]), "is not an integer"),
], ids=["short", "long", "two-dim", "past-end", "negative", "unsigned-past-end", "float",
        "float-generic"])
def test_voltage_index_array_errors(group, voltages, message):
    from voltlift import Digraph, VoltliftError

    with pytest.raises(VoltliftError) as err:
        VoltageGraph(group, Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [1, 0]), voltages)
    assert str(err.value).endswith(message)


def _rebuilt(vg, symmetries):
    volts = np.array([w.index for w in vg.voltages])
    return VoltageGraph(vg.group, vg.digraph, volts, symmetries=symmetries)


def test_builder_symmetry_passes_its_check_as_read_only_arrays():
    vg = johnson_base(7, 3)
    (sym,) = vg.symmetries
    assert sym.unit == (2,)
    assert sym._fields == ("unit", "permutation", "translators")
    (checked,) = _rebuilt(vg, [sym._replace(permutation=sym.permutation.tolist())]).symmetries
    assert checked.unit == sym.unit
    for got, given in zip(checked[1:], sym[1:]):
        assert np.array_equal(got, given) and not got.flags.writeable


J73_SYMMETRY = johnson_base(7, 3).symmetries[0]


@pytest.mark.parametrize("change, message", [
    ({"permutation": J73_SYMMETRY.permutation[[1, 0, 2, 3, 4]]},
     "symmetry (2,) maps arc 0 ((0, 1, 2) -> (0, 1, 2), voltage (1,)) to (0, 1, 3) -> "
     "(0, 1, 3) with voltage (2,), more often than the base graph has that arc"),
    ({"translators": (J73_SYMMETRY.translators + [1, 0, 0, 0, 0]) % 7},
     "symmetry (2,) maps arc 1 ((0, 1, 2) -> (0, 1, 3), voltage (1,)) to (0, 2, 4) -> "
     "(0, 1, 3) with voltage (0,), more often than the base graph has that arc"),
    # the map g -> 3*g that the unit 3 stands for does not fit the arcs
    ({"unit": (3,)},
     "symmetry (3,) maps arc 0 ((0, 1, 2) -> (0, 1, 2), voltage (1,)) to (0, 2, 4) -> "
     "(0, 2, 4) with voltage (3,), more often than the base graph has that arc"),
    ({"unit": (0,)}, "(0,) is not a unit of Z7"),
    ({"permutation": np.zeros(5, dtype=int)},
     "symmetry (2,): permutation is not a permutation of the 5 vertices"),
    ({"translators": np.full(5, 7)}, "symmetry (2,): need one translator index per vertex"),
], ids=["permutation", "translator", "element-map", "not-a-unit", "not-a-permutation",
        "translator-out-of-range"])
def test_tampered_symmetry_is_refused(change, message):
    from voltlift import VoltliftError

    with pytest.raises(VoltliftError) as err:
        _rebuilt(johnson_base(7, 3), [J73_SYMMETRY._replace(**change)])
    assert str(err.value) == message


def test_directed_base_refuses_a_unit_that_maps_s_to_its_inverses():
    from voltlift import VoltliftError

    vg = token_base_graph(AbelianGroup(7), [1, 2, 4], 3, directed=True)
    assert [sym.unit for sym in vg.symmetries] == [(2,)]
    # -1 maps S to -S: the arcs go to the reverse digraph, whatever pi and t are
    dec = k_set_decomposition(AbelianGroup(7), 3)
    perm, trans = zip(*(dec.locate([-x % 7 for x in rep]) for rep in vg.labels))
    minus = UnitSymmetry((6,), perm, trans)
    with pytest.raises(VoltliftError, match=r"^symmetry \(6,\) maps arc 0 "):
        _rebuilt(vg, [minus])


def test_voltage_graph_names_a_refused_numpy_voltage_as_a_list_would():
    from voltlift import Digraph, VoltliftError

    for voltages in ([1.0, 4.0], np.array([1.0, 4.0])):
        with pytest.raises(VoltliftError) as err:
            VoltageGraph(Z5, Graph(Digraph([0, 1], [(0, 1), (1, 0)]), [1, 0]), voltages)
        assert str(err.value) == "Z5 element coordinate 1.0 is not an integer"


def test_random_voltage_graph_pairing_matches_greedy_loop():
    from voltlift.graphs import match_digon_pairing

    for seed in range(80):
        arcs = random_voltage_graph(random.Random(seed)).digraph.arc_array().tolist()
        assert _outcome(match_digon_pairing, arcs) == _outcome(greedy_pairing, arcs)


@pytest.mark.parametrize("group", [AbelianGroup(4), AbelianGroup(2, 2), dihedral_group(3)],
                         ids=["Z4", "Z2xZ2", "D3"])
def test_pairing_matches_greedy_loop_on_random_arcs(group):
    """Few vertices and many loops, parallel arcs and involutions: keys
    repeat, reverse keys go missing and loop counts come out odd.  Where the
    arcs pair, VoltageGraph takes the voltages exactly when paired arcs carry
    mutually inverse ones, involutions on loop pairs included."""
    from voltlift.graphs import match_digon_pairing

    rng = random.Random(f"pairing/{group!r}")
    els, invert = group.elements(), group_law(group)[1]
    outcomes, accepted = set(), set()
    for _ in range(300):
        n = rng.randint(1, 3)
        half = [(rng.randrange(n), rng.randrange(n), rng.choice(els))
                for _ in range(rng.randint(0, 6))]
        # mostly whole digons, shuffled, with the odd arc dropped or changed
        arcs = [(u, v) for u, v, _ in half] + [(v, u) for u, v, _ in half]
        volts = [w for *_, w in half] + [els[invert(w.index)] for *_, w in half]
        order = list(range(len(arcs)))
        rng.shuffle(order)
        arcs, volts = [arcs[i] for i in order], [volts[i] for i in order]
        if arcs and rng.random() < 0.4:
            del arcs[-1], volts[-1]
        if arcs and rng.random() < 0.3:
            volts[0] = rng.choice(els)
        want = _outcome(greedy_pairing, arcs)
        assert _outcome(match_digon_pairing, arcs) == want
        assert _outcome(match_digon_pairing, np.array(arcs, dtype=np.intp).reshape(-1, 2)) == want
        outcomes.add(isinstance(want, str))
        if not isinstance(want, str):
            inverse = all(volts[j].index == invert(volts[i].index) for i, j in enumerate(want))
            built = _outcome(VoltageGraph, group, Graph(Digraph(range(n), arcs), want), volts)
            assert isinstance(built, VoltageGraph) == inverse
            accepted.add(inverse)
    assert outcomes == accepted == {True, False}


@pytest.mark.parametrize("arcs, message", [
    ([(0, 1), (1, 0), (0, 1)], "arc 2 (0, 1) has no unmatched reverse"),
    ([(0, 0), (1, 1), (0, 0), (0, 0)], "arc 1 (1, 1) has no unmatched reverse"),
    ([(0, 0), (0, 1), (0, 0), (1, 0), (0, 0)], "arc 4 (0, 0) has no unmatched reverse"),
    ([(1, 2)], "arc 0 (1, 2) has no unmatched reverse"),
], ids=["lone-arc", "lone-loop", "odd-loops", "single"])
def test_graph_json_pairing_errors_match_greedy_loop(arcs, message):
    from voltlift import graph_from_json

    data = {"vertices": [0, 1, 2], "arcs": [list(a) for a in arcs], "undirected": True}
    assert _outcome(graph_from_json, data) == f"InvalidPairing: {message}"
    assert _outcome(greedy_pairing, arcs) == f"InvalidPairing: {message}"


def test_plain_pairing_matches_greedy_loop():
    from voltlift import graph_from_json

    z12, z34 = AbelianGroup(12), AbelianGroup(3, 4)
    for graph in [cayley_graph(z12, [1, 11, 6]), cayley_graph(z34, [(1, 0), (2, 0), (0, 2)]),
                  cayley_graph(dihedral_group(5), [1, 4, 5, 7])]:
        assert graph.pairing.tolist() == greedy_pairing(graph.arc_array().tolist())
    arcs = [[0, 1], [1, 0], [0, 1], [1, 2], [1, 0], [2, 1],
            [0, 0], [0, 0], [1, 1], [1, 1], [0, 0], [0, 0]]
    graph = graph_from_json({"vertices": [0, 1, 2], "arcs": arcs, "undirected": True})
    assert graph.pairing.tolist() == greedy_pairing(arcs)
    assert graph.pairing.tolist() == [1, 0, 4, 5, 2, 3, 7, 6, 9, 8, 11, 10]


def _voltage_checks_loop(group, voltages, pairing):
    """VoltageGraph's voltage rule arc by arc: paired arcs carry mutually
    inverse voltages, and a semi-edge not the identity; the message of the
    first failure, or None."""
    voltages, invert = group.indices(voltages).tolist(), group_law(group)[1]
    for i, j in enumerate(pairing):
        if voltages[j] != invert(voltages[i]):
            return f"InvalidPairing: arcs {i} and {j} carry voltages that are not mutually inverse"
        if i == j and voltages[i] == group._identity_index:
            return (f"InvalidPairing: semi-edge {i} carries the identity voltage, "
                    "which would lift to half-loops")
    return None


@pytest.mark.parametrize("group, arcs, voltages, pairing", [
    (Z5, [(0, 1), (1, 0), (0, 1), (1, 0)], [1, 4, 2, 2], [1, 0, 3, 2]),
    (Z5, [(0, 1), (0, 1), (1, 0), (1, 0)], [1, 2, 4, 3], [3, 2, 1, 0]),
    (AbelianGroup(4), [(0, 0), (0, 0)], [2, 2], [1, 0]),
    (AbelianGroup(4), [(0, 0), (0, 0)], [2, 1], [1, 0]),
    (AbelianGroup(4), [(0, 1), (1, 0), (0, 0), (0, 0)], [1, 3, 0, 0], [1, 0, 3, 2]),
    (AbelianGroup(4), [(0, 0), (0, 0), (0, 1), (1, 0)], [2, 2, 1, 1], [1, 0, 3, 2]),
    (AbelianGroup(2, 2), [(1, 1), (1, 1), (0, 1), (1, 0)], [(1, 1), (1, 1), (1, 0), (0, 1)],
     [1, 0, 3, 2]),
    (dihedral_group(4), [(0, 1), (1, 0), (1, 1), (1, 1)], [1, 3, 5, 5], [1, 0, 3, 2]),
    (dihedral_group(4), [(0, 1), (1, 0), (1, 1), (1, 1)], [1, 2, 1, 3], [1, 0, 3, 2]),
    (AbelianGroup(4), [(0, 1), (1, 0), (0, 0)], [1, 3, 2], [1, 0, 2]),
    (AbelianGroup(4), [(0, 1), (1, 0), (0, 0)], [1, 3, 0], [1, 0, 2]),
    (AbelianGroup(4), [(0, 0), (0, 1), (1, 0)], [1, 1, 3], [0, 2, 1]),
    (dihedral_group(4), [(1, 1), (0, 1), (1, 0)], [5, 1, 3], [0, 2, 1]),
], ids=["non-inverse-second-pair", "non-inverse-first", "involution-loop", "loop-non-inverse",
        "identity-loop-after-pair", "involution-loop-first", "Z2xZ2-loop", "D4-reflection-loop",
        "D4-non-inverse", "involution-semi-edge", "identity-semi-edge", "semi-edge-non-involution",
        "D4-reflection-semi-edge"])
def test_voltage_graph_checks_match_loop(group, arcs, voltages, pairing):
    """Refused with the loop's first message, or built when it has none."""
    graph = Graph(Digraph([0, 1], arcs), pairing)
    got = _outcome(VoltageGraph, group, graph, voltages)
    assert (None if isinstance(got, VoltageGraph) else got) == \
        _voltage_checks_loop(group, voltages, pairing)
