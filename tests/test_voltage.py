"""Voltage graphs: lifts, base matrices, character evaluation, lifting."""

import cmath
import json
import math
import random
from itertools import combinations

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    Character,
    GenericGroup,
    Graph,
    InvalidPairing,
    LengthMismatch,
    Representation,
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

from helpers import entry, random_voltage_graph

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


def test_c5_base_lifts_to_token_digraph():
    lifted = c5_digraph_base().lift()
    target = token_digraph(directed_cycle(5), 2)
    # map (rep, g) -> rep + g and compare arc multisets
    image = {}
    for i, (label, key) in enumerate(lifted.labels):
        image[i] = tuple(sorted((x + key[0]) % 5 for x in label))
    mapped = sorted((image[t], image[h]) for t, h in lifted.arcs)
    direct = sorted((target.labels[t], target.labels[h]) for t, h in target.arcs)
    assert mapped == direct


def _dihedral(n):
    """D_n as a GenericGroup; index i < n is r^i, index n + i is r^i s."""
    def mul(x, y):  # r^a s^p * r^b s^q = r^(a + (-1)^p b) s^(p + q)
        p, a = divmod(x, n)
        q, b = divmod(y, n)
        return (a + (-b if p else b)) % n + n * ((p + q) % 2)

    return GenericGroup([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)],
                        name=f"D{n}")


def _dihedral_irreps(group, n):
    """Trivial, sign and the (n-1)/2 two-dimensional irreps of D_n, n odd."""
    els = group.elements()
    swap = np.array([[0, 1], [1, 0]])
    irreps = [
        Representation(group, {g: np.eye(1) for g in els}),
        Representation(group, {g: np.array([[(-1) ** (g.key // n)]]) for g in els}),
    ]
    for h in range(1, (n - 1) // 2 + 1):
        mats = {}
        for g in els:
            w = cmath.exp(2j * math.pi * h * (g.key % n) / n)
            rot = np.diag([w, w.conjugate()])
            mats[g] = rot @ swap if g.key // n else rot
        irreps.append(Representation(group, mats))
    return irreps


@pytest.mark.parametrize(
    "k, gens",
    [(5, [1, 6]), (5, [1, 6, 2, 5]), (3, [1, 6, 2, 5])],
    ids=["k5-r1", "k5-r1-r2", "k3-r1-r2"],
)
def test_dihedral_token_base_matches_oracles(k, gens):
    group = _dihedral(7)
    irreps = _dihedral_irreps(group, 7)
    assert all(check_representation(group, rho).passed for rho in irreps)
    vg = token_base_graph(group, gens, k)
    target = token_graph(cayley_graph(group, gens), k)
    cmp = multiset_equal(rep_spectrum(vg, irreps), direct_spectrum(target), 1e-8)
    assert cmp.equal, cmp.max_distance
    assert verify_natural_isomorphism(vg, target).ok


def test_dihedral_custom_representatives_translate_on_the_left():
    group = _dihedral(7)
    els = group.elements()
    default = k_set_decomposition(group, 3).representatives
    # move every orbit's representative by a different non-identity element
    custom = [
        tuple(sorted(group.index_of(els[(3 * i + 8) % 14] * els[j]) for j in rep))
        for i, rep in enumerate(default)
    ]
    dec = k_set_decomposition(group, 3, representatives=custom)
    for subset in combinations(range(14), 3):
        i, g = dec.locate(subset)
        assert tuple(sorted(group.index_of(g * els[j]) for j in custom[i])) == subset
    gens = [1, 6, 2, 5]
    vg = token_base_graph(group, gens, 3, representatives=custom)
    assert verify_natural_isomorphism(vg, token_graph(cayley_graph(group, gens), 3)).ok


def _elementwise_lift(vg):
    """(labels, arcs, pairing) of the lift, one group product per lift arc."""
    group = vg.group
    els = group.elements()
    m = len(els)
    labels = [(label, el.key) for label in vg.digraph.labels for el in els]
    arcs = []
    for (u, v), w in zip(vg.digraph.arcs, vg.voltages):
        for gi, g in enumerate(els):
            arcs.append((u * m + gi, v * m + group.index_of(g * w)))
    if not vg.undirected:
        return labels, arcs, None
    pairing = []
    for a, w in enumerate(vg.voltages):
        for g in els:
            pairing.append(vg.pairing[a] * m + group.index_of(g * w))
    return labels, arcs, pairing


@pytest.mark.parametrize(
    "make",
    [
        lambda: token_base_graph(AbelianGroup(3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)], 2),
        lambda: circulant_linegraph_base(13, [1, 3, 4]),
        lambda: token_base_graph(AbelianGroup(7), [(3,)], 3, directed=True),
        lambda: token_base_graph(_dihedral(7), [1, 6, 3, 4], 3),
    ],
    ids=["z3xz3-k2", "circulant-linegraph", "directed-token", "d7-generic"],
)
def test_lift_matches_elementwise_reference(make):
    vg = make()
    labels, arcs, pairing = _elementwise_lift(vg)
    lifted = vg.lift()
    digraph = lifted.digraph if vg.undirected else lifted
    assert list(lifted.labels) == labels
    assert list(digraph.arcs) == arcs
    assert (list(lifted.pairing) if vg.undirected else None) == pairing


def test_trivial_group_lift_is_base():
    group = AbelianGroup(1)
    vg = VoltageGraph.directed_from_arcs(group, ["a", "b"], [(0, 1, 0), (1, 0, 0)])
    lifted = vg.lift()
    assert lifted.n == 2
    assert sorted(lifted.arcs) == [(0, 1), (1, 0)]


def test_lift_counts():
    rng = random.Random(11)
    for _ in range(10):
        vg = random_voltage_graph(rng)
        lifted = vg.lift()
        digraph = lifted.digraph if isinstance(lifted, Graph) else lifted
        assert digraph.n == vg.n * vg.group.size
        assert digraph.arc_count == vg.digraph.arc_count * vg.group.size


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
    gens = [group.element(c) for c in [(1, 0), (2, 0), (0, 1), (0, 2)]]
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
        els = vg.group.elements()
        inverse = [g.inverse().index for g in els]
        for i in range(vg.n):
            for j in range(vg.n):
                assert b.entries[i][j] == {inverse[g]: c for g, c in b.entries[j][i].items()}


def test_evaluate_matrix_trivial_character():
    b = johnson_base(5, 2).base_matrix()
    m = b.evaluate(Character(Z5, 0))
    assert np.allclose(m, [[2, 4], [4, 2]])


def test_evaluate_matrix_hermitian():
    b = johnson_base(7, 2).base_matrix()
    for chi in enumerate_characters(AbelianGroup(7)):
        m = b.evaluate(chi)
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_c5_matrix_at_unity():
    b = c5_digraph_base().base_matrix()
    m = b.evaluate(Character(Z5, 0))
    assert np.allclose(m, [[0, 1], [1, 1]])


def test_apply_representation_matches_character():
    b = johnson_base(5, 2).base_matrix()
    for chi in enumerate_characters(Z5):
        rep = Representation.from_character(chi)
        assert np.allclose(b.apply_representation(rep), b.evaluate(chi))


def test_apply_representation_block_shape():
    group = AbelianGroup(4)
    # direct sum of two characters is unitary (reducible, which is fine here)
    chars = enumerate_characters(group)
    rep = Representation(
        group,
        {
            g: np.diag([chars[1](g), chars[3](g)])
            for g in group.elements()
        },
    )
    vg = VoltageGraph.directed_from_arcs(
        group, ["a", "b", "c"], [(0, 1, 1), (1, 2, 2), (2, 0, 3)]
    )
    block = vg.base_matrix().apply_representation(rep)
    assert block.shape == (6, 6)


def test_lift_eigenvector_residuals():
    vg = johnson_base(5, 2)
    lift_adj = vg.lift().adjacency_matrix()
    chi0 = Character(Z5, 0)
    m = vg.character_matrix(chi0)
    vals, vecs = np.linalg.eigh(m)
    top = vecs[:, -1]
    assert vals[-1] == pytest.approx(6.0)
    phi = lift_eigenvector(vg, top, chi0)
    # constant on fibers for the trivial character
    assert np.allclose(phi[:5], phi[0])
    assert np.abs(lift_adj @ phi - 6.0 * phi).max() < 1e-8


def test_lift_eigenvector_formula_and_errors():
    vg = johnson_base(5, 2)
    chi = Character(Z5, 1)
    phi = lift_eigenvector(vg, [1.0, 0.0], chi)
    w = np.exp(2j * np.pi / 5)
    assert phi[3] == pytest.approx(w**3)
    assert np.allclose(lift_eigenvector(vg, [0.0, 0.0], chi), 0)
    with pytest.raises(LengthMismatch):
        lift_eigenvector(vg, [1.0, 2.0, 3.0], chi)


def test_pairing_rejects_non_inverse_voltages():
    from voltlift import Digraph

    d = Digraph([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(InvalidPairing):
        VoltageGraph(AbelianGroup(5), d, [Z5.element(1), Z5.element(1)], [1, 0])
    vg = VoltageGraph(AbelianGroup(5), d, [Z5.element(1), Z5.element(4)], [1, 0])
    assert vg.undirected


def test_involution_loop_rejected():
    group = AbelianGroup(4)
    with pytest.raises(InvalidPairing):
        VoltageGraph.undirected_from_edges(group, [0], [(0, 0, 2)])
    with pytest.raises(InvalidPairing):
        VoltageGraph.undirected_from_edges(group, [0], [(0, 0, 0)])
    # an involution voltage on a plain edge is an ordinary digon
    vg = VoltageGraph.undirected_from_edges(group, [0, 1], [(0, 1, 2)])
    assert vg.lift().edge_count == 4


def test_voltage_json_round_trip():
    for vg in (johnson_base(7, 2), c5_digraph_base()):
        data = json.loads(json.dumps(vg.to_json()))
        again = voltage_graph_from_json(data)
        assert again.group == vg.group
        assert again.digraph.arcs == vg.digraph.arcs
        assert again.voltages == vg.voltages
        assert again.pairing == vg.pairing


def test_base_matrix_render():
    text = str(johnson_base(5, 2).base_matrix())
    assert text.splitlines()[0].startswith("1/z + z")
