"""Orbit decompositions, necklaces, base-graph builders, isomorphism checks."""

import math
from itertools import combinations

import pytest

from voltlift import (
    AbelianGroup,
    GroupAlgebraElement,
    InvalidGenerators,
    NotCoprime,
    NotFreeAction,
    cayley_graph,
    circulant_linegraph_base,
    complete_graph,
    johnson_base,
    k_set_decomposition,
    line_graph,
    token_base_graph,
    token_graph,
    verify_natural_isomorphism,
)
from voltlift.voltage import VoltageGraph


def mono(group, key, coeff=1):
    return GroupAlgebraElement.from_element(group.element(key), coeff)


def test_z5_two_set_decomposition():
    dec = k_set_decomposition(AbelianGroup(5), 2)
    assert dec.representatives == ((0, 1), (0, 2))


def test_z3z3_two_set_decomposition():
    dec = k_set_decomposition(AbelianGroup(3, 3), 2)
    # lex minima: {00,01},{00,10},{00,11},{00,12}; the published table picks
    # {00,21} for the last orbit, which the compatibility mode reproduces
    assert dec.representatives == ((0, 1), (0, 3), (0, 4), (0, 5))
    compat = k_set_decomposition(
        AbelianGroup(3, 3), 2, representatives=[(0, 3), (0, 1), (0, 4), (0, 7)]
    )
    assert compat.representatives == ((0, 3), (0, 1), (0, 4), (0, 7))


def test_z4_not_free():
    with pytest.raises(NotFreeAction) as err:
        k_set_decomposition(AbelianGroup(4), 2)
    assert err.value.subset == (0, 2)


def test_orbits_partition_everything():
    group = AbelianGroup(7)
    dec = k_set_decomposition(group, 3)
    assert dec.num_orbits == math.comb(7, 3) // 7
    seen = {}
    for subset in combinations(range(7), 3):
        rep_idx, g = dec.locate(subset)
        rebuilt = tuple(sorted(
            group.index_of(group.elements()[i] * g)
            for i in dec.representatives[rep_idx]
        ))
        assert rebuilt == subset
        seen.setdefault(rep_idx, set()).add(subset)
    assert all(len(v) == 7 for v in seen.values())


def test_custom_representatives_relocate_voltages():
    group = AbelianGroup(3, 3)
    default = k_set_decomposition(group, 2)
    reordered = k_set_decomposition(group, 2, representatives=[(0, 3), (0, 1), (0, 4), (0, 7)])
    assert reordered.representatives == ((0, 3), (0, 1), (0, 4), (0, 7))
    for subset in combinations(range(9), 2):
        rep_idx, g = reordered.locate(subset)
        rebuilt = tuple(sorted(
            group.index_of(group.elements()[i] * g)
            for i in reordered.representatives[rep_idx]
        ))
        assert rebuilt == subset
    assert default.num_orbits == reordered.num_orbits


def necklaces(n, k):
    """Representatives of the rotation classes of k-subsets of Z_n."""
    return list(k_set_decomposition(AbelianGroup(n), k).representatives)


def test_necklaces_7_3():
    reps = necklaces(7, 3)
    assert reps == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 4)]


def test_necklaces_small_counts():
    assert necklaces(5, 2) == [(0, 1), (0, 2)]
    assert necklaces(7, 2) == [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(NotFreeAction):
        necklaces(6, 2)


def test_necklaces_are_aperiodic():
    for n, k in [(7, 3), (8, 3), (9, 4), (11, 3)]:
        for rep in necklaces(n, k):
            stabilizer = [
                t for t in range(n)
                if tuple(sorted((x + t) % n for x in rep)) == rep
            ]
            assert stabilizer == [0]


def test_necklaces_agree_with_decomposition():
    # canonical-rotation filtering: keep each subset that is the
    # lexicographic minimum of its rotations
    for n, k in [(5, 2), (7, 2), (7, 3), (8, 3)]:
        minima = [
            subset for subset in combinations(range(n), k)
            if subset == min(tuple(sorted((x + t) % n for x in subset)) for t in range(n))
        ]
        assert necklaces(n, k) == minima


def test_johnson_base_sizes_and_row_sums():
    for n, k in [(5, 2), (7, 2), (7, 3), (9, 2), (9, 4)]:
        vg = johnson_base(n, k)
        assert vg.n == math.comb(n, k) // n
        b = vg.base_matrix()
        from voltlift import Character

        trivial = Character(AbelianGroup(n), 0)
        m = b.evaluate(trivial).real
        assert m.sum(axis=1) == pytest.approx([k * (n - k)] * vg.n)


def test_johnson_base_rejects_gcd():
    with pytest.raises(NotCoprime):
        johnson_base(6, 2)


def test_johnson_base_even_n_hits_semi_edge_exclusion():
    # the involution generator n/2 yields a self-reverse loop arc, which the
    # undirected machinery rejects rather than silently inventing semi-edges
    from voltlift import InvalidPairing

    with pytest.raises(InvalidPairing):
        johnson_base(8, 3)


def test_f1_base_is_one_vertex_cayley():
    group = AbelianGroup(5)
    vg = token_base_graph(group, [1, 2, 3, 4], 1)
    assert vg.n == 1
    entry = vg.base_matrix().entries[0][0]
    assert entry == sum(
        (mono(group, s) for s in [2, 3, 4]), mono(group, 1)
    )


def test_circulant_linegraph_base_matrix_m12():
    vg = circulant_linegraph_base(12, (2, 3))
    group = AbelianGroup(12)
    b = vg.base_matrix()
    one = GroupAlgebraElement.one(group)
    assert b.entries[0][0] == mono(group, 2) + mono(group, -2)
    assert b.entries[1][1] == mono(group, 3) + mono(group, -3)
    assert b.entries[0][1] == one + mono(group, -1) + mono(group, 2) + mono(group, -3)
    assert b.entries[1][0] == one + mono(group, 1) + mono(group, -2) + mono(group, 3)


def test_circulant_linegraph_base_m7_matches_johnson_base():
    lg = circulant_linegraph_base(7, (1, 2, 3)).base_matrix()
    jb = johnson_base(7, 2).base_matrix()
    assert lg.entries == jb.entries


def test_circulant_linegraph_base_validation():
    with pytest.raises(InvalidGenerators):
        circulant_linegraph_base(12, (3, 2))
    with pytest.raises(InvalidGenerators):
        circulant_linegraph_base(6, (1, 3))
    with pytest.raises(InvalidGenerators):
        circulant_linegraph_base(12, (0, 2))


def test_natural_isomorphism_johnson():
    vg = johnson_base(5, 2)
    target = token_graph(complete_graph(5), 2)
    result = verify_natural_isomorphism(vg, target)
    assert result.ok
    mapping = dict(result.vertex_map)
    assert mapping[((0, 1), (3,))] == (3, 4)
    assert len(result.vertex_map) == 10


def test_natural_isomorphism_toroidal_mesh():
    group = AbelianGroup(3, 3)
    gens = [group.element(c) for c in [(1, 0), (2, 0), (0, 1), (0, 2)]]
    vg = token_base_graph(group, gens, 2)
    target = token_graph(cayley_graph(group, gens), 2)
    assert verify_natural_isomorphism(vg, target).ok


def test_natural_isomorphism_circulant_linegraph():
    m, a = 12, (2, 3)
    vg = circulant_linegraph_base(m, a)
    gens = sorted({x % m for x in a} | {(-x) % m for x in a})
    target = line_graph(cayley_graph(AbelianGroup(m), gens))
    assert verify_natural_isomorphism(vg, target).ok


def test_corrupted_voltage_fails_isomorphism():
    vg = johnson_base(5, 2)
    bad_voltages = list(vg.voltages)
    # swap a digon pair's voltages, keeping the voltage graph valid
    pair = next(
        i for i in range(len(bad_voltages))
        if vg.digraph.arcs[i][0] != vg.digraph.arcs[i][1]
        and bad_voltages[i].key != (0,)
    )
    j = vg.pairing[pair]
    bad_voltages[pair], bad_voltages[j] = bad_voltages[j], bad_voltages[pair]
    corrupted = VoltageGraph(vg.group, vg.digraph, bad_voltages, vg.pairing)
    result = verify_natural_isomorphism(corrupted, token_graph(complete_graph(5), 2))
    assert not result.ok
    assert "multiplicity" in result.detail or "maps to" in result.detail


def test_directed_token_base_matches_c5_example():
    group = AbelianGroup(5)
    vg = token_base_graph(group, [1], 2, directed=True)
    b = vg.base_matrix()
    assert b.entries[0][0].is_zero
    assert b.entries[0][1] == GroupAlgebraElement.one(group)
    assert b.entries[1][0] == mono(group, 1)
    assert b.entries[1][1] == mono(group, -2)
