"""Orbit decompositions, necklaces, base-graph builders, isomorphism checks."""

import json
import math
import os
import subprocess
import sys
import itertools
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    DimensionTooLarge,
    Digraph,
    Graph,
    InvalidGenerators,
    KSetDecomposition,
    UniversalCoefficients,
    NotCoprime,
    NotFreeAction,
    cayley_graph,
    circulant_linegraph_base,
    complete_graph,
    direct_spectrum,
    johnson_base,
    johnson_spectrum,
    k_set_decomposition,
    lift_spectrum,
    line_graph,
    multiset_equal,
    token_base_graph,
    token_graph,
    verify_natural_isomorphism,
    VoltliftError,
)
from voltlift.graphs import _validate_connection_set
from voltlift.orbits import MAX_SUBSETS
from voltlift.tokens import _combination_ranker
from voltlift.voltage import VoltageGraph

from helpers import dihedral_group, entry, greedy_pairing, group_law


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


def _first_small_orbit(group, k):
    """The lowest-ranked orbit minimum whose orbit is smaller than the
    group, by enumeration."""
    multiply = group_law(group)[0]
    for subset in combinations(range(group.size), k):
        orbit = {tuple(sorted(multiply(g, i) for i in subset)) for g in range(group.size)}
        if min(orbit) == subset and len(orbit) < group.size:
            return subset


@pytest.mark.parametrize("group, k", [
    (AbelianGroup(4), 2), (AbelianGroup(6), 2), (AbelianGroup(6), 3),
    (AbelianGroup(2, 2, 2), 2), (AbelianGroup(8), 4), (AbelianGroup(2, 4), 2),
    (dihedral_group(5), 2), (dihedral_group(5), 4), (dihedral_group(7), 2),
    (dihedral_group(7), 4), (dihedral_group(9), 2), (dihedral_group(9), 3),
    (dihedral_group(9), 4),
], ids=lambda x: x.name if hasattr(x, "name") else f"k{x}")
def test_not_free_reports_the_lowest_ranked_small_orbit(group, k):
    with pytest.raises(NotFreeAction) as err:
        k_set_decomposition(group, k)
    assert err.value.subset == _first_small_orbit(group, k)


def test_decomposition_family_runs_along_the_sorted_ranks():
    group = AbelianGroup(7)
    reps = [(0, 2, 4), (1, 2, 3)]
    dec = KSetDecomposition(group, 3, reps)
    subsets = list(combinations(range(7), 3))
    assert dec.family.tolist() == sorted(dec.family.tolist())
    assert len(dec.family) == dec.num_orbits * 7
    for r, i, g in zip(dec.family.tolist(), dec.orbit.tolist(), dec.translator.tolist()):
        assert subsets[r] == tuple(sorted((g + x) % 7 for x in reps[i]))
        assert dec.locate(subsets[r]) == (i, g)
    # outside the family
    assert dec._lookup(np.array([0, 1, 3]))[0] == -1
    with pytest.raises(VoltliftError, match=r"^\(1, 3, 5\) repeats the orbit of "
                                            r"representative \(0, 2, 4\)$"):
        KSetDecomposition(group, 3, reps + [(1, 3, 5)])
    with pytest.raises(NotFreeAction) as err:
        KSetDecomposition(AbelianGroup(6), 2, [(0, 1), (1, 4), (0, 2)])
    assert err.value.subset == (1, 4)


def test_decompositions_past_the_subset_cap_are_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(DimensionTooLarge) as err:
        k_set_decomposition(AbelianGroup(40), 20)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == ("C(40, 20) = 137846528820 20-subsets exceed the cap of "
                              f"{MAX_SUBSETS} on a k-subset decomposition")
    assert math.comb(23, 7) <= MAX_SUBSETS < math.comb(40, 20)


def test_decompositions_past_int64_ranks_are_refused():
    with pytest.raises(DimensionTooLarge) as err:
        k_set_decomposition(AbelianGroup(70), 35)
    assert str(err.value) == ("C(70, 35) = 112186277816662845432 35-subsets: "
                              "their ranks do not fit int64")
    # C(66, 33) < 2**63 <= C(67, 33)
    with pytest.raises(DimensionTooLarge):
        _combination_ranker(67, 33)
    rank = _combination_ranker(66, 33)
    assert rank(np.arange(33)) == 0
    assert rank(np.arange(33, 66)) == math.comb(66, 33) - 1


def test_builders_make_no_element_per_group_element():
    """Voltages and unit keys are read from index arrays: a base over
    Z_100003 makes a dozen elements, not 100,003, and so do its printed
    base matrix and a character matrix.  The group's tuple of all elements
    is made on first use only."""
    vg = circulant_linegraph_base(100003, [1, 2, 5])
    assert str(vg.base_matrix()) and vg.character_matrix(7).shape == (3, 3)
    assert "_elements" not in vg.group.__dict__
    vg = token_base_graph(AbelianGroup(7, 7), Z7Z7_UNITS, 2)
    assert vg.symmetries and "_elements" not in vg.group.__dict__


def test_lift_and_certificate_leave_numpy_ma_unimported():
    # a fresh interpreter: numpy.ma costs ~18 ms and ~1.2 MB on first import
    code = (
        "import sys\n"
        "import voltlift as vl\n"
        "vg = vl.johnson_base(7, 3)\n"
        "target = vl.token_graph(vl.cayley_graph(vl.AbelianGroup(7), range(1, 7)), 3)\n"
        "assert vl.verify_natural_isomorphism(vg, target).ok\n"
        "vl.lift_spectrum(vg)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_orbits_partition_everything():
    group = AbelianGroup(7)
    dec = k_set_decomposition(group, 3)
    assert dec.num_orbits == math.comb(7, 3) // 7
    seen = {}
    for subset in combinations(range(7), 3):
        rep_idx, g = dec.locate(subset)
        rebuilt = tuple(sorted((i + g) % 7 for i in dec.representatives[rep_idx]))
        assert rebuilt == subset
        seen.setdefault(rep_idx, set()).add(subset)
    assert all(len(v) == 7 for v in seen.values())


def test_custom_representatives_relocate_voltages():
    group = AbelianGroup(3, 3)
    default = k_set_decomposition(group, 2)
    reordered = k_set_decomposition(group, 2, representatives=[(0, 3), (0, 1), (0, 4), (0, 7)])
    assert reordered.representatives == ((0, 3), (0, 1), (0, 4), (0, 7))
    multiply = group_law(group)[0]
    for subset in combinations(range(9), 2):
        rep_idx, g = reordered.locate(subset)
        rebuilt = tuple(sorted(multiply(i, g) for i in reordered.representatives[rep_idx]))
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
        m = b.evaluate((0,)).real
        assert m.sum(axis=1) == pytest.approx([k * (n - k)] * vg.n)


@pytest.mark.parametrize("n, k", [
    (n, k) for n in range(2, 14) for k in range(1, n // 2 + 1) if math.gcd(n, k) == 1
], ids=lambda x: str(x))
def test_johnson_base_lifts_to_the_closed_form(n, k):
    """Exactly the multiplicities of johnson_spectrum(n, k), values to 1e-8."""
    got = lift_spectrum(johnson_base(n, k)).pairs
    expected = johnson_spectrum(n, k).pairs
    got, expected = (sorted(pairs, key=lambda p: p[0].real) for pairs in (got, expected))
    assert [c for _, c in got] == [c for _, c in expected]
    assert max(abs(a - b) for (a, _), (b, _) in zip(got, expected)) <= 1e-8


# the base the two-pass decomposition (lexicographic orbits, then re-based on
# the supplied representatives) built for Z3xZ3, S = {+-(1,0), +-(0,1)}, k = 2
# and the representatives {00,10}, {00,01}, {00,11}, {00,21}: arcs as (tail,
# head, voltage, paired_with), and the printed base matrix
Z3Z3_REBASED_ARCS = [
    (0, 0, (1, 0), 3), (0, 3, (1, 0), 27), (0, 2, (0, 2), 14), (0, 0, (2, 0), 0),
    (0, 2, (0, 0), 19), (0, 3, (1, 2), 22), (1, 3, (1, 0), 21), (1, 2, (2, 0), 12),
    (1, 1, (0, 1), 11), (1, 2, (0, 0), 17), (1, 3, (0, 0), 24), (1, 1, (0, 2), 8),
    (2, 1, (1, 0), 7), (2, 3, (2, 0), 20), (2, 0, (0, 1), 2), (2, 3, (1, 1), 26),
    (2, 3, (0, 0), 25), (2, 1, (0, 0), 9), (2, 3, (1, 2), 23), (2, 0, (0, 0), 4),
    (3, 2, (1, 0), 13), (3, 1, (2, 0), 6), (3, 0, (2, 1), 5), (3, 2, (2, 1), 18),
    (3, 1, (0, 0), 10), (3, 2, (0, 0), 16), (3, 2, (2, 2), 15), (3, 0, (2, 0), 1),
]
Z3Z3_REBASED_MATRIX = (
    "1/z1 + z1                 0                         1 + 1/z2                  z1 + z1/z2\n"
    "0                         1/z2 + z2                 1 + 1/z1                  1 + z1\n"
    "1 + z2                    1 + z1                    0                         "
    "1 + 1/z1 + z1/z2 + z1*z2\n"
    "1/z1 + z2/z1              1 + 1/z1                  1 + z1 + 1/z1/z2 + z2/z1  0"
)


def test_rebased_z3z3_base_is_unchanged():
    group = AbelianGroup(3, 3)
    vg = token_base_graph(group, Z3Z3_GENS, 2, representatives=Z3Z3_TABLE_REPS)
    assert vg.to_json() == {
        "group": {"orders": [3, 3]},
        "vertices": [[0, 3], [0, 1], [0, 4], [0, 7]],
        "arcs": [{"tail": t, "head": h, "voltage": list(w), "paired_with": p}
                 for t, h, w, p in Z3Z3_REBASED_ARCS],
        "undirected": True,
    }
    assert str(vg.base_matrix()) == Z3Z3_REBASED_MATRIX


def test_custom_representatives_are_checked_in_the_one_pass():
    group = AbelianGroup(3, 3)
    cases = [
        ([(0, 3), (0, 1), (0, 4)], "expected 4 representatives, got 3"),
        ([], "expected 4 representatives, got 0"),
        ([(0, 3), (0, 6), (0, 4), (0, 7)], "(0, 6) repeats the orbit of representative (0, 3)"),
        # a fifth subset must repeat one of the four orbits
        (Z3Z3_TABLE_REPS + [(0, 2)], "(0, 2) repeats the orbit of representative (0, 1)"),
        ([(0, 0), (0, 1), (0, 4), (0, 7)], "(0, 0) is not a valid 2-subset of the group"),
        ([(0, 1, 2), (0, 1), (0, 4), (0, 7)],
         "(0, 1, 2) is not a valid 2-subset of the group"),
        ([(0, 9), (0, 1), (0, 4), (0, 7)], "(0, 9) is not a valid 2-subset of the group"),
        # a flat list names elements, not subsets
        ([0, 1, 4, 7], "0 is not a valid 2-subset of the group"),
    ]
    for reps, message in cases:
        with pytest.raises(VoltliftError) as err:
            k_set_decomposition(group, 2, reps)
        assert str(err.value) == message
    # the supplied subsets are orbits 0..3, in the order given
    dec = k_set_decomposition(group, 2, [(4, 8), (2, 5), (1, 3), (6, 7)])
    assert dec.representatives == ((4, 8), (2, 5), (1, 3), (6, 7))
    assert [dec.locate(r) for r in dec.representatives] == [(i, 0) for i in range(4)]


def test_johnson_base_rejects_gcd():
    with pytest.raises(NotCoprime):
        johnson_base(6, 2)


def test_johnson_base_even_n_builds_semi_edges():
    """The involution generator n/2 moves a token of a representative onto a
    translate of it by n/2: a loop that is its own reverse move, a semi-edge
    counted once as an edge and as an arc of the base matrix."""
    vg = johnson_base(8, 3)
    pairing = vg.pairing
    semi_edges = np.flatnonzero(pairing == np.arange(len(pairing)))
    assert semi_edges.tolist() == [37, 47, 82]
    assert {vg.voltages[i].key for i in semi_edges} == {(4,)}
    assert (vg.digraph.arc_count, vg.digraph.edge_count) == (105, 54)
    assert multiset_equal(lift_spectrum(vg), johnson_spectrum(8, 3), 1e-8).equal
    for n, k in [(8, 3), (10, 3), (12, 5)]:
        assert verify_natural_isomorphism(johnson_base(n, k), token_graph(complete_graph(n), k)).ok


@pytest.mark.parametrize("n, k", [(8, 3), (10, 3)])
@pytest.mark.parametrize("coeffs", [UniversalCoefficients.laplacian(),
                                    UniversalCoefficients.signless_laplacian()],
                         ids=["laplacian", "signless"])
def test_semi_edge_johnson_base_matches_the_direct_oracle(n, k, coeffs):
    lifted = lift_spectrum(johnson_base(n, k), coeffs)
    direct = direct_spectrum(token_graph(complete_graph(n), k), coeffs)
    assert multiset_equal(lifted, direct, 1e-8).equal


def test_f1_base_is_one_vertex_cayley():
    group = AbelianGroup(5)
    vg = token_base_graph(group, [1, 2, 3, 4], 1)
    assert vg.n == 1
    assert vg.base_matrix().entries[0][0] == entry(group, 1, 2, 3, 4)


def test_circulant_linegraph_base_matrix_m12():
    vg = circulant_linegraph_base(12, (2, 3))
    group = AbelianGroup(12)
    b = vg.base_matrix()
    assert b.entries[0][0] == entry(group, 2, -2)
    assert b.entries[1][1] == entry(group, 3, -3)
    assert b.entries[0][1] == entry(group, 0, -1, 2, -3)
    assert b.entries[1][0] == entry(group, 0, 1, -2, 3)


def test_circulant_linegraph_base_m7_matches_johnson_base():
    lg = circulant_linegraph_base(7, (1, 2, 3)).base_matrix()
    jb = johnson_base(7, 2).base_matrix()
    assert lg.entries == jb.entries


Z7Z7_UNITS = [(1, 2), (2, 4), (4, 1), (6, 5), (5, 3), (3, 6)]


@pytest.mark.parametrize("build, orders, connection", [
    (lambda: johnson_base(17, 5), (17,), range(1, 17)),
    (lambda: johnson_base(15, 4), (15,), range(1, 15)),
    (lambda: circulant_linegraph_base(13, [1, 5]), (13,), [1, 5, 8, 12]),
    (lambda: circulant_linegraph_base(12, [2, 3]), (12,), [2, 3, 9, 10]),
    (lambda: token_base_graph(AbelianGroup(13), [1, 3, 9], 4, directed=True),
     (13,), [1, 3, 9]),
    (lambda: token_base_graph(AbelianGroup(10), [1, 3], 3, directed=True), (10,), [1, 3]),
    (lambda: token_base_graph(AbelianGroup(7, 7), Z7Z7_UNITS, 2), (7, 7), Z7Z7_UNITS),
    (lambda: token_base_graph(AbelianGroup(3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)], 2,
                              representatives=[(0, 3), (0, 1), (0, 4), (0, 7)]),
     (3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)]),
], ids=["J(17,5)", "J(15,4)", "L(C13;1,5)", "L(C12;2,3)", "Z13-directed", "Z10-directed",
        "Z7xZ7", "Z3xZ3-custom-reps"])
def test_builders_record_units_that_with_minus_one_generate_the_stabiliser(
        build, orders, connection):
    """The recorded units fix S, with -1 they generate every diagonal unit
    that fixes S, there are at most log2 of those, and each one's base
    permutation and translators send rep_i to u*rep_i, by enumeration."""
    vg = build()
    elements = list(itertools.product(*(range(n) for n in orders)))

    def scale(u, x):
        return tuple(a * b % n for a, b, n in zip(u, x, orders))

    s = {scale(g if isinstance(g, tuple) else (g,), (1,) * len(orders)) for g in connection}
    stabiliser = {u for u in elements if all(math.gcd(a, n) == 1 for a, n in zip(u, orders))
                  and {scale(u, x) for x in s} == s}
    recorded = [sym.unit for sym in vg.symmetries]
    assert set(recorded) <= stabiliser
    assert len(recorded) <= math.ceil(math.log2(len(stabiliser)))
    generated = {(1,) * len(orders), tuple(n - 1 for n in orders)}
    while True:
        grown = generated | {scale(u, v) for u in recorded for v in generated}
        if grown == generated:
            break
        generated = grown
    assert stabiliser <= {tuple(x % n for x, n in zip(u, orders)) for u in generated}
    index = {x: i for i, x in enumerate(elements)}
    for sym in vg.symmetries:
        for i, rep in enumerate(vg.labels):
            image = {scale(sym.unit, elements[x]) for x in rep}
            t = elements[sym.translators[i]]
            rep_pi = vg.labels[sym.permutation[i]]
            moved = {index[tuple((a + b) % n for a, b, n in zip(t, elements[x], orders))]
                     for x in rep_pi}
            assert {index[x] for x in image} == moved


def test_builders_record_no_units_over_a_generic_group_or_a_trivial_stabiliser():
    assert token_base_graph(dihedral_group(7), [1, 6], 3).symmetries == ()
    # 3 and 5 send {1, 2, 6, 7} to {2, 3, 5, 6}, and -1 = 7 is never recorded
    assert token_base_graph(AbelianGroup(8), [1, 7, 2, 6], 3).symmetries == ()
    # the only diagonal unit of Z2^3 is the identity
    assert token_base_graph(AbelianGroup(2, 2, 2), [(1, 0, 0), (0, 1, 0)], 1,
                            directed=True).symmetries == ()


@pytest.mark.parametrize("build", [lambda: johnson_base(13, 4),
                                   lambda: cayley_graph(AbelianGroup(13), range(1, 13))],
                         ids=["J(13,4)", "Cay(Z13,1..12)"])
def test_builders_hand_over_their_pairing_without_a_per_entry_check(build, monkeypatch):
    """The builders' pairing array is taken on its dtype alone: johnson_base(13, 4)
    made 1,998 _integer calls, 1,980 of them one per arc of its pairing."""
    from voltlift import algebra, graphs, orbits, spectra, tokens

    calls = []
    original = graphs._integer

    def counted(value, what):
        calls.append(what)
        return original(value, what)

    for module in (algebra, graphs, orbits, spectra, tokens):
        monkeypatch.setattr(module, "_integer", counted)
    built = build()
    assert getattr(built, "digraph", built).arc_count > 100
    assert len(calls) < 100 and "pairing entry" not in calls


def test_circulant_linegraph_base_validation():
    with pytest.raises(InvalidGenerators):
        circulant_linegraph_base(12, (3, 2))
    with pytest.raises(InvalidGenerators):
        circulant_linegraph_base(6, (1, 3))
    with pytest.raises(InvalidGenerators):
        circulant_linegraph_base(12, (0, 2))


Z7_TRIPLES = k_set_decomposition(AbelianGroup(7), 3).representatives


@pytest.mark.parametrize("build, message", [
    (lambda: k_set_decomposition(AbelianGroup(7), 3, [(0, 1, 2.9)] + list(Z7_TRIPLES[1:])),
     "representative entry 2.9 is not an integer"),
    (lambda: circulant_linegraph_base(13, [1.5, 3]), "generator 1.5 is not an integer"),
    (lambda: circulant_linegraph_base(13.9, [1, 3]), "cyclic order 13.9 is not an integer"),
    (lambda: k_set_decomposition(AbelianGroup(7), 3.0), "token count 3.0 is not an integer"),
    (lambda: k_set_decomposition(AbelianGroup(7), "3"), "token count '3' is not an integer"),
    (lambda: johnson_base(7, 3.0), "token count 3.0 is not an integer"),
    (lambda: johnson_base(7.0, 3), "vertex count 7.0 is not an integer"),
    (lambda: token_base_graph(AbelianGroup(7), [1, 6], True), "token count True is not an integer"),
    (lambda: johnson_base(7, True), "token count True is not an integer"),
], ids=["representative-float", "generator-float", "order-float", "k-set-k-float",
        "k-set-k-string", "johnson-k-float", "johnson-n-float", "token-base-k-bool",
        "johnson-k-bool"])
def test_orbit_builders_refuse_non_integers(build, message):
    with pytest.raises(VoltliftError) as err:
        build()
    assert str(err.value) == message


def test_orbit_builders_accept_numpy_integers():
    dec = k_set_decomposition(AbelianGroup(7), 3, [np.array(r) for r in Z7_TRIPLES])
    assert dec.representatives == Z7_TRIPLES
    assert all(type(i) is int for r in dec.representatives for i in r)
    vg = circulant_linegraph_base(np.int64(13), np.array([1, 3]))
    assert vg.to_json() == circulant_linegraph_base(13, [1, 3]).to_json()
    assert k_set_decomposition(AbelianGroup(7), np.int64(3)).representatives == Z7_TRIPLES
    vg = johnson_base(np.int64(7), np.int32(3))
    assert vg.to_json() == johnson_base(7, 3).to_json()


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
    gens = [(1, 0), (2, 0), (0, 1), (0, 2)]
    vg = token_base_graph(group, gens, 2)
    target = token_graph(cayley_graph(group, gens), 2)
    assert verify_natural_isomorphism(vg, target).ok


def test_natural_isomorphism_circulant_linegraph():
    m, a = 12, (2, 3)
    vg = circulant_linegraph_base(m, a)
    gens = sorted({x % m for x in a} | {(-x) % m for x in a})
    target = line_graph(cayley_graph(AbelianGroup(m), gens))
    assert verify_natural_isomorphism(vg, target).ok


def _circulant_generator_lists(m):
    """Every valid a_list of circulant_linegraph_base over Z_m: the non-empty
    increasing lists with 2*a_s + 1 <= m."""
    half = range(1, (m - 1) // 2 + 1)
    return [list(a) for size in range(1, len(half) + 1) for a in combinations(half, size)]


def _four_family_base(m, a):
    """The base of L(Cay(Z_m; +-a)) written out: from {0, a_i} an arc to
    {0, a_j} with voltage 0, -a_j, a_i - a_j and a_i, the j = i loops
    carrying -a_i and a_i only; with the units u of Z_m that fix +-a,
    recorded in element order when -1 and the earlier ones do not generate
    them, as (u, permutation, translators) with u*a_i = +-a_pi(i)."""
    group = AbelianGroup(m)
    arcs, residues = [], []
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            family = (-aj, ai) if j == i else (0, -aj, ai - aj, ai)
            arcs += [(i, j)] * len(family)
            residues += family
    volts = np.array(residues, dtype=np.intp) % m
    digraph = Digraph([(0, ai) for ai in a], np.array(arcs, dtype=np.intp))
    vg = VoltageGraph(group, Graph(digraph, greedy_pairing(digraph.arc_array().tolist(), volts, group)), volts)
    s = {x % m for x in a} | {-x % m for x in a}
    where = {x: j for j, x in enumerate(a)}
    generated, symmetries = {1, m - 1}, []
    for u in range(1, m):
        if math.gcd(u, m) != 1 or {u * x % m for x in s} != s or u in generated:
            continue
        while True:
            grown = generated | {u * g % m for g in generated}
            if grown == generated:
                break
            generated = grown
        images = [u * x % m for x in a]
        symmetries.append(((u,), [where.get(x, where.get(-x % m)) for x in images],
                           [0 if x in where else x for x in images]))
    return vg, symmetries


def _voltage_arcs(vg):
    return sorted((t, h, v.key) for (t, h), v in zip(vg.digraph.arc_array().tolist(),
                                                     vg.voltages))


@pytest.mark.parametrize("m", range(3, 17))
def test_circulant_linegraph_base_matches_the_four_families(m):
    """The 2-token base of K_m on the edge family is the written-out base,
    arc for arc up to order, for every valid a_list."""
    for a in _circulant_generator_lists(m):
        vg = circulant_linegraph_base(m, a)
        oracle, symmetries = _four_family_base(m, a)
        assert vg.labels == oracle.labels
        assert _voltage_arcs(vg) == _voltage_arcs(oracle), a
        assert [(sym.unit, sym.permutation.tolist(), sym.translators.tolist())
                for sym in vg.symmetries] == symmetries, a
        assert str(vg.base_matrix()) == str(oracle.base_matrix()), a


def test_circulant_linegraph_base_at_a_large_order():
    """Time and memory stay linear in m: moves start only from occupied
    elements, and the edge family is found among its s*m subsets, not in a
    K_m host or a table over all C(m, 2) subsets (gigabytes here)."""
    m, a = 100003, [1, 2]
    vg = circulant_linegraph_base(m, a)
    oracle, symmetries = _four_family_base(m, a)
    assert vg.labels == oracle.labels
    assert _voltage_arcs(vg) == _voltage_arcs(oracle)
    assert [(sym.unit, sym.permutation.tolist(), sym.translators.tolist())
            for sym in vg.symmetries] == symmetries == []


def test_circulant_linegraph_base_memory_is_linear_in_m():
    """A table over all C(m, 2) subsets or the m(m - 1) arcs of a K_m host
    would trace over 100 MB at m = 2003; the edge family needs about 1 MB."""
    tracemalloc.start()
    try:
        circulant_linegraph_base(2003, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m", range(3, 13))
def test_circulant_linegraph_base_lifts_to_the_line_graph(m):
    for a in _circulant_generator_lists(m):
        gens = sorted({x % m for x in a} | {(-x) % m for x in a})
        target = line_graph(cayley_graph(AbelianGroup(m), gens))
        assert verify_natural_isomorphism(circulant_linegraph_base(m, a), target).ok, a


def test_corrupted_voltage_fails_isomorphism():
    vg = johnson_base(5, 2)
    target = token_graph(complete_graph(5), 2)
    bad_voltages = list(vg.voltages)
    arcs, pairing = vg.digraph.arc_array(), vg.pairing.tolist()
    # swap a digon pair's voltages, keeping the voltage graph valid
    pair = next(
        i for i in range(len(bad_voltages))
        if arcs[i, 0] != arcs[i, 1] and bad_voltages[i].key != (0,)
    )
    j = pairing[pair]
    bad_voltages[pair], bad_voltages[j] = bad_voltages[j], bad_voltages[pair]
    corrupted = VoltageGraph(vg.group, vg.digraph, bad_voltages)
    # drop the same digon pair instead: every mapped arc is right, but the
    # target keeps arcs that no lift arc reaches
    keep = [a for a in range(vg.digraph.arc_count) if a not in (pair, j)]
    renumber = {old: new for new, old in enumerate(keep)}
    kept = Digraph(vg.labels, arcs[keep])
    dropped = VoltageGraph(vg.group, Graph(kept, [renumber[pairing[a]] for a in keep]),
                           [vg.voltages[a] for a in keep])
    # two representatives of one orbit
    same_orbit = VoltageGraph(vg.group, Digraph([(0, 1), (1, 2)], []), [])
    # the target with vertex (3, 4) relabelled
    relabelled = Graph(Digraph([(3, 9) if c == (3, 4) else c for c in target.labels],
                               target.arc_array()), target.pairing)
    cases = [
        (corrupted, target,
         "arc (0, 1) -> (1, 4) has multiplicity 2 in the mapped lift but 1 in the target"),
        (dropped, target,
         "arc (0, 3) -> (2, 3) has multiplicity 1 in the target but 0 in the mapped lift"),
        (same_orbit, target, "map hits target vertex (1, 2) twice"),
        (vg, relabelled, "((0, 1), (3,)) maps to (3, 4), not a target vertex"),
        (vg, token_graph(complete_graph(6), 2), "lift has 10 vertices, target 15"),
    ]
    for source, graph, detail in cases:
        result = verify_natural_isomorphism(source, graph)
        assert not result.ok
        assert result.detail == detail
        with pytest.raises(VoltliftError):
            result.certificate_json()


def test_certificates_match_golden_file():
    """Golden vertex maps: J(7,3), and Z7xZ7 k=2 with S = {+-(1,2), +-(3,1)}."""
    golden = json.loads((Path(__file__).parent / "data" / "certificates.json").read_text())
    group = AbelianGroup(7, 7)
    gens = [(1, 2), (6, 5), (3, 1), (4, 6)]
    sources = {
        "J(7,3)": (johnson_base(7, 3), token_graph(complete_graph(7), 3)),
        "Z7xZ7 k=2": (token_base_graph(group, gens, 2), token_graph(cayley_graph(group, gens), 2)),
    }
    assert sorted(golden) == sorted(sources)
    for name, (vg, target) in sources.items():
        result = verify_natural_isomorphism(vg, target)
        assert result.ok, name
        assert json.loads(json.dumps(result.certificate_json())) == golden[name], name


def test_directed_token_base_matches_c5_example():
    group = AbelianGroup(5)
    vg = token_base_graph(group, [1], 2, directed=True)
    b = vg.base_matrix()
    assert b.entries[0][0] == {}
    assert b.entries[0][1] == entry(group, 0)
    assert b.entries[1][0] == entry(group, 1)
    assert b.entries[1][1] == entry(group, -2)


def _dict_decomposition(group, k, representatives=None):
    """The (representatives, {sorted subset: (rep index, translator index)})
    of the dict-keyed decomposition that the rank arrays replaced."""
    n = group.size
    multiply, invert = group_law(group)
    reps, lookup = [], {}
    for subset in combinations(range(n), k):
        if subset in lookup:
            continue
        orbit = {}
        for g_idx in range(n):
            orbit.setdefault(tuple(sorted(multiply(g_idx, i) for i in subset)), g_idx)
        assert len(orbit) == n
        for translated, g_idx in orbit.items():
            lookup[translated] = (len(reps), g_idx)
        reps.append(subset)
    if representatives is None:
        return reps, lookup
    user = [tuple(sorted(r)) for r in representatives]
    remap = {lookup[r][0]: (new_idx, lookup[r][1]) for new_idx, r in enumerate(user)}
    rebased = {}
    for subset, (old_idx, g_idx) in lookup.items():
        new_idx, g0 = remap[old_idx]
        rebased[subset] = (new_idx, multiply(g_idx, invert(g0)))
    return user, rebased


def _per_arc_token_base(group, gens, k, representatives=None, directed=False):
    """(labels, arcs, voltage keys, pairing) from the per-arc loop over sets
    and dict lookups that the token-move engine replaced."""
    gens = _validate_connection_set(group, gens, directed)
    reps, lookup = _dict_decomposition(group, k, representatives)
    els, multiply = group.elements(), group_law(group)[0]
    arcs, voltages = [], []
    for rep_idx, rep in enumerate(reps):
        occupied = set(rep)
        for i in rep:
            for s in gens:
                j = multiply(i, s)
                if j in occupied:
                    continue
                beta_idx, g_idx = lookup[tuple(sorted(occupied - {i} | {j}))]
                arcs.append((rep_idx, beta_idx))
                voltages.append(g_idx)
    pairing = None if directed else greedy_pairing(arcs, voltages, group)
    return tuple(reps), tuple(arcs), tuple(els[g].key for g in voltages), pairing


Z3Z3_GENS = [(1, 0), (2, 0), (0, 1), (0, 2)]
Z3Z3_TABLE_REPS = [(0, 3), (0, 1), (0, 4), (0, 7)]


@pytest.mark.parametrize("group, gens, k, kwargs", [
    (AbelianGroup(3, 3), Z3Z3_GENS, 2, {}),
    (AbelianGroup(3, 3), Z3Z3_GENS, 2, {"representatives": Z3Z3_TABLE_REPS}),
    (AbelianGroup(5, 5), [(1, 0), (0, 1)], 2, {"directed": True}),
    (AbelianGroup(19), [1, 18, 5, 14], 3, {}),
    (dihedral_group(7), [1, 6, 2, 5], 3, {}),
    (dihedral_group(7), [1, 6], 5, {}),
], ids=["z3xz3-k2", "z3xz3-k2-rebased", "directed-z5xz5-k2", "z19-k3", "d7-k3", "d7-k5"])
def test_token_base_graph_matches_per_arc_loop(group, gens, k, kwargs):
    vg = token_base_graph(group, gens, k, **kwargs)
    labels, arcs, keys, pairing = _per_arc_token_base(group, gens, k, **kwargs)
    assert vg.labels == labels
    assert tuple(map(tuple, vg.digraph.arc_array().tolist())) == arcs
    assert tuple(w.key for w in vg.voltages) == keys
    assert (None if vg.pairing is None else vg.pairing.tolist()) == pairing


def _rebased(group, k):
    """The lexicographic representatives in reverse order, the i-th moved
    to its translate by element i mod |Gamma|."""
    reps = k_set_decomposition(group, k)._reps[::-1]
    translates = np.sort(group.products(np.arange(group.size)[:, None], reps[:, None]), axis=-1)
    return [tuple(translates[i, i % group.size].tolist()) for i in range(len(reps))]


# every abelian group of order <= 12 with each k coprime to the order, which
# is when no element fixes a k-subset, and the free D5, D7 cases, k = 2..4
ABELIAN_TO_12 = [(n,) for n in range(1, 13)] + [(2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6)]
FREE_DECOMPOSITIONS = [
    (AbelianGroup(*orders), k, None) for orders in ABELIAN_TO_12
    for k in range(1, math.prod(orders) + 1) if math.gcd(k, math.prod(orders)) == 1
] + [(dihedral_group(n), 3, None) for n in (5, 7)] + [
    (AbelianGroup(3, 3), 2, Z3Z3_TABLE_REPS),
    (AbelianGroup(11), 4, _rebased(AbelianGroup(11), 4)),
    (dihedral_group(7), 3, _rebased(dihedral_group(7), 3)),
]


@pytest.mark.parametrize("group, k, reps", FREE_DECOMPOSITIONS, ids=[
    f"{g.name.lower()}-k{k}" + ("-rebased" if reps else "") for g, k, reps in FREE_DECOMPOSITIONS])
def test_locate_matches_dict_lookup(group, k, reps):
    dec = k_set_decomposition(group, k, reps)
    expected_reps, lookup = _dict_decomposition(group, k, reps)
    assert list(dec.representatives) == expected_reps
    assert len(lookup) == math.comb(group.size, k)
    for subset, (rep_idx, g_idx) in lookup.items():
        assert dec.locate(subset) == (rep_idx, g_idx)
        assert dec.locate(subset[::-1]) == (rep_idx, g_idx)


@pytest.mark.parametrize("subset", [(0, 0), (0, 9), (-1, 2), (0,), (0, 1, 2), (0, 1.5)],
                         ids=["repeat", "past-end", "negative", "too-short", "too-long",
                              "not-int"])
def test_locate_rejects_a_non_subset(subset):
    dec = k_set_decomposition(AbelianGroup(3, 3), 2)
    with pytest.raises(KeyError):
        dec.locate(subset)
