"""Eigenvalue kernel, spectrum assembly, closed forms, multiset compare."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    DimensionTooLarge,
    Graph,
    IncompleteIrreps,
    KOutOfRange,
    NoConvergence,
    NonAbelianGroup,
    NotRegularSpectrum,
    Representation,
    Spectrum,
    UniversalCoefficients,
    VoltageGraph,
    VoltliftError,
    cayley_graph,
    complete_graph,
    direct_spectrum,
    directed_cycle,
    eigenpairs,
    eigenvalues,
    enumerate_characters,
    johnson_base,
    johnson_spectrum,
    lift_spectrum,
    line_graph,
    line_graph_spectrum_transform,
    multiset_equal,
    per_character_rows,
    rep_spectrum,
    token_base_graph,
    token_digraph,
    token_graph,
    voltage_graph_from_json,
)
from voltlift import spectra
from voltlift.orbits import circulant_linegraph_base
from voltlift.spectra import HERMITIAN_TOL

from helpers import (dihedral_group, dihedral_irreps, quaternion_group, random_voltage_graph,
                     s3_group_and_irreps, semidirect_z7_z3, unit_orbits)

GOLDEN = (1 + math.sqrt(5)) / 2


def pairs(spectrum):
    return [(v, m) for v, m in spectrum.pairs]


def test_eigenvalues_small_symmetric():
    vals = eigenvalues([[2, 4], [4, 2]])
    assert sorted(vals) == pytest.approx([-2, 6])
    assert vals.dtype.kind == "f"  # Hermitian path returns reals


def test_eigenvalues_identity():
    assert list(eigenvalues(np.eye(3))) == pytest.approx([1, 1, 1])


def test_eigenvalues_golden_ratio():
    vals = sorted(eigenvalues([[0, 1], [1, 1]]))
    assert vals == pytest.approx([1 - GOLDEN, GOLDEN], abs=1e-12)


def test_eigenvalues_complex_hermitian_path():
    m = np.array([[1.0, 1j], [-1j, 1.0]])
    vals = eigenvalues(m)
    assert vals.dtype.kind == "f"
    assert sorted(vals) == pytest.approx([0.0, 2.0], abs=1e-12)


def test_dimension_cap():
    big = np.broadcast_to(0.0, (4097, 4097))
    with pytest.raises(DimensionTooLarge):
        eigenvalues(big)


def test_eigenpairs_residuals():
    m = johnson_base(7, 3).character_matrix((1,))
    vals, vecs = eigenpairs(m)
    assert np.abs(m @ vecs - vecs * vals).max() < 1e-8


def test_real_input_takes_real_solvers():
    # a real non-symmetric matrix goes through the real general solver, whose
    # non-real eigenvalues come in exact conjugate pairs; the complex solver
    # on the same matrix misses the pairing in the last bits
    for n, k in [(7, 3), (9, 4), (10, 3), (11, 3)]:
        a = token_digraph(directed_cycle(n), k).adjacency_matrix()
        vals = eigenvalues(a)
        nonreal = vals[vals.imag != 0]
        assert nonreal.size > 0
        assert np.array_equal(np.sort(nonreal), np.sort(nonreal.conj()))
        vals, vecs = eigenpairs(a)  # raises if a residual exceeds 1e-8
        assert len(vals) == len(a)
    # real and integer symmetric input stays float64 on the symmetric solver
    sym = token_graph(complete_graph(6), 2).adjacency_matrix()
    for m in (sym, sym.astype(int)):
        vals = eigenvalues(m)
        assert vals.dtype == np.float64
        assert np.array_equal(vals, np.linalg.eigvalsh(sym))
    # complex Hermitian input with a nonzero imaginary part keeps eigvalsh
    h = johnson_base(7, 3).character_matrix((1,))
    assert np.abs(h.imag).max() > 0
    vals = eigenvalues(h)
    assert vals.dtype == np.float64
    assert np.array_equal(vals, np.linalg.eigvalsh(h))


def _hermitian_by_full_check(m):
    """The one-shot rule that _is_hermitian evaluates block by block."""
    return bool(np.abs(m - m.conj().T).max(initial=0.0) <= HERMITIAN_TOL)


def _hermitian_with_defect(n, where, value, dtype):
    """A Hermitian n x n matrix, zero at the cells of `where` and their
    mirrors, except that the first cell is set to `value`."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    m = a + a.conj().T
    for i, j in where:
        m[i, j] = m[j, i] = 0
    i, j = where[0]
    m[i, j] = value
    return m


# n = 300 gives blocks of 109 rows: [0, 109), [109, 218) and the partial [218, 300)
HERMITIAN_CASES = {
    "last-partial-block": (300, [(299, 5)], 1e-3, float, False),
    "straddles-block-edge": (300, [(108, 109)], 1e-3, float, False),
    "conjugation-only": (300, [(20, 250)], 1j, complex, False),
    "imaginary-diagonal": (300, [(299, 299)], 1 + 1e-9j, complex, False),
    "exactly-tol": (300, [(5, 290)], HERMITIAN_TOL, float, True),
    "just-over-tol": (300, [(5, 290)], np.nextafter(HERMITIAN_TOL, 1), float, False),
    "nan": (300, [(250, 3)], np.nan, float, False),
    "hermitian-complex": (300, [(0, 1)], 0, complex, True),
    "one-block": (40, [(39, 0)], 1e-3, complex, False),
}


@pytest.mark.parametrize("case", HERMITIAN_CASES.values(), ids=HERMITIAN_CASES.keys())
def test_is_hermitian_blocks_agree_with_full_check(case):
    n, where, value, dtype, expected = case
    m = _hermitian_with_defect(n, where, value, dtype)
    if value == 1j:  # symmetric but not Hermitian: m[j, i] = m[i, j], not its conjugate
        i, j = where[0]
        m[j, i] = m[i, j]
    assert spectra._block_width(n) == (109 if n == 300 else 819)
    assert _hermitian_by_full_check(m) is expected
    assert spectra._is_hermitian(m) is expected
    if not expected:  # the mirrored defect fails the same way
        assert spectra._is_hermitian(m.T.copy()) is False


@pytest.mark.parametrize("dtype", [float, complex])
def test_is_hermitian_peak_memory_is_a_few_blocks(dtype):
    n = 1000
    m = _hermitian_with_defect(n, [(n - 1, 0)], 0, dtype)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        assert spectra._is_hermitian(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < m.nbytes / 8


def test_eigenpair_residual_checks_every_column_block(monkeypatch):
    m = _hermitian_with_defect(300, [(0, 1)], 0, float)
    eigh = np.linalg.eigh
    vals, vecs = eigenpairs(m)
    assert np.array_equal(vals, eigh(m)[0])
    for column, bad in [(299, True), (109, True), (0, True), (299, False)]:
        def perturbed(a, column=column, bad=bad):
            w, v = eigh(a)
            v = v.copy()
            v[0, column] += 1e-6 if bad else 0.0
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        if bad:
            with pytest.raises(NoConvergence, match="residual"):
                eigenpairs(m)
        else:
            eigenpairs(m)


def test_spectrum_grouping_and_order():
    s = Spectrum.group([6.0, 1.0 + 1e-9, 1.0, -2.0, 1.0 - 1e-9])
    assert [(round(v.real, 6), m) for v, m in s.pairs] == [(6.0, 1), (1.0, 3), (-2.0, 1)]
    assert s.size == 5
    assert str(s) == "{6, 1^[3], -2}"


def _group_with_list_clusters(values, tol):
    """Spectrum.group as a running-mean loop: each value joins the previous
    cluster when it is within tol of that cluster's sum() / len()."""
    def mean(cluster):
        return sum(cluster) / len(cluster)

    ordered = sorted((complex(v) for v in values), key=lambda v: (-v.real, v.imag))
    clusters = []
    for v in ordered:
        if clusters and abs(v - mean(clusters[-1])) <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return Spectrum([(mean(c), len(c)) for c in clusters], tol)


def _split_groups(values, tol):
    """The grouping rule by recursion on lists: split at every real-part
    gap wider than tol, else at every imaginary-part gap, and recurse on
    each piece until neither splits it."""
    for part in (lambda v: v.real, lambda v: v.imag):
        ordered = sorted(values, key=part)
        pieces = [[ordered[0]]]
        for prev, v in zip(ordered, ordered[1:]):
            if part(v) - part(prev) > tol:
                pieces.append([])
            pieces[-1].append(v)
        if len(pieces) > 1:
            return [g for piece in pieces for g in _split_groups(piece, tol)]
    return [values]


def _split_reference_pairs(groups):
    """(value, multiplicity) per group: members added from 0 in
    (-re, im) order, divided by the count; pairs in the same order."""
    pairs = []
    for group in groups:
        total = 0
        for v in sorted(group, key=lambda v: (-v.real, v.imag)):
            total += v
        pairs.append((total / len(group), len(group)))
    return sorted(pairs, key=lambda p: (-p[0].real, p[0].imag))


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for (v, m), (w, n) in zip(got, want):
        assert m == n
        assert (v.real, v.imag) == (w.real, w.imag)
        assert math.copysign(1, v.real) == math.copysign(1, w.real)
        assert math.copysign(1, v.imag) == math.copysign(1, w.imag)


def _noisy_values(seed):
    rng = random.Random(seed)
    # one large near-degenerate cluster whose chained noise drifts, a
    # conjugate pair with real-part noise, negative zeros and singletons
    values = [complex(2 + rng.uniform(-4e-7, 4e-7), rng.uniform(-4e-7, 4e-7))
              for _ in range(1500)]
    values += [complex(0.5 + rng.choice([-1e-16, 1e-16]), s * 1.5)
               for s in (1, -1) for _ in range(300)]
    values += [complex(-0.0, -0.0)] * 7 + [rng.gauss(0, 3) for _ in range(200)]
    rng.shuffle(values)
    return values


def test_spectrum_group_matches_recursive_split_reference():
    values = _noisy_values(3)
    for tol in (1e-6, 1e-9):
        groups = _split_groups(values, tol)
        labels = spectra._gap_groups(np.array(values), tol)
        got = sorted(sorted((v.real, v.imag) for v, g in zip(values, labels) if g == label)
                     for label in set(labels.tolist()))
        assert got == sorted(sorted((v.real, v.imag) for v in g) for g in groups)
        _assert_same_bytes(Spectrum.group(values, tol).pairs, _split_reference_pairs(groups))
    # the conjugate pair with real-part noise stays two groups of 300
    pairs = Spectrum.group(values).pairs
    assert (0.5 + 1.5j, 300) in pairs and (0.5 - 1.5j, 300) in pairs


def test_spectrum_group_does_not_depend_on_input_order():
    values = _noisy_values(5)
    rng = random.Random(11)
    for tol in (1e-6, 1e-9):
        want = Spectrum.group(values, tol)
        for _ in range(5):
            rng.shuffle(values)
            got = Spectrum.group(np.array(values), tol)
            assert np.array(got.pairs).tobytes() == np.array(want.pairs).tobytes()


def test_spectrum_group_matches_running_mean_on_separated_clusters():
    """Clusters narrower than tol whose real parts lie more than 2 tol
    apart are grouped alike by both rules, to the byte."""
    rng = random.Random(7)
    for tol in (1e-6, 1e-9):
        values = []
        for step in rng.sample(range(1, 1000), 60):
            centre = complex(step * 3 * tol, rng.choice([0.0, -0.0, rng.uniform(-5, 5)]))
            half = tol / 4
            values += [centre + complex(rng.uniform(-half, half),
                                        rng.choice([0.0, rng.uniform(-half, half)]))
                       for _ in range(rng.randint(1, 20))]
        values += [complex(-0.0, -0.0)] * 3
        rng.shuffle(values)
        _assert_same_bytes(Spectrum.group(values, tol).pairs,
                           _group_with_list_clusters(values, tol).pairs)


def test_spectrum_csv_format():
    s = Spectrum.group([2.0, 2.0, -1.0])
    assert s.to_csv() == "re,im,multiplicity\n2,0,2\n-1,0,1\n"


def test_spectrum_prints_parts_within_its_tol_as_zero():
    """A real or imaginary part of magnitude at most grouping_tol prints as
    0; the stored pairs keep it, and at tol 0 only an exact 0 is 0."""
    routes = [lift_spectrum(johnson_base(7, 3)), direct_spectrum(token_graph(complete_graph(7), 3)),
              johnson_spectrum(7, 3)]
    assert {str(s) for s in routes} == {"{12, 5^[6], 0^[14], -3^[14]}"}
    assert {s.to_csv() for s in routes} == {"re,im,multiplicity\n12,0,1\n5,0,6\n0,0,14\n-3,0,14\n"}
    assert routes[0].pairs[2][0] != 0
    values = [2.0, 1e-7 + 3e-7j, -1e-6 + 0.5j, 1.5e-6 - 0.0j, -0.0]
    s = Spectrum.group(values)
    assert str(s) == "{2, 1.5e-06, 0^[2], 0+0.5j}"
    assert s.to_csv() == "re,im,multiplicity\n2,0,1\n1.5e-06,0,1\n0,0,2\n0,0.5,1\n"
    assert Spectrum(s.pairs, 0).to_csv() == ("re,im,multiplicity\n2,0,1\n1.5e-06,0,1\n"
                                             "5e-08,1.5e-07,2\n-1e-06,0.5,1\n")


def test_spectrum_str_shows_the_imaginary_parts_its_csv_writes():
    """str and to_csv print through one rule: an imaginary part shows in
    both exactly when it exceeds grouping_tol, however small it is."""
    s = Spectrum.group([1 + 1e-12j, 1 - 1e-12j], 0)
    assert str(s) == "{1-1e-12j, 1+1e-12j}"
    assert s.to_csv() == "re,im,multiplicity\n1,-1e-12,1\n1,1e-12,1\n"
    s = Spectrum.group([1 + 1e-12j, 1 - 1e-12j], 1e-6)
    assert str(s) == "{1^[2]}"
    assert s.to_csv() == "re,im,multiplicity\n1,0,2\n"


def test_spectrum_str_prints_twelve_digits_that_complex_reads_back():
    """str prints the per-character cells' 12 significant digits and j, so
    complex() reads a printed value back."""
    values = [0.5 + 1.5388418218j, 0.5 - 1.5388418218j, 1 / 3, -2.0]
    s = Spectrum.group(values, 0)
    assert str(s) == "{0.5-1.5388418218j, 0.5+1.5388418218j, 0.333333333333, -2}"
    cells = str(s)[1:-1].split(", ")
    assert cells == spectra._cells(s.expand(), 0)
    assert np.abs(np.array([complex(c) for c in cells]) - s.expand()).max() < 1e-12


def _parsed_cells(csv):
    return [complex(cell) for line in csv.splitlines()[1:] for cell in line.split(",")[1:]]


def test_per_character_tables_print_parts_within_the_default_tol_as_zero():
    """Per-character tables round as the combined table printed after them
    does, at DEFAULT_GROUPING_TOL; the rows they print stay raw."""
    vg = johnson_base(7, 3)
    adjacency = spectra.per_character_csv(vg)
    laplacian = spectra.per_character_csv(
        vg, spectra.character_spectra(vg, UniversalCoefficients.laplacian()))
    for csv in (adjacency, laplacian):
        assert not [v for v in _parsed_cells(csv)
                    if 0 < abs(v.real) <= 1e-6 or 0 < abs(v.imag) <= 1e-6]
    assert adjacency.splitlines()[1:3] == ["0,12,0,0,-3,-3", "1|6,5,0,0,-3,-3"]
    assert laplacian.splitlines()[1] == "0,15,15,12,12,0"
    # the rows hold the solver's values, noise around 0 included
    solved = spectra.character_spectra(vg)[0][1]
    assert per_character_rows(vg)[0][1] == sorted(solved.astype(complex).tolist(),
                                                  key=lambda v: -v.real)
    directed = token_base_graph(AbelianGroup(4), [1], 1, directed=True)
    assert spectra.per_character_csv(directed) == (
        "characters,lambda_1\n0,1\n1,0+1j\n2,-1\n3,0-1j\n")


def test_johnson_spectrum_closed_form():
    assert pairs(johnson_spectrum(7, 3)) == [(12, 1), (5, 6), (0, 14), (-3, 14)]
    assert pairs(johnson_spectrum(5, 2)) == [(6, 1), (1, 4), (-2, 5)]
    assert pairs(johnson_spectrum(7, 2)) == [(10, 1), (3, 6), (-2, 14)]
    with pytest.raises(KOutOfRange):
        johnson_spectrum(7, 4)


def test_johnson_spectrum_sizes_must_be_integers():
    with pytest.raises(VoltliftError, match=r"^vertex count 7\.0 is not an integer$"):
        johnson_spectrum(7.0, 3)
    with pytest.raises(VoltliftError, match=r"^token count '3' is not an integer$"):
        johnson_spectrum(7, "3")
    assert pairs(johnson_spectrum(np.int64(7), np.int64(3))) == pairs(johnson_spectrum(7, 3))


def test_direct_spectrum_of_johnson_graph():
    s = direct_spectrum(token_graph(complete_graph(5), 2))
    assert multiset_equal(s, johnson_spectrum(5, 2), 1e-10).equal


def test_direct_spectrum_circulant_line_graph():
    group = AbelianGroup(12)
    lg = line_graph(cayley_graph(group, [2, 3, 9, 10]))
    s = direct_spectrum(lg)
    expected = Spectrum.from_pairs([(6, 1), (3, 6), (2, 1), (0, 2), (-1, 2), (-2, 12)])
    assert multiset_equal(s, expected, 1e-8).equal


def test_direct_laplacian_of_johnson():
    s = direct_spectrum(token_graph(complete_graph(5), 2),
                        UniversalCoefficients.laplacian())
    assert multiset_equal(s, Spectrum.from_pairs([(0, 1), (5, 4), (8, 5)]), 1e-8).equal


def test_line_graph_spectrum_transform():
    k5 = Spectrum.from_pairs([(4, 1), (-1, 4)])
    out = line_graph_spectrum_transform(k5, 4, 5, 10)
    assert multiset_equal(out, johnson_spectrum(5, 2), 1e-12).equal

    k7 = Spectrum.from_pairs([(6, 1), (-1, 6)])
    out = line_graph_spectrum_transform(k7, 6, 7, 21)
    assert multiset_equal(out, johnson_spectrum(7, 2), 1e-12).equal

    z8 = direct_spectrum(cayley_graph(AbelianGroup(8), [1, 2, 3, 5, 6, 7]))
    out = line_graph_spectrum_transform(z8, 6, 8, 24)
    expected = Spectrum.from_pairs([(10, 1), (4, 4), (2, 3), (-2, 16)])
    assert multiset_equal(out, expected, 1e-8).equal


def test_line_graph_transform_oracle_equivalence():
    for group, gens in [(AbelianGroup(8), [1, 2, 3, 5, 6, 7]),
                        (AbelianGroup(9), [1, 8]),
                        (AbelianGroup(3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)])]:
        g = cayley_graph(group, gens)
        k = int(g.out_degrees()[0])
        transformed = line_graph_spectrum_transform(
            direct_spectrum(g), k, g.n, g.edge_count
        )
        direct = direct_spectrum(line_graph(g))
        assert multiset_equal(transformed, direct, 1e-8).equal


def test_line_graph_transform_validation():
    with pytest.raises(NotRegularSpectrum):
        line_graph_spectrum_transform(Spectrum.from_pairs([(3, 1), (-1, 4)]), 4, 5, 10)
    with pytest.raises(NotRegularSpectrum):
        line_graph_spectrum_transform(Spectrum.from_pairs([(4, 1), (-1, 4)]), 4, 5, 9)


def test_multiset_equal_examples():
    assert multiset_equal([6, -2], [6, -2.1], 1e-3).equal is False
    assert multiset_equal([6, -2], [6, -2.1], 1e-3).max_distance == pytest.approx(0.1)
    assert multiset_equal([1 + 2j], [1 + 2j], 0.0).equal
    assert not multiset_equal([1, 2], [1], 1.0).equal


def test_multiset_equal_conjugate_noise():
    # real-part noise on a conjugate pair must not derail the pairing
    a = [0.5 + 1e-16 + 2j, 0.5 - 1e-16 - 2j]
    b = [0.5 - 1e-16 + 2j, 0.5 + 1e-16 - 2j]
    cmp = multiset_equal(a, b, 1e-10)
    assert cmp.equal


def _directed_cycle_token_spectra(n, k):
    """(lift, direct) spectra of the k-token digraph of the directed n-cycle."""
    lift = lift_spectrum(token_base_graph(AbelianGroup(n), [1], k, directed=True))
    return lift, direct_spectrum(token_digraph(directed_cycle(n), k))


def test_multiset_equal_shuffled_token_digraph_lift_vs_direct():
    lift, direct = _directed_cycle_token_spectra(10, 3)
    values = lift.expand()
    random.Random(5).shuffle(values)
    cmp = multiset_equal(values, direct, 1e-8)
    assert cmp.equal and cmp.max_distance <= 1e-8


def test_multiset_equal_shuffled_conjugate_noise_in_opposite_orders():
    rng = random.Random(11)
    centres = [complex(rng.uniform(-3, 3), rng.uniform(0.1, 3)) for _ in range(40)]
    a, b = [], []
    for c in centres:
        # the same pair with the real-part noise on opposite members
        a += [complex(c.real + 1e-16, c.imag), complex(c.real - 1e-16, -c.imag)]
        b += [complex(c.real - 1e-16, -c.imag), complex(c.real + 1e-16, c.imag)]
    rng.shuffle(a)
    rng.shuffle(b)
    cmp = multiset_equal(a, b, 1e-10)
    assert cmp.equal and cmp.max_distance <= 1e-15


def _count_assignment_calls(monkeypatch):
    import scipy.optimize

    calls = []
    original = scipy.optimize.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return original(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return calls


@pytest.mark.parametrize("a, b", [
    # equal per-block counts, but the block pairing is 0.1 apart
    ([0, 1 + 1j, 1 - 1j], [0, 1 + 1j, 1 - 1.1j]),
    # unequal per-block counts: 1 - 1j has no partner within tol
    ([0, 1 + 1j, 1 - 1j], [0, 1 + 1j, 1.1 - 1j]),
], ids=["pairing-over-tol", "unequal-block-counts"])
def test_multiset_equal_assignment_fallback_decides(monkeypatch, a, b):
    calls = _count_assignment_calls(monkeypatch)
    cmp = multiset_equal(a, b, 1e-3)
    assert calls == [(3, 3)]
    assert cmp.equal is False
    assert cmp.max_distance == pytest.approx(0.1)


@pytest.mark.parametrize("a, b", [
    ([math.nan], [math.nan]),
    ([1, math.inf], [1, math.inf]),
    ([1 + 1j, math.nan], [1 + 1j, 0]),
], ids=["nan", "inf", "complex-and-nan"])
def test_multiset_equal_refuses_non_finite_values(monkeypatch, a, b):
    calls = _count_assignment_calls(monkeypatch)
    for x, y in ((a, b), (b, a)):
        cmp = multiset_equal(x, y, 1e-8)
        assert cmp.equal is False
        assert cmp.max_distance == math.inf
    assert calls == []


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf, "1e-6", None],
                         ids=["nan", "negative", "inf", "minus-inf", "string", "none"])
def test_grouping_and_comparison_refuse_a_bad_tolerance(tol):
    """One rule: a tolerance is a finite real number >= 0.  A NaN grouped
    [1, 5, -3] into one value, a negative one split [1, 1, 2] into three,
    a NaN made [1, 2] and [2, 1] unequal at distance 0, and the constructor
    stored a NaN as its grouping tolerance."""
    for call in (lambda: Spectrum.group([1, 5, -3], tol),
                 lambda: Spectrum.from_pairs([(1, 2), (2, 1)], tol),
                 lambda: Spectrum([(1, 2), (2, 1)], tol),
                 lambda: multiset_equal([1, 2], [2, 1], tol)):
        with pytest.raises(VoltliftError) as excinfo:
            call()
        assert str(excinfo.value) == f"tol must be a finite number >= 0, got {tol}"


def test_grouping_and_comparison_take_any_finite_tolerance():
    assert Spectrum.group([1, 1, 2], 0).pairs == ((2, 1), (1, 2))
    assert Spectrum.group([1, 1.5, 2], np.float64(0.5)).pairs == ((1.5, 3),)
    assert multiset_equal([1, 2], [2, 1], 0) == spectra.MultisetComparison(True, 0.0)


@pytest.mark.parametrize("pairs, message", [
    ([(1, 2.7), (3, 1)], "multiplicity 2.7 is not an integer"),
    ([(1, "2")], "multiplicity '2' is not an integer"),
    ([(1, np.float64(2.0))], "multiplicity 2.0 is not an integer"),
    ([(1, 2), (3, 0)], "multiplicities must be >= 1"),
    ([(1, -1)], "multiplicities must be >= 1"),
    # every count is checked for an integer before any for its sign
    ([(1, 0), (3, 2.7)], "multiplicity 2.7 is not an integer"),
    ([(1, True)], "multiplicity True is not an integer"),
], ids=["float", "string", "numpy-float", "zero", "negative", "zero-then-float", "bool"])
def test_from_pairs_refuses_a_multiplicity_that_is_not_a_positive_integer(pairs, message):
    """Spectrum.from_pairs([(1, 2.7), (3, 0)]) was {1^[2]}, and so was
    Spectrum([(1, 2.7)], 1e-6): the constructor truncated the multiplicity."""
    for build in (Spectrum.from_pairs, lambda pairs: Spectrum(pairs, 1e-6)):
        with pytest.raises(VoltliftError) as excinfo:
            build(pairs)
        assert str(excinfo.value) == message


def test_from_pairs_takes_numpy_integer_multiplicities():
    assert Spectrum.from_pairs([(1, np.int64(2)), (3, np.intp(1))]).pairs == ((3, 1), (1, 2))


def test_multiset_equal_block_pairing_needs_no_assignment(monkeypatch):
    calls = _count_assignment_calls(monkeypatch)
    lift, direct = _directed_cycle_token_spectra(8, 3)
    assert multiset_equal(lift, direct, 1e-8).equal
    assert multiset_equal([3, 1, 2], [1.0005, 2, 3], 1e-3).equal
    assert calls == []


def test_directed_comparison_leaves_scipy_optimize_unimported():
    # a fresh interpreter: other tests in this process import scipy
    code = (
        "import sys\n"
        "import voltlift as vl\n"
        "group = vl.AbelianGroup(10)\n"
        "lift = vl.lift_spectrum(vl.token_base_graph(group, [1], 3, directed=True))\n"
        "direct = vl.direct_spectrum(vl.token_digraph(vl.directed_cycle(10), 3))\n"
        "assert vl.multiset_equal(lift, direct, 1e-8).equal\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_lift_spectrum_johnson():
    assert multiset_equal(lift_spectrum(johnson_base(5, 2)),
                          johnson_spectrum(5, 2), 1e-9).equal
    assert multiset_equal(lift_spectrum(johnson_base(7, 3)),
                          johnson_spectrum(7, 3), 1e-8).equal


def test_lift_spectrum_equals_direct_on_random_instances():
    rng = random.Random(99)
    for _ in range(12):
        vg = random_voltage_graph(rng)
        computed = lift_spectrum(vg)
        oracle = direct_spectrum(vg.lift())
        cmp = multiset_equal(computed, oracle, 1e-8)
        assert cmp.equal, f"{vg}: distance {cmp.max_distance}"


def test_lift_spectrum_serves_generic_groups():
    """A base over a table-defined group needs no hand-built irreps: the
    lift spectrum equals rep_spectrum with the hand-built S3 irreps."""
    group, _, hand_built = s3_group_and_irreps()
    vg = VoltageGraph.directed_from_arcs(group, ["v"], [(0, 0, 1), (0, 0, 2)])
    computed = lift_spectrum(vg)
    assert multiset_equal(computed, rep_spectrum(vg, hand_built), 1e-12).equal
    assert multiset_equal(computed, [2, 2, -1, -1, -1, -1], 1e-8).equal
    with pytest.raises(NonAbelianGroup, match="characters are defined for abelian groups only"):
        spectra.character_spectra(vg)


# (group, connection set, k): the Cayley hosts of the token graphs judged below
GENERIC_TOKEN_CASES = {
    "D7-r-s-k3": (lambda: dihedral_group(7), [1, 6, 7], 3),
    "D11-r-s-k3": (lambda: dihedral_group(11), [1, 10, 11], 3),
    "Z7:Z3-a-b-k2": (semidirect_z7_z3, [1, 6, 7, 14], 2),
    "Q8-i-j-k3": (quaternion_group, [2, 3, 4, 5], 3),
}


# the Seidel matrix's all-ones term reads the trivial irrep among the computed ones
@pytest.mark.parametrize("coeffs", [None, UniversalCoefficients.laplacian(),
                                    UniversalCoefficients.seidel()],
                         ids=["adjacency", "laplacian", "seidel"])
@pytest.mark.parametrize("case", GENERIC_TOKEN_CASES.values(), ids=GENERIC_TOKEN_CASES.keys())
def test_lift_spectrum_of_a_generic_group_equals_direct(case, coeffs):
    make, gens, k = case
    group = make()
    target = token_graph(cayley_graph(group, gens), k)
    cmp = multiset_equal(lift_spectrum(token_base_graph(group, gens, k), coeffs),
                         direct_spectrum(target, coeffs), 1e-8)
    assert cmp.equal, cmp.max_distance


@pytest.mark.parametrize("laplacian", [False, True], ids=["adjacency", "laplacian"])
@pytest.mark.parametrize("n", [7, 11])
def test_lift_spectrum_of_a_dihedral_group_equals_hand_built_irreps(n, laplacian):
    group = dihedral_group(n)
    coeffs = UniversalCoefficients.laplacian() if laplacian else None
    vg = token_base_graph(group, [1, n - 1, n], 3)
    cmp = multiset_equal(lift_spectrum(vg, coeffs),
                         rep_spectrum(vg, dihedral_irreps(group, n), coeffs), 1e-12)
    assert cmp.equal, cmp.max_distance


def test_rep_spectrum_with_characters_matches_lift_spectrum():
    vg = johnson_base(5, 2)
    irreps = [Representation.from_character(vg.group, j)
              for j in enumerate_characters(vg.group)]
    # the Seidel and the last set carry an all-ones term, |Z5| on the trivial character
    for coeffs in [None, UniversalCoefficients.laplacian(), UniversalCoefficients.seidel(),
                   UniversalCoefficients(0.3, -0.7, 1.1, 0.1)]:
        a = rep_spectrum(vg, irreps, coeffs)
        b = lift_spectrum(vg, coeffs)
        assert multiset_equal(a, b, 1e-10).equal, coeffs


def test_rep_spectrum_missing_character_raises():
    vg = johnson_base(5, 2)
    irreps = [Representation.from_character(vg.group, j)
              for j in enumerate_characters(vg.group)][:-1]
    with pytest.raises(IncompleteIrreps):
        rep_spectrum(vg, irreps)


def test_rep_spectrum_refuses_an_incomplete_list_before_any_solve(monkeypatch):
    vg = johnson_base(5, 2)
    # 3 of the 5 characters of Z5
    irreps = [Representation.from_character(vg.group, j)
              for j in enumerate_characters(vg.group)][:3]
    solved = []
    monkeypatch.setattr(spectra, "eigenvalues", solved.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IncompleteIrreps,
                           match=r"squared irrep dimensions differs from \|group\| by -2"):
            rep_spectrum(vg, irreps)
    assert solved == []


def test_rep_spectrum_nonabelian_s3():
    group, _, irreps = s3_group_and_irreps()
    # loops with the two 3-cycles: the lift is the Cayley digraph of S3 with
    # S = {r, r^2}, two complete digraphs on the cosets of <r>
    vg = VoltageGraph.directed_from_arcs(group, ["v"], [(0, 0, 1), (0, 0, 2)])
    computed = rep_spectrum(vg, irreps)
    oracle = direct_spectrum(vg.lift())
    assert multiset_equal(computed, oracle, 1e-8).equal
    assert multiset_equal(computed, [2, 2, -1, -1, -1, -1], 1e-8).equal


def test_universal_linearity_on_regular_graph():
    g = cayley_graph(AbelianGroup(8), [1, 2, 3, 5, 6, 7])
    coeffs = UniversalCoefficients(2.0, -1.0, 0.5, 0.0)
    shifted = direct_spectrum(g, coeffs)
    base = direct_spectrum(g)
    expected = [2.0 * v + (-1.0) * 6 + 0.5 for v in base.expand()]
    assert multiset_equal(shifted, expected, 1e-8).equal


def test_universal_lift_spectrum_laplacian():
    vg = johnson_base(5, 2)
    lap = lift_spectrum(vg, UniversalCoefficients.laplacian())
    assert multiset_equal(lap, Spectrum.from_pairs([(0, 1), (5, 4), (8, 5)]), 1e-8).equal
    direct = direct_spectrum(vg.lift(), UniversalCoefficients.laplacian())
    assert multiset_equal(lap, direct, 1e-8).equal


def test_universal_lift_spectrum_with_all_ones_term():
    rng = random.Random(5)
    coeffs = UniversalCoefficients(1.0, 0.5, -1.0, 2.0)
    for _ in range(6):
        vg = random_voltage_graph(rng)
        computed = lift_spectrum(vg, coeffs)
        oracle = direct_spectrum(vg.lift(), coeffs)
        cmp = multiset_equal(computed, oracle, 1e-8)
        assert cmp.equal, f"{vg}: distance {cmp.max_distance}"


def test_trace_and_realness_invariants():
    for n, k in [(5, 2), (7, 2), (7, 3)]:
        s = direct_spectrum(token_graph(complete_graph(n), k))
        assert all(abs(v.imag) < 1e-9 for v in s.expand())
        assert abs(sum(s.expand()).real) < 1e-8


def test_per_character_rows_grouping():
    rows = per_character_rows(johnson_base(5, 2))
    assert [r[0] for r in rows] == [((0,),), ((1,), (4,)), ((2,), (3,))]
    assert [v.real for v in rows[0][1]] == pytest.approx([6, -2])
    assert [v.real for v in rows[1][1]] == pytest.approx([1, -2])


# (group orders, connection set, k, directed, solved characters of |G| with
# no unit symmetries): one solve per self-conjugate character and one per
# conjugate pair.  The builder's graph solves one per unit orbit: 4, 6 and 8
PAIRED_SOLVES = [
    ((10,), [1, 9, 3, 7], 3, False, 6),
    ((10,), [1, 3], 3, True, 6),
    ((2, 6), [(1, 1), (1, 5), (0, 2), (0, 4)], 5, False, 8),
]


def _record_solves(monkeypatch):
    """Every matrix that reaches spectra.eigenvalues, in call order."""
    seen = []
    solve = spectra.eigenvalues

    def recording(matrix):
        seen.append(np.asarray(matrix))
        return solve(matrix)

    monkeypatch.setattr(spectra, "eigenvalues", recording)
    return seen


def _solved_kinds(group, firsts) -> list[str]:
    """The dtype kind of the matrix solved at each character in firsts: real
    for a self-conjugate character, complex otherwise."""
    conjugate = group.inverse_indices()
    return ["f" if conjugate[i] == i else "c" for i in firsts]


@pytest.mark.parametrize("orders,gens,k,directed,solves", PAIRED_SOLVES)
def test_lift_spectrum_solves_once_per_conjugate_pair(monkeypatch, orders, gens, k,
                                                      directed, solves):
    group = AbelianGroup(*orders)
    vg = token_base_graph(group, gens, k, directed=directed)
    seen = _record_solves(monkeypatch)
    lift = lift_spectrum(vg)
    # the first character of each orbit under j -> +-u*j is solved
    firsts = [orbit[0] for orbit in unit_orbits(orders, gens)]
    assert [m.dtype.kind for m in seen] == _solved_kinds(group, firsts)
    assert len(seen) == len(firsts) <= solves < group.size
    cayley = cayley_graph(group, gens, directed=directed)
    target = token_digraph(cayley, k) if directed else token_graph(cayley, k)
    assert multiset_equal(lift, direct_spectrum(target), 1e-8).equal


@pytest.mark.parametrize("orders,gens,k,directed,solves", PAIRED_SOLVES)
def test_graph_read_from_json_solves_once_per_conjugate_pair(monkeypatch, orders, gens, k,
                                                             directed, solves):
    vg = token_base_graph(AbelianGroup(*orders), gens, k, directed=directed)
    loaded = voltage_graph_from_json(vg.to_json())
    assert loaded.symmetries == ()
    built = lift_spectrum(vg)
    seen = _record_solves(monkeypatch)
    lift = lift_spectrum(loaded)
    # each character at or before its partner is solved
    conjugate = loaded.group.inverse_indices()
    firsts = [i for i, p in enumerate(conjugate) if p >= i]
    assert [m.dtype.kind for m in seen] == _solved_kinds(loaded.group, firsts)
    assert len(seen) == solves
    assert multiset_equal(lift, built, 1e-12).equal
    assert [m for _, m in lift.pairs] == [m for _, m in built.pairs]


def _johnson_laplacian(n, k):
    return Spectrum.from_pairs([(k * (n - k) - v, m) for v, m in johnson_spectrum(n, k).pairs])


Z13 = AbelianGroup(13)
Z7Z7 = AbelianGroup(7, 7)
UNITS_7x7 = [(1, 2), (2, 4), (4, 1), (6, 5), (5, 3), (3, 6)]  # (2, 2) maps each to the next

# (label, base, group orders and connection set, unit orbits, reference
# spectra for adjacency and Laplacian)
UNIT_ORBIT_CASES = [
    ("J(17,5)", lambda: johnson_base(17, 5), ((17,), range(1, 17)), 2,
     lambda: (johnson_spectrum(17, 5), _johnson_laplacian(17, 5))),
    ("J(15,4)", lambda: johnson_base(15, 4), ((15,), range(1, 15)), 4,
     lambda: (johnson_spectrum(15, 4), _johnson_laplacian(15, 4))),
    ("L(Cay(Z13;+-1,+-5))", lambda: circulant_linegraph_base(13, [1, 5]),
     ((13,), [1, 5, 8, 12]), 4,
     lambda: line_graph(cayley_graph(Z13, [1, 5, 8, 12]))),
    ("Z13 +-{1,3,9} k=4", lambda: token_base_graph(Z13, [1, 3, 9, 12, 10, 4], 4),
     ((13,), [1, 3, 9, 12, 10, 4]), 3,
     lambda: token_graph(cayley_graph(Z13, [1, 3, 9, 12, 10, 4]), 4)),
    # the unit 3 fixes S, and inversion joins its orbits to their negatives
    ("Z13 {1,3,9} k=4 directed", lambda: token_base_graph(Z13, [1, 3, 9], 4, directed=True),
     ((13,), [1, 3, 9]), 3,
     lambda: token_digraph(cayley_graph(Z13, [1, 3, 9], directed=True), 4)),
    ("Z7xZ7 k=2", lambda: token_base_graph(Z7Z7, UNITS_7x7, 2), ((7, 7), UNITS_7x7), 9,
     lambda: token_graph(cayley_graph(Z7Z7, UNITS_7x7), 2)),
]


@pytest.mark.parametrize("label,build,connection,orbits,reference", UNIT_ORBIT_CASES,
                         ids=[c[0] for c in UNIT_ORBIT_CASES])
def test_character_route_solves_once_per_unit_orbit(monkeypatch, label, build, connection,
                                                    orbits, reference):
    vg = build()
    assert vg.symmetries
    firsts = [orbit[0] for orbit in unit_orbits(*connection)]
    assert len(firsts) == orbits
    seen = _record_solves(monkeypatch)
    lifts = [lift_spectrum(vg, coeffs)
             for coeffs in (None, UniversalCoefficients.laplacian())]
    assert [m.dtype.kind for m in seen] == 2 * _solved_kinds(vg.group, firsts)
    monkeypatch.undo()
    expected = reference()
    if not isinstance(expected, tuple):
        expected = (direct_spectrum(expected),
                    direct_spectrum(expected, UniversalCoefficients.laplacian()))
    for lift, oracle in zip(lifts, expected):
        assert multiset_equal(lift, oracle, 1e-8).equal
        assert [m for _, m in lift.pairs] == [m for _, m in oracle.pairs]


def test_conjugate_character_gets_the_exact_conjugate_values():
    group = AbelianGroup(11)
    vg = token_base_graph(group, [1], 3, directed=True)
    result = spectra.character_spectra(vg)
    assert [j for j, _ in result] == enumerate_characters(group)
    for j in range(1, 11):
        vals, partner_vals = result[j][1], result[11 - j][1]
        assert np.iscomplexobj(vals) and not np.all(vals.imag == 0)
        assert np.array_equal(partner_vals, np.conj(vals))
    rows = per_character_rows(vg)
    assert [r[0] for r in rows] == [((j,),) for j in range(11)]
    for j in range(1, 11):
        assert sorted(rows[11 - j][1], key=lambda v: (v.real, v.imag)) == sorted(
            (v.conjugate() for v in rows[j][1]), key=lambda v: (v.real, v.imag))


def test_per_character_rows_reuse_given_spectra(monkeypatch):
    vg = johnson_base(7, 3)
    computed = spectra.character_spectra(vg)
    seen = _record_solves(monkeypatch)
    rows = per_character_rows(vg, spectra=computed)
    lift = spectra._union(computed)
    assert seen == []
    assert rows == per_character_rows(vg)
    assert lift.pairs == lift_spectrum(vg).pairs
    # one solve per unit orbit ({0} and the six units of Z7), twice
    assert len(seen) == 2 * len(unit_orbits((7,), range(1, 7))) == 2 * 2


def test_johnson_closed_form_full_sweep():
    for n in range(2, 10):
        for k in range(1, n // 2 + 1):
            closed = johnson_spectrum(n, k)
            oracle = direct_spectrum(token_graph(complete_graph(n), k))
            assert multiset_equal(closed, oracle, 1e-8).equal, (n, k)


def test_least_eigenvalue_of_line_graph_lifts():
    for m, a in [(7, (1, 2, 3)), (8, (1, 2, 3)), (11, (1, 2, 3)), (12, (2, 3))]:
        s = lift_spectrum(circulant_linegraph_base(m, a))
        assert s.min_real() >= -2 - 1e-8
