"""Eigenvalue kernel, spectrum assembly, closed forms, multiset compare."""

import math
import random
import warnings

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    CompletenessWarning,
    Character,
    DimensionTooLarge,
    Graph,
    IncompleteIrreps,
    KOutOfRange,
    NonAbelianGroup,
    NotRegularSpectrum,
    Representation,
    Spectrum,
    UniversalCoefficients,
    VoltageGraph,
    cayley_graph,
    character_spectra,
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
    token_digraph,
    token_graph,
)
from voltlift.orbits import circulant_linegraph_base

from helpers import random_voltage_graph, s3_group_and_irreps

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
    m = johnson_base(7, 3).character_matrix(Character(AbelianGroup(7), 1))
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
    h = johnson_base(7, 3).character_matrix(Character(AbelianGroup(7), 1))
    assert np.abs(h.imag).max() > 0
    vals = eigenvalues(h)
    assert vals.dtype == np.float64
    assert np.array_equal(vals, np.linalg.eigvalsh(h))


def test_spectrum_grouping_and_order():
    s = Spectrum.group([6.0, 1.0 + 1e-9, 1.0, -2.0, 1.0 - 1e-9])
    assert [(round(v.real, 6), m) for v, m in s.pairs] == [(6.0, 1), (1.0, 3), (-2.0, 1)]
    assert s.size == 5
    assert str(s) == "{6, 1^[3], -2}"


def test_spectrum_csv_format():
    s = Spectrum.group([2.0, 2.0, -1.0])
    assert s.to_csv() == "re,im,multiplicity\n2,0,2\n-1,0,1\n"


def test_johnson_spectrum_closed_form():
    assert pairs(johnson_spectrum(7, 3)) == [(12, 1), (5, 6), (0, 14), (-3, 14)]
    assert pairs(johnson_spectrum(5, 2)) == [(6, 1), (1, 4), (-2, 5)]
    assert pairs(johnson_spectrum(7, 2)) == [(10, 1), (3, 6), (-2, 14)]
    with pytest.raises(KOutOfRange):
        johnson_spectrum(7, 4)


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
        g = cayley_graph(group, [group.element(s) for s in gens])
        k = g.degrees()[0]
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


def test_lift_spectrum_rejects_generic_groups():
    group, _, _ = s3_group_and_irreps()
    vg = VoltageGraph.directed_from_arcs(group, ["v"], [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(NonAbelianGroup):
        lift_spectrum(vg)


def test_rep_spectrum_with_characters_matches_lift_spectrum():
    vg = johnson_base(5, 2)
    irreps = [Representation.from_character(chi)
              for chi in enumerate_characters(vg.group)]
    a = rep_spectrum(vg, irreps)
    b = lift_spectrum(vg)
    assert multiset_equal(a, b, 1e-10).equal


def test_rep_spectrum_missing_character_raises():
    vg = johnson_base(5, 2)
    irreps = [Representation.from_character(chi)
              for chi in enumerate_characters(vg.group)][:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompletenessWarning)
        with pytest.raises(IncompleteIrreps):
            rep_spectrum(vg, irreps)


def test_rep_spectrum_warns_on_incomplete_list():
    vg = johnson_base(5, 2)
    irreps = [Representation.from_character(chi)
              for chi in enumerate_characters(vg.group)][:-1]
    with pytest.warns(CompletenessWarning):
        try:
            rep_spectrum(vg, irreps)
        except IncompleteIrreps:
            pass


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


def test_character_spectra_threaded_matches_serial(monkeypatch):
    vg = johnson_base(7, 3)
    serial = [vals.tolist() for _, vals in character_spectra(vg)]
    monkeypatch.setenv("VOLTLIFT_THREADS", "4")
    threaded = [vals.tolist() for _, vals in character_spectra(vg)]
    assert serial == threaded


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
