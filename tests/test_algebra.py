"""Group arithmetic, characters, base-matrix entries, representations."""

import cmath
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    DimensionTooLarge,
    GenericGroup,
    IncompleteRepresentation,
    MismatchedGroups,
    NoConvergence,
    NonAbelianGroup,
    Representation,
    VoltageGraph,
    VoltliftError,
    cayley_graph,
    check_representation,
    enumerate_characters,
    group_from_json,
    irreps_completeness_defect,
)
from voltlift import algebra

from helpers import (dihedral_group, dihedral_irreps, group_law, permutation_group,
                     quaternion_group, s3_group_and_irreps, semidirect_z7_z3)

Z5 = AbelianGroup(5)
Z7 = AbelianGroup(7)
Z33 = AbelianGroup(3, 3)


def loops(group, voltages):
    """Base matrix of one vertex with one loop arc per voltage."""
    arcs = [(0, 0, w) for w in voltages]
    return VoltageGraph.directed_from_arcs(group, [0], arcs).base_matrix()


def test_group_op_z5():
    assert Z5.products(*Z5.indices([3, 4])) == Z5.indices([(3 + 4) % 5])[0]


def test_group_op_z3z3_inverse_pair():
    assert Z33.products(*Z33.indices([(2, 1), (1, 2)])) == Z33.indices([(0, 0)])[0]


def test_element_normalization_and_index():
    assert Z33.indices([(5, -1)]).tolist() == [8]
    el = Z33.elements()[8]
    assert el.key == (2, 2)
    assert el.index == 8


def test_generic_group_matches_abelian_on_all_pairs():
    generic = GenericGroup.from_group(Z5)
    for a in range(5):
        for b in range(5):
            assert generic.products(a, b) == (a + b) % 5
    assert generic.is_abelian


@pytest.mark.parametrize("group", [AbelianGroup(3, 4), AbelianGroup(7),
                                   s3_group_and_irreps()[0]], ids=["Z3xZ4", "Z7", "S3"])
def test_products_broadcast_index_arrays(group):
    multiply = group_law(group)[0]
    idx = np.array([[0, 1, 2], [5 % group.size, 2, 2]])
    # every element against a 2-D array, each orientation, and a scalar
    cases = [(np.arange(group.size)[:, None, None], idx, (group.size,) + idx.shape),
             (idx[..., None], np.arange(group.size), idx.shape + (group.size,)),
             (1, idx, idx.shape)]
    for a, b, shape in cases:
        products, (x, y) = group.products(a, b), np.broadcast_arrays(a, b)
        assert products.shape == shape
        for pos, product in np.ndenumerate(products):
            assert product == multiply(int(x[pos]), int(y[pos]))


def test_mismatched_groups_raises():
    with pytest.raises(MismatchedGroups):
        Z5.indices([Z7.elements()[1]])


def test_generic_group_rejects_non_latin():
    with pytest.raises(VoltliftError):
        GenericGroup([[0, 1], [0, 1]])


def test_generic_group_rejects_no_identity():
    # subtraction mod 3 is a Latin square with only a right identity
    table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(VoltliftError):
        GenericGroup(table)


# the smallest loop that is not a group
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_generic_group_rejects_non_associative_loop():
    with pytest.raises(VoltliftError, match="associative"):
        GenericGroup(LOOP5)


def _old_validation(table):
    """The removed loop validation of GenericGroup.__init__, with every
    associativity triple checked in lexicographic order: the first error
    message it raised, else (identity, inverses)."""
    table = tuple(tuple(int(x) for x in row) for row in table)
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        return "multiplication table must be square and non-empty"
    full = frozenset(range(n))
    for row in table:
        if frozenset(row) != full:
            return "multiplication table is not a Latin square (row)"
    for j in range(n):
        if frozenset(table[i][j] for i in range(n)) != full:
            return "multiplication table is not a Latin square (column)"
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        return "multiplication table has no two-sided identity"
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity:
                if table[b][a] != identity:
                    return "one-sided inverse found; table inconsistent"
                inverse[a] = b
                break
    t = table
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return f"table is not associative at ({a},{b},{c})"
    return identity, inverse


def _new_validation(table):
    try:
        group = GenericGroup(table)
    except VoltliftError as err:
        return str(err)
    return group._identity_index, group.inverse_indices().tolist()


def _random_loop(rng, n):
    """A random Latin square whose row and column 0 are the identity, by
    randomized backtracking over the other cells."""
    t = [[i if j == 0 else j if i == 0 else None for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        options = [v for v in range(n) if v not in t[i] and all(row[j] != v for row in t)]
        rng.shuffle(options)
        for v in options:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    assert fill(0)
    return t


def _relabel(rng, table):
    """The same operation with its n elements renamed by a random permutation."""
    n = len(table)
    p = list(range(n))
    rng.shuffle(p)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[table[a][b]]
    return out


def _random_table(rng, n):
    """A table of order n from one of several families that together reach
    every validation outcome."""
    kind = rng.randrange(6)
    if kind == 0:  # arbitrary entries
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if kind == 1:  # Latin rows only
        return [rng.sample(range(n), n) for _ in range(n)]
    if kind == 2:  # an isotope of Z_n: Latin, usually without identity
        s, a, b = (rng.sample(range(n), n) for _ in range(3))
        return [[s[(a[x] + b[y]) % n] for y in range(n)] for x in range(n)]
    if kind == 3:  # a loop: identity, often one-sided inverses or no associativity
        return _relabel(rng, _random_loop(rng, n))
    group = rng.choice([AbelianGroup(n)] + ([dihedral_group(n // 2)] if n % 2 == 0 else []))
    table = _relabel(rng, group.products(np.arange(n)[:, None], np.arange(n)).tolist())
    if kind == 5:  # one entry changed
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return table


def test_array_validation_matches_the_old_loops():
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(1200):
        table = _random_table(rng, rng.randint(1, 8))
        old = _old_validation(table)
        assert _new_validation(table) == old, table
        outcomes.add(old.split(" at ")[0] if isinstance(old, str) else "group")
    assert outcomes == {
        "group",
        "multiplication table is not a Latin square (row)",
        "multiplication table is not a Latin square (column)",
        "multiplication table has no two-sided identity",
        "one-sided inverse found; table inconsistent",
        "table is not associative",
    }
    for table in ([], [[0, 1], [1]], [[0]]):
        assert _new_validation(table) == _old_validation(table)
    # order 65: the lexicographically first failing triple of all 65^3
    z13 = range(13)
    product = [[13 * LOOP5[a][b] + (x + y) % 13 for b in range(5) for y in z13]
               for a in range(5) for x in z13]
    old = _old_validation(product)
    assert old.startswith("table is not associative at (") and _new_validation(product) == old
    group = GenericGroup.from_group(AbelianGroup(5, 13))
    table = np.reshape(group.to_json()["table"], (65, 65)).tolist()
    assert _new_validation(table) == _old_validation(table)


def _z2_z100_with_swapped_intercalate():
    """Z2 x Z100, (x, y) at index 100x + y, with the intercalate of rows 2,
    102 and columns 19, 119 swapped: a Latin square with identity 0 and
    two-sided inverses whose operation fails associativity on 3,152 of its
    8 * 10^6 triples, first at (1, 1, 19): (1*1)*19 = 121 but 1*(1*19) = 21."""
    table = [[100 * ((x // 100 + y // 100) % 2) + (x + y) % 100 for y in range(200)]
             for x in range(200)]
    for row, col in [(2, 19), (2, 119), (102, 19), (102, 119)]:
        table[row][col] = 121 if table[row][col] == 21 else 21
    return table


def test_associativity_is_exact_above_order_64():
    table = _z2_z100_with_swapped_intercalate()
    t = np.array(table)
    failing = sum(int((t[t[a]] != t[a][t]).sum()) for a in range(200))
    assert failing == 3152
    with pytest.raises(VoltliftError, match=r"^table is not associative at \(1,1,19\)$"):
        GenericGroup(table)


@pytest.mark.parametrize("group", [AbelianGroup(1000), AbelianGroup(2, 100),
                                   AbelianGroup(2, 2, 2, 3), dihedral_group(17)],
                         ids=["z1000", "z2xz100", "z2^3xz3", "d17"])
def test_light_generators_of_a_group(group):
    """Each generator at least doubles the subgroup reached, and together
    they reach every element by right multiplication from the identity."""
    elements = np.arange(group.size)
    t = group.products(elements[:, None], elements)
    gens = list(algebra._light_generators(t, group._identity_index))
    assert len(gens) <= math.log2(group.size)
    reached = {group._identity_index}
    frontier = list(reached)
    while frontier:
        frontier = [p for p in {int(t[x, g]) for x in frontier for g in gens} - reached]
        reached.update(frontier)
    assert len(reached) == group.size


def test_group_json_round_trip():
    for group in (Z33, GenericGroup.from_group(Z5)):
        again = group_from_json(group.to_json())
        assert again == group


def test_generic_group_hash_and_equality():
    group, _, _ = s3_group_and_irreps()
    copy = GenericGroup.from_group(group)
    assert copy is not group and copy == group and group == copy
    rows = np.reshape(group.to_json()["table"], (6, 6))
    # the hash is the hash of the intp table's bytes, whatever the name
    assert hash(copy) == hash(group) == hash(rows.astype(np.intp).tobytes())
    again = GenericGroup(rows.tolist(), name="other")
    assert again == group and hash(again) == hash(group)
    assert group != GenericGroup.from_group(Z5)
    assert group != AbelianGroup(6) and group == group


def _count_table_comparisons(monkeypatch) -> list:
    """Record every np.array_equal call: GenericGroup.__eq__ compares two
    tables with one."""
    calls = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append(1) or array_equal(a, b))
    return calls


def test_generic_group_rejects_a_different_hash_without_reading_tables(monkeypatch):
    s3 = s3_group_and_irreps()[0]
    z6 = GenericGroup.from_group(AbelianGroup(6))
    assert s3.size == z6.size and hash(s3) != hash(z6)
    compared = _count_table_comparisons(monkeypatch)
    assert s3 != z6 and z6 != s3 and not s3 == z6
    with pytest.raises(MismatchedGroups):
        s3.indices([z6.elements()[1]])
    assert not compared
    # equal copies still compare their tables
    copy = GenericGroup(np.reshape(z6.to_json()["table"], (6, 6)).tolist())
    assert copy == z6 and len(compared) == 1


@pytest.mark.parametrize("group", [AbelianGroup(3, 4), AbelianGroup(2, 2, 2), AbelianGroup(1),
                                   s3_group_and_irreps()[0]], ids=["Z3xZ4", "Z2^3", "Z1", "S3"])
def test_inverse_indices_are_element_inverses(group):
    inv = group.inverse_indices()
    # computed once per group and shared read-only
    assert inv.dtype == np.intp and not inv.flags.writeable and group.inverse_indices() is inv
    assert inv.tolist() == list(map(group_law(group)[1], range(group.size)))


def test_same_group_object_skips_equality(monkeypatch):
    calls = []
    eq = AbelianGroup.__eq__
    monkeypatch.setattr(AbelianGroup, "__eq__",
                        lambda self, other: calls.append(1) or eq(self, other))
    group = AbelianGroup(3, 4)
    a, b = group.elements()[6], group.elements()[11]
    assert group.indices([a, b]).tolist() == [6, 11] and a.key == (1, 2)
    assert not calls
    assert group.indices([AbelianGroup(3, 4).elements()[1]]).tolist() == [1]
    assert calls
    with pytest.raises(MismatchedGroups, match=r"AbelianGroup\(4,\) and AbelianGroup\(3, 4\)"):
        group.indices([AbelianGroup(4).elements()[1]])


def test_enumerate_characters_counts():
    assert len(enumerate_characters(Z5)) == 5
    assert len(enumerate_characters(Z33)) == 9
    assert len(enumerate_characters(AbelianGroup(2, 4))) == 8


def test_enumerate_characters_order():
    chars = enumerate_characters(Z33)
    assert not any(chars[0])
    assert chars[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert chars == [el.key for el in Z33.elements()]


def test_evaluate_trivial_character():
    vg = VoltageGraph.undirected_from_edges(Z5, [0], [(0, 0, 1)])
    m = vg.base_matrix().evaluate((0,))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(2.0)


def test_evaluate_primitive_character():
    vg = VoltageGraph.undirected_from_edges(Z5, [0], [(0, 0, 2)])
    m = vg.base_matrix().evaluate(1)
    assert m[0, 0] == pytest.approx(2 * math.cos(4 * math.pi / 5), abs=1e-12)


def test_evaluate_row_entry_at_trivial():
    vg = VoltageGraph.directed_from_arcs(
        Z5, ["u", "v"], [(0, 1, 0), (0, 1, 1), (0, 1, -1), (0, 1, -2)]
    )
    m = vg.base_matrix().evaluate((5,))
    assert m[0, 1] == pytest.approx(4.0)
    assert m[0, 0] == m[1, 0] == m[1, 1] == 0


def test_evaluate_is_multiplicative():
    # chi(g h) = chi(g) chi(h) on every pair, for every character
    for group in (Z5, Z33, AbelianGroup(2, 4)):
        multiply = group_law(group)[0]
        for j in enumerate_characters(group):
            chi = group.character_values(j)
            for g in range(group.size):
                for h in range(group.size):
                    assert chi[multiply(g, h)] == pytest.approx(chi[g] * chi[h], abs=1e-12)


def test_character_orthogonality():
    for group in (Z5, Z33, AbelianGroup(2, 4)):
        for j in enumerate_characters(group):
            total = sum(group.character_values(j))
            if not any(j):
                assert total == pytest.approx(group.size)
            else:
                assert abs(total) < 1e-10


def test_monomial_rendering():
    assert str(loops(Z5, [0, 1, -1, -2])) == "1 + 1/z + z + 1/z^2"
    assert str(loops(Z33, [(1, 0), (1, 2)])) == "z1 + z1/z2"
    # parallel arcs with one voltage count as a coefficient
    assert str(loops(Z5, [2, 2, 0, 0, 0])) == "3 + 2*z^2"
    assert str(loops(GenericGroup.from_group(Z5), [3, 1, 3])) == "g1 + 2*g3"
    empty = VoltageGraph.directed_from_arcs(Z5, [0, 1], [(0, 1, 1)]).base_matrix()
    assert str(empty).splitlines() == ["0  z", "0  0"]


def test_trivial_representation_passes():
    rep = Representation.trivial(Z5)
    assert check_representation(Z5, rep).passed


def test_character_as_representation_passes():
    for j in enumerate_characters(Z5):
        rep = Representation.from_character(Z5, j)
        assert rep.matrices.shape == (5, 1, 1)
        assert np.array_equal(rep.matrices[:, 0, 0], Z5.character_values(j))
        assert check_representation(Z5, rep).passed


def test_scaling_representation_fails_unitarity():
    rep = Representation(Z5, {g: np.array([[2.0]]) for g in Z5.elements()})
    report = check_representation(Z5, rep)
    assert not report.passed
    assert report.unitarity_error > 1.0


def test_incomplete_representation_raises():
    els = Z5.elements()
    with pytest.raises(IncompleteRepresentation):
        Representation(Z5, {els[0]: np.eye(1)})


def test_s3_irreps_are_valid_and_complete():
    group, _, irreps = s3_group_and_irreps()
    assert not group.is_abelian
    for rep in irreps:
        assert check_representation(group, rep).passed
    assert irreps_completeness_defect(group, irreps) == 0
    assert irreps_completeness_defect(group, irreps[:2]) == -4


def test_check_representation_over_an_equal_copy(monkeypatch):
    group, _, irreps = s3_group_and_irreps()
    copy = GenericGroup.from_group(group)
    distinct = 0
    equal = GenericGroup.__eq__

    def counting_eq(self, other):
        nonlocal distinct
        distinct += self is not other
        return equal(self, other)

    for rho in irreps:
        own = check_representation(group, rho)
        monkeypatch.setattr(GenericGroup, "__eq__", counting_eq)
        distinct = 0
        report = check_representation(copy, rho)
        monkeypatch.setattr(GenericGroup, "__eq__", equal)
        # the one comparison of the two groups, whatever |G| is
        assert distinct == 1
        assert (report.homomorphism_error, report.unitarity_error, report.passed) == \
            (own.homomorphism_error, own.unitarity_error, own.passed)


# each group and the sorted dimensions of its irreducible representations
IRREP_CASES = {
    "Q8": (quaternion_group, [1, 1, 1, 1, 2]),
    "S3": (lambda: s3_group_and_irreps()[0], [1, 1, 2]),
    "D7": (lambda: dihedral_group(7), [1, 1, 2, 2, 2]),
    "D11": (lambda: dihedral_group(11), [1, 1, 2, 2, 2, 2, 2]),
    "Z7:Z3": (semidirect_z7_z3, [1, 1, 1, 3, 3]),
    "S4": (lambda: permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)], "S4"), [1, 1, 2, 3, 3]),
    "A5": (lambda: permutation_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], "A5"),
           [1, 3, 3, 4, 5]),
    "S5": (lambda: permutation_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], "S5"),
           [1, 1, 4, 4, 5, 5, 6]),
    "Z3xZ3-table": (lambda: GenericGroup.from_group(Z33), [1] * 9),
}


@pytest.mark.parametrize("case", IRREP_CASES.values(), ids=IRREP_CASES.keys())
def test_irreps_are_a_complete_list_of_unitary_irreducibles(case):
    make, dimensions = case
    group = make()
    reps = algebra.irreps(group)
    assert sorted(rho.dimension for rho in reps) == dimensions
    assert irreps_completeness_defect(group, reps) == 0
    assert all(rho.group is group for rho in reps)
    assert all(check_representation(group, rho, 1e-10).passed for rho in reps)
    # distinct irreducible characters are orthonormal
    characters = np.array([np.trace(rho.matrices, axis1=1, axis2=2) for rho in reps])
    assert np.abs(characters.conj() @ characters.T / group.size - np.eye(len(reps))).max() < 1e-10


def test_irreps_skips_a_cluster_that_carries_a_reducible_representation(monkeypatch):
    """Two eigenspaces of different 2-dimensional irreps of D7, merged into
    the first cluster, carry a reducible representation: its character has
    norm 2, so it is skipped, and the other eigenspaces of those irreps
    complete the list from the first seed."""
    group = dihedral_group(7)
    table = group.products(np.arange(14)[:, None], np.arange(14))
    eigh, calls = np.linalg.eigh, []

    def merged_eigh(a):
        calls.append(a)
        values, vectors = eigh(a)
        cuts = np.flatnonzero(np.diff(values) > 1e-9) + 1
        spaces, clusters = np.split(vectors, cuts, axis=1), np.split(values, cuts)
        traces = [tuple(np.einsum("xi,xhi->h", v.conj(), v[table]).real.round(9)) for v in spaces]
        i = next(i for i, v in enumerate(spaces) if v.shape[1] == 2)
        j = next(j for j, v in enumerate(spaces) if v.shape[1] == 2 and traces[j] != traces[i])
        rest = [k for k in range(len(spaces)) if k not in (i, j)]
        # both eigenspaces at one eigenvalue below all others
        return (np.concatenate([np.full(4, values[0] - 1), *(clusters[k] for k in rest)]),
                np.hstack([spaces[i], spaces[j], *(spaces[k] for k in rest)]))

    monkeypatch.setattr(np.linalg, "eigh", merged_eigh)
    reps = algebra.irreps(group)
    assert len(calls) == 1
    assert sorted(rho.dimension for rho in reps) == [1, 1, 2, 2, 2]
    assert all(check_representation(group, rho).passed for rho in reps)


def test_irreps_refuses_an_order_past_the_dense_cap_before_allocating():
    group = AbelianGroup(algebra.MAX_DIMENSION + 1)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLarge, match="group order 4097 exceeds the 4096 cap"):
            algebra.irreps(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_irreps_tries_every_seed_before_giving_up(monkeypatch):
    """With one cluster of all eigenvalues, no seed gives an irreducible
    beyond the trivial one, so every seed is tried and none is accepted."""
    monkeypatch.setattr(algebra, "IRREPS_CLUSTER_GAP", math.inf)
    seeds = []
    rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or rng(seed))
    with pytest.raises(NoConvergence, match="no seed of IRREPS_SEEDS gives all irreps of S3"):
        algebra.irreps(s3_group_and_irreps()[0])
    assert seeds == list(algebra.IRREPS_SEEDS)


# lcm(orders) < |G| in each group, so the integer phase is not the index sum
@pytest.mark.parametrize("orders", [(4, 6), (8, 12), (3, 3, 3), (7, 7), (5, 5)])
def test_character_phase_equals_exact_fraction_reference(orders):
    group = AbelianGroup(*orders)
    elements = group.elements()
    for j in enumerate_characters(group):
        values = group.character_values(j)
        for el in elements:
            phase = sum(Fraction(jk * g, n) for jk, g, n in zip(j, el.key, orders)) % 1
            want = complex(1.0) if phase == 0 else cmath.exp(2j * math.pi * float(phase))
            assert values[el.index] == want, (j, el.key)


G3 = GenericGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


@pytest.mark.parametrize("group, value, message", [
    (G3, 2.7, "G3 element coordinate 2.7 is not an integer"),
    (G3, "1", "G3 element coordinate '1' is not an integer"),
    (Z33, (1, 2.9), "Z3xZ3 element coordinate 2.9 is not an integer"),
    (Z5, 2.0, "Z5 element coordinate 2.0 is not an integer"),
    (Z5, "1", "Z5 element coordinate '1' is not an integer"),
    (Z5, None, "Z5 element coordinate None is not an integer"),
    (Z5, True, "Z5 element coordinate True is not an integer"),
    (G3, np.True_, "G3 element coordinate True is not an integer"),
], ids=["generic-float", "generic-str", "abelian-float-coordinate", "abelian-float",
        "abelian-str", "abelian-none", "abelian-bool", "generic-numpy-bool"])
def test_element_rejects_non_integer_coordinates(group, value, message):
    with pytest.raises(VoltliftError) as err:
        group.indices([value])
    assert str(err.value) == message


@pytest.mark.parametrize("group, keys", [
    (Z5, [(0,), (3,), (4,), (1,)]),
    (Z33, [(0, 0), (2, 1), (1, 2), (2, 2)]),
    (G3, [0, 2, 1, 2]),
], ids=["rank-1", "rank-2", "generic"])
def test_keys_of_indices_are_the_keys(group, keys):
    idx = group.indices(keys)
    in_order = [el.key for el in group.elements()]
    assert idx.dtype == np.intp and idx.tolist() == [in_order.index(key) for key in keys]
    assert group.keys(idx) == keys and group.keys(idx[:0]) == []
    assert group.keys(np.arange(group.size)) == [el.key for el in group.elements()]
    # elements of the group and index arrays read as themselves
    assert group.indices(group.elements()).tolist() == list(range(group.size))
    assert group.indices(idx).tolist() == idx.tolist()


def test_indices_reduce_coordinates_and_name_refused_keys():
    assert Z5.indices([7, -1, np.int64(3)]).tolist() == [2, 4, 3]
    assert Z33.indices([(5, -1), np.array([1, 5])]).tolist() == [8, 5]
    for group, keys, message in [
        (Z5, [1, 2.0], "Z5 element coordinate 2.0 is not an integer"),
        (Z33, [(1, 0), 4], "Z3xZ3 element needs 2 coordinates"),
        (Z33, [(1, 0, 2)], "Z3xZ3 element needs 2 coordinates"),
        (G3, [1, 3], "element index 3 out of range for G3"),
        (G3, [-1], "element index -1 out of range for G3"),
        (G3, np.array([0, 3]), "element index 3 out of range for G3"),
        (Z5, np.array([5, 1]), "element index 5 out of range for Z5"),
    ]:
        with pytest.raises(VoltliftError) as err:
            group.indices(keys)
        assert str(err.value) == message


def test_element_accepts_numpy_integers():
    key = Z5.keys(Z5.indices([np.int64(3)]))[0]
    assert key == (3,) and type(key[0]) is int
    assert Z33.indices([np.array([1, 5]), (np.int32(4), np.uint8(2)), (1, 2)]).tolist() == [5] * 3
    key = G3.keys(G3.indices([np.int64(2)]))[0]
    assert key == 2 and type(key) is int
    with pytest.raises(VoltliftError, match="needs 2 coordinates"):
        Z33.indices([np.int64(1)])
    gens = cayley_graph(Z5, np.array([1, 4]))
    assert np.array_equal(gens.adjacency_matrix(), cayley_graph(Z5, [1, 4]).adjacency_matrix())
    assert Z5.character_values(np.int64(2)).tobytes() == Z5.character_values((2,)).tobytes()
    with pytest.raises(VoltliftError, match="coordinate 2.0 is not an integer"):
        Z5.character_values(2.0)


@pytest.mark.parametrize("build, message", [
    (lambda: AbelianGroup(3.7), "cyclic order 3.7 is not an integer"),
    (lambda: AbelianGroup("5"), "cyclic order '5' is not an integer"),
    (lambda: GenericGroup([[0, 1.9], [1, 0]]), "multiplication table entry 1.9 is not an integer"),
], ids=["order-float", "order-str", "table-float"])
def test_groups_refuse_non_integer_orders_and_entries(build, message):
    with pytest.raises(VoltliftError) as err:
        build()
    assert str(err.value) == message


def test_groups_accept_numpy_integer_orders_and_entries():
    z6 = AbelianGroup(np.int64(2), np.uint8(3))
    assert z6 == AbelianGroup(2, 3) and all(type(n) is int for n in z6.orders)
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int32)
    assert GenericGroup(table) == G3 and GenericGroup(list(table)).to_json() == G3.to_json()


@functools.lru_cache(maxsize=None)
def _old_roots(period):
    """The table of roots exp(2*pi*i * p / period) that _unit_roots computed."""
    return np.array([complex(1.0)]
                    + [cmath.exp(2j * math.pi * (p / period)) for p in range(1, period)],
                    dtype=complex)


def _old_character_values(group, index):
    """Character(group, index).values() of the removed Character class, read
    from the old table of roots."""
    index = group.keys(group.indices([index]))[0]
    period = math.lcm(*group.orders)
    roots = _old_roots(period)
    coords = np.unravel_index(np.arange(group.size), group.orders)
    phases = sum(c * (j * (period // n))
                 for c, j, n in zip(coords, index, group.orders)) % period
    return roots[phases]


@pytest.mark.parametrize("orders", [(1,), (101,), (4, 6), (2, 2, 2, 2), (6, 10, 15), (2003,)])
def test_character_values_bytes_equal_the_old_character_values(orders):
    group = AbelianGroup(*orders)
    characters = enumerate_characters(group)
    assert characters == [el.key for el in group.elements()]
    for j in characters:
        values = group.character_values(j)
        assert values.dtype == complex and values.shape == (group.size,)
        assert values.tobytes() == _old_character_values(group, j).tobytes(), j
    # unnormalized indices are reduced as element coordinates are
    j = characters[-1]
    shifted = tuple(jk + 2 * n for jk, n in zip(j, orders))
    assert group.character_values(shifted).tobytes() == group.character_values(j).tobytes()


def test_character_values_at_a_few_elements_trace_no_group_sized_table():
    group = AbelianGroup(1000003)
    tracemalloc.start()
    try:
        values = group.character_values(5, np.array([1, 2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    old = [cmath.exp(2j * math.pi * (p / group.size)) for p in (5, 10)]
    assert values.tobytes() == np.array(old).tobytes()


def test_characters_need_an_abelian_group():
    with pytest.raises(NonAbelianGroup):
        enumerate_characters(G3)
    with pytest.raises(NonAbelianGroup):
        Representation.from_character(G3, 1)


def _old_check_representation(rho):
    """The double loop that check_representation replaced: (homomorphism
    error, unitarity error) over every pair of elements."""
    eye = np.eye(rho.dimension)
    hom_err = 0.0
    uni_err = 0.0
    multiply, mats = group_law(rho.group)[0], rho.matrices
    for g, mg in enumerate(mats):
        uni_err = max(uni_err, float(np.abs(mg @ mg.conj().T - eye).max()))
        for h, mh in enumerate(mats):
            err = np.abs(mats[multiply(g, h)] - mg @ mh).max()
            hom_err = max(hom_err, float(err))
    return hom_err, uni_err


def _check_cases():
    d7 = dihedral_group(7)
    irreps = dihedral_irreps(d7, 7)
    standard = dict(zip(d7.elements(), irreps[2].matrices))
    perturbed = dict(standard)
    element = d7.elements()[3]
    perturbed[element] = perturbed[element] * np.exp(0.1j)
    scaled = {g: 1.5 * m for g, m in standard.items()}
    z46 = AbelianGroup(4, 6)
    cases = {f"D7-irrep-{i}": (d7, rho) for i, rho in enumerate(irreps)}
    cases["D7-perturbed"] = (d7, Representation(d7, perturbed))
    cases["D7-scaled"] = (d7, Representation(d7, scaled))
    for j in [(0, 0), (1, 5), (2, 3)]:
        cases[f"Z4xZ6-character-{j}"] = (z46, Representation.from_character(z46, j))
    return cases


@pytest.mark.parametrize("block_entries", [None, 64, 200], ids=["default", "64", "200"])
def test_check_representation_matches_the_old_double_loop(monkeypatch, block_entries):
    if block_entries is not None:
        # h blocks of 1 and 3 elements on D7, of 2 and 8 on Z4xZ6
        monkeypatch.setattr(algebra, "BLOCK_ENTRIES", block_entries)
    expected_pass = {"D7-perturbed": False, "D7-scaled": False}
    for name, (group, rho) in _check_cases().items():
        report = check_representation(group, rho)
        hom_err, uni_err = _old_check_representation(rho)
        assert abs(report.homomorphism_error - hom_err) <= 1e-15, name
        assert abs(report.unitarity_error - uni_err) <= 1e-15, name
        assert report.passed == (hom_err <= 1e-10 and uni_err <= 1e-10), name
        assert report.passed == expected_pass.get(name, True), name
    perturbed = _check_cases()["D7-perturbed"][1]
    assert check_representation(perturbed.group, perturbed).homomorphism_error > 0.05


def test_representation_over_an_equal_copy_compares_tables_once(monkeypatch):
    d7 = dihedral_group(7)
    rho = dihedral_irreps(d7, 7)[2]
    copy = GenericGroup.from_group(d7)
    compared = _count_table_comparisons(monkeypatch)
    again = Representation(d7, dict(zip(copy.elements(), rho.matrices)))
    # one comparison of the two groups, not one per element lookup
    assert len(compared) == 1
    assert again.matrices.tobytes() == rho.matrices.tobytes()
    assert again.matrices.shape == (14, 2, 2) and not again.matrices.flags.writeable
    with pytest.raises(ValueError):
        again.matrices[0, 0, 0] = 0


def test_representation_rejects_keys_of_another_group():
    with pytest.raises(MismatchedGroups):
        Representation(Z5, {g: np.eye(1) for g in AbelianGroup(5, 1).elements()})
    with pytest.raises(VoltliftError, match="representation key 0 is not a group element"):
        Representation(Z5, {i: np.eye(1) for i in range(5)})
    with pytest.raises(VoltliftError, match="mixed dimensions"):
        Representation(Z5, {g: np.eye(1 + (g.index == 3)) for g in Z5.elements()})
