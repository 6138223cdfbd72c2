"""Group arithmetic, characters, base-matrix entries, representations."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from voltlift import (
    AbelianGroup,
    GenericGroup,
    IncompleteRepresentation,
    MismatchedGroups,
    NonAbelianGroup,
    Representation,
    VoltageGraph,
    VoltliftError,
    cayley_graph,
    check_representation,
    enumerate_characters,
    group_from_json,
    irreps_completeness_defect,
    representations_from_json,
)
from voltlift import algebra

from helpers import dihedral_group, dihedral_irreps, s3_group_and_irreps

Z5 = AbelianGroup(5)
Z7 = AbelianGroup(7)
Z33 = AbelianGroup(3, 3)


def loops(group, voltages):
    """Base matrix of one vertex with one loop arc per voltage."""
    arcs = [(0, 0, w) for w in voltages]
    return VoltageGraph.directed_from_arcs(group, [0], arcs).base_matrix()


def test_group_op_z5():
    assert Z5.element(3) * Z5.element(4) == Z5.element(2)


def test_group_op_z3z3_inverse_pair():
    assert Z33.element((2, 1)) * Z33.element((1, 2)) == Z33.identity


def test_element_normalization_and_index():
    el = Z33.element((5, -1))
    assert el.key == (2, 2)
    assert el.index == 8
    assert Z33.elements()[8] == el


def test_generic_group_matches_abelian_on_all_pairs():
    generic = GenericGroup.from_group(Z5)
    for a in range(5):
        for b in range(5):
            left = generic.op(generic.element(a), generic.element(b)).key
            right = Z5.op(Z5.element(a), Z5.element(b)).index
            assert left == right
    assert generic.is_abelian


@pytest.mark.parametrize("group", [AbelianGroup(3, 4), AbelianGroup(7),
                                   s3_group_and_irreps()[0]], ids=["Z3xZ4", "Z7", "S3"])
def test_right_columns_are_products(group):
    els = group.elements()
    idx = np.array([[0, 1, 2], [5 % len(els), 2, 2]])
    cols = group.right_columns(idx)
    assert cols.shape == (len(els),) + idx.shape
    for a, x in enumerate(els):
        for pos, b in np.ndenumerate(idx):
            assert cols[(a,) + pos] == group.index_of(x * els[b])


def test_mismatched_groups_raises():
    with pytest.raises(MismatchedGroups):
        Z5.element(1) * Z7.element(1)


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
    """The removed loop validation of GenericGroup.__init__: the first error
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
    if n <= 64:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0xA55)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(10_000))
    for a, b, c in triples:
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return f"table is not associative at ({a},{b},{c})"
    return identity, inverse


def _new_validation(table):
    try:
        group = GenericGroup(table)
    except VoltliftError as err:
        return str(err)
    return group.identity.key, group.inverse_indices().tolist()


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
    table = _relabel(rng, group.right_columns(np.arange(n)).tolist())
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
    # order 65: associativity on the 10^4 sampled triples
    z13 = range(13)
    product = [[13 * LOOP5[a][b] + (x + y) % 13 for b in range(5) for y in z13]
               for a in range(5) for x in z13]
    old = _old_validation(product)
    assert old.startswith("table is not associative at (") and _new_validation(product) == old
    group = GenericGroup.from_group(AbelianGroup(5, 13))
    table = np.reshape(group.to_json()["table"], (65, 65)).tolist()
    assert _new_validation(table) == _old_validation(table)


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
        s3.element(1) * z6.element(1)
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
    assert inv.tolist() == [el.inverse().index for el in group.elements()]


def test_same_group_object_skips_equality(monkeypatch):
    calls = []
    eq = AbelianGroup.__eq__
    monkeypatch.setattr(AbelianGroup, "__eq__",
                        lambda self, other: calls.append(1) or eq(self, other))
    group = AbelianGroup(3, 4)
    a, b = group.element((1, 2)), group.element((2, 3))
    assert (a * b).index == group.element((0, 1)).index and a.inverse().index == 10
    assert not calls
    assert group.element((1, 2)) * AbelianGroup(3, 4).element((0, 1)) == group.element((1, 3))
    assert calls
    with pytest.raises(MismatchedGroups, match=r"AbelianGroup\(4,\) and AbelianGroup\(3, 4\)"):
        a * AbelianGroup(4).element(1)


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
        els = group.elements()
        for j in enumerate_characters(group):
            chi = group.character_values(j)
            for g in els:
                for h in els:
                    assert chi[(g * h).index] == pytest.approx(chi[g.index] * chi[h.index],
                                                               abs=1e-12)


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


def _trivial_irrep_json(**replace):
    entry = {str(i): [1.0, 0.0] for i in range(6)}
    entry.update(replace)
    return [entry]


@pytest.mark.parametrize("data, message", [
    (_trivial_irrep_json(**{"6": [1, 0]}), "irreps JSON[0] key '6' is not an element index 0..5"),
    ({"0": [1, 0]}, "irreps JSON must be a list, got dict"),
    ([[1, 0]], "irreps JSON[0] must be an object, got list"),
    (_trivial_irrep_json(**{"1": 5}), "irreps JSON[0] field '1' is a int, expected list"),
    (_trivial_irrep_json(**{"2": ["a", 0]}),
     "irreps JSON[0] element 2 must be [re, im] number pairs"),
    (_trivial_irrep_json(**{"2": [True, 0]}),
     "irreps JSON[0] element 2 must be [re, im] number pairs"),
    (_trivial_irrep_json(**{"3": [1, 0, 0]}),
     "irreps JSON[0] element 3 must be [re, im] number pairs"),
    (_trivial_irrep_json(**{"4": [1, 0, 0, 0]}), "irreps JSON[0] element 4 matrix is not square"),
    (_trivial_irrep_json(**{"x": [1, 0]}), "irreps JSON[0] key 'x' is not an element index 0..5"),
], ids=["key-out-of-range", "top-level-object", "entry-is-list", "matrix-not-list",
        "entry-not-number", "entry-bool", "odd-length", "not-square", "key-not-int"])
def test_representations_from_json_rejects_malformed_input(data, message):
    group, _, _ = s3_group_and_irreps()
    with pytest.raises(VoltliftError) as err:
        representations_from_json(group, data)
    assert str(err.value) == message


def test_representations_from_json_rejects_negative_keys():
    group, _, _ = s3_group_and_irreps()
    # all six keys are present once "-1" stands for element 5
    data = _trivial_irrep_json()
    data[0]["-1"] = data[0].pop("5")
    with pytest.raises(VoltliftError, match="key '-1' is not an element index"):
        representations_from_json(group, data)
    (rho,) = representations_from_json(group, _trivial_irrep_json())
    assert check_representation(group, rho).passed


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
], ids=["generic-float", "generic-str", "abelian-float-coordinate", "abelian-float",
        "abelian-str", "abelian-none"])
def test_element_rejects_non_integer_coordinates(group, value, message):
    with pytest.raises(VoltliftError) as err:
        group.element(value)
    assert str(err.value) == message


def test_element_accepts_numpy_integers():
    el = Z5.element(np.int64(3))
    assert el == Z5.element(3) and type(el.key[0]) is int
    assert Z33.element(np.array([1, 5])) == Z33.element((1, 2))
    assert Z33.element((np.int32(4), np.uint8(2))).key == (1, 2)
    assert G3.element(np.int64(2)).key == 2 and type(G3.element(np.int64(2)).key) is int
    with pytest.raises(VoltliftError, match="needs 2 coordinates"):
        Z33.element(np.int64(1))
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


def _old_character_values(group, index):
    """Character(group, index).values() of the removed Character class, with
    the group's table of roots computed as _unit_roots computed it."""
    index = group.element(index).key
    period = math.lcm(*group.orders)
    roots = np.array([complex(1.0)]
                     + [cmath.exp(2j * math.pi * (p / period)) for p in range(1, period)],
                     dtype=complex)
    coords = np.unravel_index(np.arange(group.size), group.orders)
    phases = sum(c * (j * (period // n))
                 for c, j, n in zip(coords, index, group.orders)) % period
    return roots[phases]


@pytest.mark.parametrize("orders", [(1,), (101,), (4, 6), (2, 2, 2, 2), (6, 10, 15)])
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
    for g in rho.group.elements():
        mg = rho.matrix(g)
        uni_err = max(uni_err, float(np.abs(mg @ mg.conj().T - eye).max()))
        for h in rho.group.elements():
            err = np.abs(rho.matrix(g * h) - mg @ rho.matrix(h)).max()
            hom_err = max(hom_err, float(err))
    return hom_err, uni_err


def _check_cases():
    d7 = dihedral_group(7)
    irreps = dihedral_irreps(d7, 7)
    standard = dict(zip(d7.elements(), irreps[2].matrices))
    perturbed = dict(standard)
    perturbed[d7.element(3)] = perturbed[d7.element(3)] * np.exp(0.1j)
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
