"""Finite groups, characters, and unitary representations.

Groups come in two flavours: :class:`AbelianGroup` (a direct product of
cyclic factors, elements stored as normalized residue tuples) and
:class:`GenericGroup` (an arbitrary finite group given by its multiplication
table, elements stored as table indices).  Both enumerate their elements in a
fixed canonical order, which fixes every matrix built downstream.  A generic
group holds one read-only (n, n) index table, validated by array operations.
Cyclic orders, table entries and element coordinates are integers (anything
with __index__, numpy integers too); floats and strings are refused.

Inside the package an element is its index in that order: ``indices(keys)``
reads keys where input comes in and ``keys(indices)`` writes them where
output goes out, and the group law acts on index arrays.

A character of an abelian group is its index tuple j = (j1, ..., jr),
normalized as the residue tuple of an element; ``character_values(j, at)``
returns its values at the element indices ``at``, at every element by
default.  A representation holds one read-only (|G|, d, d) array of
matrices in element order.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (DimensionTooLarge, IncompleteRepresentation, MismatchedGroups,
                     NoConvergence, NonAbelianGroup, VoltliftError)
from .graphs import _integer, _json_field, _json_indices

# entries per block of the blocked array checks here, in orbits and in spectra
BLOCK_ENTRIES = 2**15
# the largest matrix the dense solvers take, here and in spectra
MAX_DIMENSION = 4096
# the seeds irreps tries in turn, and its eigenvalue cluster gap
IRREPS_SEEDS, IRREPS_CLUSTER_GAP = range(8), 1e-9


def _block_width(n: int) -> int:
    """Rows or columns per block, so that a block holds about BLOCK_ENTRIES."""
    return max(1, BLOCK_ENTRIES // max(n, 1))


class GroupElement:
    """A labelled element of a finite group; immutable and hashable.

    ``key`` is a residue tuple for abelian groups and a table index for
    generic groups.  Elements do no arithmetic: the group law works on
    element indices.
    """

    __slots__ = ("group", "key")

    def __init__(self, group, key):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.group, self.key))

    def __repr__(self) -> str:
        return f"{self.group.name}:{self.key}"


def _require_same_group(a, b):
    if a is not b and a != b:
        raise MismatchedGroups(f"elements of {a!r} and {b!r} cannot be combined")


class _Group:
    """What both kinds of group share: ``indices`` reads keys, each by the
    subclass's ``_key_index``; ``keys`` and ``elements`` write."""

    def elements(self) -> tuple[GroupElement, ...]:
        """All elements in enumeration order, made on first use."""
        return self._elements

    @cached_property
    def _elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self, key) for key in self.keys(np.arange(self.size)))

    def indices(self, keys) -> np.ndarray:
        """The intp array of element indices of keys or of this group's
        elements.  A one-dimensional integer ndarray holds element indices,
        the form the builders hand over, and is only range-checked."""
        if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu" and keys.ndim == 1:
            outside = keys[(keys < 0) | (keys >= self.size)]
            if outside.size:
                raise VoltliftError(f"element index {outside[0]} out of range for {self.name}")
            return keys.astype(np.intp)
        out = []
        for key in keys:
            if isinstance(key, GroupElement):
                _require_same_group(key.group, self)
                key = key.key
            out.append(self._key_index(key))
        return np.array(out, dtype=np.intp)

    def inverse_indices(self) -> np.ndarray:
        """Read-only array of shape (|G|,): entry a is index(elements[a]^-1)."""
        return self._inverse


class AbelianGroup(_Group):
    """Z_{n1} x ... x Z_{nr} with componentwise addition of residues."""

    def __init__(self, *orders: int):
        if len(orders) == 1 and isinstance(orders[0], (tuple, list)):
            orders = tuple(orders[0])
        if not orders:
            raise VoltliftError("abelian group needs at least one cyclic factor")
        orders = tuple(_integer(n, "cyclic order") for n in orders)
        if any(n < 1 for n in orders):
            raise VoltliftError(f"cyclic orders must be >= 1, got {orders}")
        self.orders = orders
        self.rank = len(orders)
        self.size = math.prod(orders)
        # strides for the mixed-radix index of a residue tuple
        self._strides = tuple(math.prod(orders[i + 1:]) for i in range(self.rank))

    is_abelian = True
    _identity_index = 0

    @property
    def name(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)

    def _key_index(self, key) -> int:
        """The index of a key: a sequence of integer coordinates, or one
        integer at rank 1, each reduced mod its order; integers are anything
        with __index__ but bool."""
        what = f"{self.name} element coordinate"
        coords = [_integer(c, what) for c in (key if hasattr(key, "__iter__") else (key,))]
        if len(coords) != self.rank:
            raise VoltliftError(f"{self.name} element needs {self.rank} coordinates")
        return sum(c % n * s for c, n, s in zip(coords, self.orders, self._strides))

    def keys(self, indices) -> list[tuple[int, ...]]:
        """The residue tuples of element indices: their mixed-radix digits."""
        digits = np.unravel_index(np.asarray(indices, dtype=np.intp), self.orders)
        return list(zip(*(d.tolist() for d in digits)))

    def index_of(self, el: GroupElement) -> int:
        _require_same_group(el.group, self)
        return sum(c * s for c, s in zip(el.key, self._strides))

    @cached_property
    def _coords(self) -> np.ndarray:
        """Read-only (rank, |G|) array; column a is elements[a]'s residue tuple."""
        coords = np.array(np.unravel_index(np.arange(self.size), self.orders), dtype=np.intp)
        coords.flags.writeable = False
        return coords

    @cached_property
    def _inverse(self) -> np.ndarray:
        """Read-only (|G|,) array: entry a is index(elements[a]^-1), negated
        one cyclic factor at a time."""
        inverse = self._index(-self._coords)
        inverse.flags.writeable = False
        return inverse

    def _index(self, coords) -> np.ndarray:
        """Element indices of the residue tuples coords[:, ...], reduced mod n_k."""
        return sum((c % n) * stride for c, n, stride in zip(coords, self.orders, self._strides))

    def products(self, a, b) -> np.ndarray:
        """index(elements[a] * elements[b]), elementwise over broadcast index arrays."""
        a, b = np.broadcast_arrays(a, b)
        return self._index(self._coords[:, a] + self._coords[:, b])

    def coordinate_products(self, a, b) -> np.ndarray:
        """Indices of the residue tuples (a_1*b_1, ..., a_r*b_r), elementwise
        over broadcast index arrays.  For a unit u (every u_k a unit mod
        n_k), b -> coordinate_products(u, b) is the automorphism g -> u*g,
        and it maps the character j to j o u = u*j as it maps elements."""
        a, b = np.broadcast_arrays(a, b)
        return self._index(self._coords[:, a] * self._coords[:, b])

    def units(self) -> np.ndarray:
        """Indices, in element order, of the elements whose every coordinate
        is a unit mod its order: the units u of coordinate_products."""
        coords = self._coords
        return np.flatnonzero(np.all([np.gcd(c, n) == 1 for c, n in zip(coords, self.orders)],
                                     axis=0))

    def character_values(self, j, at=None) -> np.ndarray:
        """Values of the character j at the element indices ``at``, or on all
        elements in enumeration order.

        chi_j(g) = exp(2*pi*i * sum_k j_k g_k / n_k); j is a key, as
        ``indices`` reads it.  With L = lcm(n_1, ..., n_r) the phase is the
        exact integer p = sum_k j_k g_k (L / n_k) mod L, and the value is
        exp(2*pi*i * (p / L)) of the correctly rounded p / L, so equal phases
        give equal values and p = 0 gives exactly 1.  Only the values at
        ``at`` are computed.
        """
        j = np.unravel_index(self.indices([j])[0], self.orders)
        coords = self._coords if at is None else np.unravel_index(at, self.orders)
        period = math.lcm(*self.orders)
        phases = sum(c * (jk * (period // n))
                     for c, jk, n in zip(coords, j, self.orders)) % period
        return np.exp(2j * np.pi * (phases / period))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, AbelianGroup)
                                 and self.orders == other.orders)

    def __hash__(self) -> int:
        return hash(("AbelianGroup", self.orders))

    def __repr__(self) -> str:
        return f"AbelianGroup{self.orders}"

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}


def _light_generators(t: np.ndarray, e: int) -> Iterator[int]:
    """Element indices g_1, g_2, ... of the Latin table t with identity e
    such that every element is a product (...((e g_i) g_j) ...) g_l of them:
    each is the least element not yet reached from e by right multiplication
    with the ones before it, yielded before the next is sought.  For a group
    each one at least doubles the subgroup reached, so there are at most
    log2(n) of them."""
    n = len(t)
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        yield gens[-1]
        new = np.flatnonzero(reached)
        while new.size:
            hit = np.zeros(n, dtype=bool)
            hit[t[np.ix_(new, gens)]] = True
            new = np.flatnonzero(hit & ~reached)
            reached |= hit


class GenericGroup(_Group):
    """A finite group given by a row-major multiplication table of indices.

    The group holds one read-only (n, n) intp table, its inverse array and
    its identity index.  Construction checks the table with array
    operations: Latin rows, then Latin columns, a two-sided identity and
    two-sided inverses.  Associativity, (ab)c = a(bc), is checked exactly
    for every order by Light's test (see ``_light_generators``).
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str | None = None):
        rows = [[_integer(x, "multiplication table entry") for x in row] for row in table]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise VoltliftError("multiplication table must be square and non-empty")
        full = np.arange(n)
        try:
            t = np.array(rows, dtype=np.intp)
            latin_rows = (np.sort(t, axis=1) == full).all()
        except OverflowError:  # an entry beyond intp is outside 0..n-1
            latin_rows = False
        if not latin_rows:
            raise VoltliftError("multiplication table is not a Latin square (row)")
        if not (np.sort(t, axis=0) == full[:, None]).all():
            raise VoltliftError("multiplication table is not a Latin square (column)")
        identity = np.flatnonzero((t == full).all(axis=1) & (t == full[:, None]).all(axis=0))
        if not identity.size:
            raise VoltliftError("multiplication table has no two-sided identity")
        e = int(identity[0])
        # a Latin row holds e exactly once; b with ab = e must also have ba = e
        inverse = np.argmax(t == e, axis=1)
        if (t[inverse, full] != e).any():
            raise VoltliftError("one-sided inverse found; table inconsistent")
        # Light's test: the c with (ab)c = a(bc) for all a, b are closed under
        # products, so checking c over a generating set covers every triple
        if any((t[:, g][t] != t[:, t[:, g]]).any() for g in _light_generators(t, e)):
            for a in range(n):  # the lexicographically first failing triple
                bad = np.argwhere(t[t[a]] != t[a][t])
                if len(bad):
                    b, c = bad[0]
                    raise VoltliftError(f"table is not associative at ({a},{b},{c})")
        t.flags.writeable = False
        inverse.flags.writeable = False
        self._table = t
        self._inverse = inverse
        self._identity_index = e
        self.size = n
        self._name = name or f"G{n}"
        self._hash = hash(t.tobytes())

    @property
    def name(self) -> str:
        return self._name

    @property
    def is_abelian(self) -> bool:
        return np.array_equal(self._table, self._table.T)

    def _key_index(self, key) -> int:
        """A key's index: the key, a table index (anything with __index__ but
        bool) in range."""
        index = _integer(key, f"{self.name} element coordinate")
        if not 0 <= index < self.size:
            raise VoltliftError(f"element index {index} out of range for {self.name}")
        return index

    def keys(self, indices) -> list[int]:
        """The keys of element indices: the indices, as ints."""
        return np.asarray(indices, dtype=np.intp).tolist()

    def index_of(self, el: GroupElement) -> int:
        _require_same_group(el.group, self)
        return el.key

    def products(self, a, b) -> np.ndarray:
        """index(elements[a] * elements[b]), elementwise over broadcast index arrays."""
        return self._table[a, b]

    def character_values(self, j, at=None):
        raise NonAbelianGroup("characters are defined for abelian groups only; "
                              "irreps(group) gives the irreducible representations")

    @classmethod
    def from_group(cls, group, name: str | None = None) -> "GenericGroup":
        """Tabulate any group object exposing size and products()."""
        return cls(group.products(*np.ogrid[:group.size, :group.size]), name=name or group.name)

    def __eq__(self, other) -> bool:
        # unequal cached hashes reject a different table without reading it
        return self is other or (isinstance(other, GenericGroup)
                                 and self._hash == other._hash
                                 and np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GenericGroup({self.name}, order {self.size})"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "table": self._table.ravel().tolist(),
            "name": self._name,
        }


def group_from_json(data: Mapping) -> AbelianGroup | GenericGroup:
    """Rebuild a group from its JSON form ({"orders": ...} or {"size","table"});
    a missing or ill-typed field raises a VoltliftError that names it."""
    what = "group JSON"
    if "orders" in data:
        orders = _json_field(data, "orders", (list,), what)
        return AbelianGroup(*_json_indices(orders, f"{what} orders"))
    if "table" in data:
        n = _json_field(data, "size", (int,), what)
        flat = _json_indices(_json_field(data, "table", (list,), what), f"{what} table")
        if len(flat) != n * n:
            raise VoltliftError("generic group table has wrong length")
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        return GenericGroup(rows, name=data.get("name"))
    raise VoltliftError("unrecognized group JSON (need 'orders' or 'size'+'table')")


def enumerate_characters(group: AbelianGroup) -> list[tuple[int, ...]]:
    """All |G| character index tuples in lexicographic order; trivial first.

    This is the group's element order, and chi_j-bar = chi_{-j}, so the
    conjugate of the i-th character is the ``group.inverse_indices()[i]``-th.
    """
    if not isinstance(group, AbelianGroup):
        raise NonAbelianGroup("characters are defined for abelian groups only")
    return group.keys(np.arange(group.size))


class Representation:
    """A map from group elements to complex d x d matrices.

    ``matrices`` is one read-only (|G|, d, d) array in the group's element
    enumeration order.  Irreducibility is trusted, never verified; see
    check_representation for the homomorphism/unitarity diagnostics.
    """

    def __init__(self, group, matrices: Mapping[GroupElement, np.ndarray]):
        for el in matrices:
            if not isinstance(el, GroupElement):
                raise VoltliftError(f"representation key {el!r} is not a group element")
        # each distinct group among the keys is compared with `group` once
        for key_group in {id(el.group): el.group for el in matrices}.values():
            _require_same_group(key_group, group)
        mats = dict(zip(group.indices([el.key for el in matrices]).tolist(), matrices.values()))
        missing = [i for i in range(group.size) if i not in mats]
        if missing:
            raise IncompleteRepresentation(f"representation misses {len(missing)} element(s), "
                                           f"e.g. {group.elements()[missing[0]]!r}")
        mats = [np.asarray(mats[i], dtype=complex) for i in range(group.size)]
        if any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats):
            raise VoltliftError("representation matrices must be square")
        if len({m.shape for m in mats}) > 1:
            raise VoltliftError("representation matrices have mixed dimensions")
        self._store(group, np.array(mats))

    def _store(self, group, matrices: np.ndarray):
        matrices.flags.writeable = False
        self.group, self.matrices, self.dimension = group, matrices, int(matrices.shape[-1])

    @classmethod
    def _from_array(cls, group, matrices: np.ndarray) -> "Representation":
        rep = cls.__new__(cls)
        rep._store(group, matrices)
        return rep

    @classmethod
    def from_character(cls, group, j) -> "Representation":
        """The one-dimensional representation g -> [[chi_j(g)]]."""
        return cls._from_array(group, group.character_values(j)[:, None, None])

    @classmethod
    def trivial(cls, group) -> "Representation":
        return cls._from_array(group, np.ones((group.size, 1, 1), dtype=complex))


class RepresentationReport:
    """Result of check_representation: max deviations plus a pass flag."""

    def __init__(self, homomorphism_error: float, unitarity_error: float, tol: float):
        self.homomorphism_error = homomorphism_error
        self.unitarity_error = unitarity_error
        self.tol = tol
        self.passed = homomorphism_error <= tol and unitarity_error <= tol

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"RepresentationReport({status}, hom={self.homomorphism_error:.2e}, "
            f"unitary={self.unitarity_error:.2e})"
        )


def check_representation(group, rho: Representation, tol: float = 1e-10) -> RepresentationReport:
    """Verify rho(gh) = rho(g)rho(h) and unitarity of every rho(g), over rho's
    own group: an equal copy passed as `group` is compared with it once.

    Irreducibility is NOT checked; use irreps_completeness_defect for the
    sum-of-squares diagnostic.
    """
    _require_same_group(rho.group, group)
    mats = rho.matrices
    n, d = mats.shape[:2]
    uni_err = float(np.abs(mats @ mats.conj().transpose(0, 2, 1) - np.eye(d)).max())
    # rho(g h) against rho(g) rho(h) for every g and a block of h at a time;
    # products[g, c] is index(g * h) for the block's c-th h
    step = _block_width(n * d * d)
    hom_errs = []
    for start in range(0, n, step):
        hs = np.arange(start, min(start + step, n))
        products = rho.group.products(np.arange(n)[:, None], hs)
        hom_errs.append(np.abs(mats[products] - mats[:, None] @ mats[hs]).max())
    return RepresentationReport(float(np.max(hom_errs)), uni_err, tol)


def irreps_completeness_defect(group, reps: Iterable[Representation]) -> int:
    """sum(d_rho^2) - |G|; zero for a complete list of irreducibles."""
    return sum(r.dimension**2 for r in reps) - group.size


def _restricted(v: np.ndarray, table: np.ndarray, spec: str) -> np.ndarray:
    """einsum(spec, conj(V), R(h) V) for every h, a block of h at a time;
    R(h) V is the row gather V[x*h] = V[table[:, h]]."""
    step = _block_width(v.size)
    return np.concatenate([np.einsum(spec, v.conj(), v[table[:, h:h + step]])
                           for h in range(0, len(table), step)])


def irreps(group) -> list[Representation]:
    """The irreducible unitary representations of group, one per character,
    from its multiplication table (Dixon, Math. Comp. 24 (1970)).

    A = sum_g c_g L(g) over the left regular representation, with random
    c(g^-1) = conj c(g) from a seed of IRREPS_SEEDS, is Hermitian and
    commutes with the right regular representation R(h) e_x = e_(x h^-1).
    Each eigenspace V of A, a cluster of eigenvalues at most
    IRREPS_CLUSTER_GAP apart, carries rho(h) = V^H R(h) V; its character is
    computed first, and rho is kept when that has norm 1 and is orthogonal
    to every kept one.  The list is accepted when irreps_completeness_defect
    is 0, else the next seed is tried; NoConvergence when none is left.  An
    order past MAX_DIMENSION raises DimensionTooLarge before any allocation.
    """
    n = group.size
    if n > MAX_DIMENSION:
        raise DimensionTooLarge(f"group order {n} exceeds the {MAX_DIMENSION} cap")
    elements = np.arange(n)
    table = group.products(elements[:, None], elements)
    for seed in IRREPS_SEEDS:
        x = [1, 1j] @ np.random.default_rng(seed).standard_normal((2, n))
        a = np.zeros((n, n), dtype=complex)
        # a[g*h, h] = c_g; eigenvalues of order 1, each cluster ~1e-15 wide
        a[table, elements] = (x + x[group.inverse_indices()].conj())[:, None] / (2 * math.sqrt(n))
        values, vectors = np.linalg.eigh(a)
        reps, characters = [], np.empty((0, n), dtype=complex)
        for v in np.split(vectors, np.flatnonzero(np.diff(values) > IRREPS_CLUSTER_GAP) + 1, 1):
            chi = _restricted(v, table, "xi,xhi->h")
            # norm 1, so irreducible, and orthogonal to every kept character
            if abs(np.vdot(chi, chi) - n) < n / 2 and (abs(characters.conj() @ chi) < n / 2).all():
                characters = np.vstack([characters, chi])
                matrices = _restricted(v, table, "xi,xhj->hij")
                reps.append(Representation._from_array(group, matrices))
                if irreps_completeness_defect(group, reps) == 0:
                    return reps
    raise NoConvergence(f"no seed of IRREPS_SEEDS gives all irreps of {group.name}")
