"""Finite groups, characters, and unitary representations.

Groups come in two flavours: :class:`AbelianGroup` (a direct product of
cyclic factors, elements stored as normalized residue tuples) and
:class:`GenericGroup` (an arbitrary finite group given by its multiplication
table, elements stored as table indices).  Both enumerate their elements in a
fixed canonical order, which fixes every matrix built downstream.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import IncompleteRepresentation, MismatchedGroups, VoltliftError

EXHAUSTIVE_ASSOC_LIMIT = 64
ASSOC_SAMPLES = 10_000


class GroupElement:
    """An element of a finite group; immutable and hashable.

    ``key`` is a residue tuple for abelian groups and a table index for
    generic groups.  Elements multiply with ``*`` and invert with
    ``.inverse()``; mixing parents raises :class:`MismatchedGroups`.
    """

    __slots__ = ("group", "key")

    def __init__(self, group, key):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.op(self, other)

    def inverse(self) -> "GroupElement":
        return self.group.inv(self)

    @property
    def index(self) -> int:
        return self.group.index_of(self)

    @property
    def is_identity(self) -> bool:
        return self == self.group.identity

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.group, self.key))

    def __lt__(self, other: "GroupElement") -> bool:
        _require_same_group(self.group, other.group)
        return self.index < other.index

    def __repr__(self) -> str:
        return f"{self.group.name}:{self.key}"


def _require_same_group(a, b):
    if a != b:
        raise MismatchedGroups(f"elements of {a!r} and {b!r} cannot be combined")


class AbelianGroup:
    """Z_{n1} x ... x Z_{nr} with componentwise addition of residues."""

    def __init__(self, *orders: int):
        if len(orders) == 1 and isinstance(orders[0], (tuple, list)):
            orders = tuple(orders[0])
        if not orders:
            raise VoltliftError("abelian group needs at least one cyclic factor")
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise VoltliftError(f"cyclic orders must be >= 1, got {orders}")
        self.orders = orders
        self.rank = len(orders)
        self.size = math.prod(orders)
        # strides for the mixed-radix index of a residue tuple
        strides = []
        acc = 1
        for n in reversed(orders):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))
        self._elements: tuple[GroupElement, ...] | None = None

    is_abelian = True

    @property
    def name(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)

    def element(self, coords) -> GroupElement:
        """Coerce an int (rank 1), a coordinate sequence, or an element."""
        if isinstance(coords, GroupElement):
            _require_same_group(coords.group, self)
            return coords
        if isinstance(coords, int):
            if self.rank != 1:
                raise VoltliftError(f"{self.name} element needs {self.rank} coordinates")
            coords = (coords,)
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise VoltliftError(f"{self.name} element needs {self.rank} coordinates")
        return GroupElement(self, tuple(c % n for c, n in zip(coords, self.orders)))

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank)

    def elements(self) -> tuple[GroupElement, ...]:
        """All elements in lexicographic coordinate order."""
        if self._elements is None:
            self._elements = tuple(
                GroupElement(self, key)
                for key in itertools.product(*(range(n) for n in self.orders))
            )
        return self._elements

    def index_of(self, el: GroupElement) -> int:
        _require_same_group(el.group, self)
        return sum(c * s for c, s in zip(el.key, self._strides))

    def right_columns(self, idx) -> np.ndarray:
        """Array of shape (|G|,) + idx.shape: entry [a, ...] is
        index(elements[a] * elements[idx[...]]), added one cyclic factor at a time."""
        idx = np.asarray(idx, dtype=np.intp)
        coords = np.unravel_index(np.arange(self.size), self.orders)
        out = np.zeros((self.size,) + idx.shape, dtype=np.intp)
        for c, n, stride in zip(coords, self.orders, self._strides):
            out += ((c.reshape((-1,) + (1,) * idx.ndim) + c[idx]) % n) * stride
        return out

    def op(self, a: GroupElement, b: GroupElement) -> GroupElement:
        _require_same_group(a.group, self)
        _require_same_group(b.group, self)
        return GroupElement(
            self, tuple((x + y) % n for x, y, n in zip(a.key, b.key, self.orders))
        )

    def inv(self, a: GroupElement) -> GroupElement:
        _require_same_group(a.group, self)
        return GroupElement(self, tuple((-x) % n for x, n in zip(a.key, self.orders)))

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(("AbelianGroup", self.orders))

    def __repr__(self) -> str:
        return f"AbelianGroup{self.orders}"

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}


class GenericGroup:
    """A finite group given by a row-major multiplication table of indices.

    The table is validated at construction: it must be a Latin square with a
    two-sided identity and consistent inverses.  Associativity is checked
    exhaustively up to order 64 and on 10^4 pseudo-random triples above that.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str | None = None):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise VoltliftError("multiplication table must be square and non-empty")
        full = frozenset(range(n))
        for row in table:
            if frozenset(row) != full:
                raise VoltliftError("multiplication table is not a Latin square (row)")
        for j in range(n):
            if frozenset(table[i][j] for i in range(n)) != full:
                raise VoltliftError("multiplication table is not a Latin square (column)")
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise VoltliftError("multiplication table has no two-sided identity")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == identity:
                    if table[b][a] != identity:
                        raise VoltliftError("one-sided inverse found; table inconsistent")
                    inverse[a] = b
                    break
        self._table = table
        self.size = n
        self._identity_index = identity
        self._inverse = tuple(inverse)
        self._name = name or f"G{n}"
        self._check_associativity()
        self._elements = tuple(GroupElement(self, i) for i in range(n))
        self._is_abelian: bool | None = None
        self._array = np.array(table, dtype=np.intp)

    def _check_associativity(self):
        n = self.size
        t = self._table
        if n <= EXHAUSTIVE_ASSOC_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(0xA55)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(ASSOC_SAMPLES)
            )
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise VoltliftError(f"table is not associative at ({a},{b},{c})")

    @property
    def name(self) -> str:
        return self._name

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            t = self._table
            self._is_abelian = all(
                t[a][b] == t[b][a] for a in range(self.size) for b in range(a)
            )
        return self._is_abelian

    def element(self, index) -> GroupElement:
        if isinstance(index, GroupElement):
            _require_same_group(index.group, self)
            return index
        index = int(index)
        if not 0 <= index < self.size:
            raise VoltliftError(f"element index {index} out of range for {self.name}")
        return GroupElement(self, index)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity_index)

    def elements(self) -> tuple[GroupElement, ...]:
        return self._elements

    def index_of(self, el: GroupElement) -> int:
        _require_same_group(el.group, self)
        return el.key

    def right_columns(self, idx) -> np.ndarray:
        """Array of shape (|G|,) + idx.shape: entry [a, ...] is
        index(elements[a] * elements[idx[...]]), read from the table."""
        return self._array[:, np.asarray(idx, dtype=np.intp)]

    def op(self, a: GroupElement, b: GroupElement) -> GroupElement:
        _require_same_group(a.group, self)
        _require_same_group(b.group, self)
        return GroupElement(self, self._table[a.key][b.key])

    def inv(self, a: GroupElement) -> GroupElement:
        _require_same_group(a.group, self)
        return GroupElement(self, self._inverse[a.key])

    @classmethod
    def from_group(cls, group, name: str | None = None) -> "GenericGroup":
        """Tabulate any group object exposing elements()/op()."""
        els = group.elements()
        index = {el: i for i, el in enumerate(els)}
        table = [[index[group.op(a, b)] for b in els] for a in els]
        return cls(table, name=name or group.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, GenericGroup) and self._table == other._table

    def __hash__(self) -> int:
        return hash(("GenericGroup", self._table))

    def __repr__(self) -> str:
        return f"GenericGroup({self.name}, order {self.size})"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "table": [x for row in self._table for x in row],
            "name": self._name,
        }


def group_from_json(data: Mapping) -> AbelianGroup | GenericGroup:
    """Rebuild a group from its JSON form ({"orders": ...} or {"size","table"})."""
    if "orders" in data:
        return AbelianGroup(*data["orders"])
    if "table" in data:
        n = int(data["size"])
        flat = list(data["table"])
        if len(flat) != n * n:
            raise VoltliftError("generic group table has wrong length")
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        return GenericGroup(rows, name=data.get("name"))
    raise VoltliftError("unrecognized group JSON (need 'orders' or 'size'+'table')")


class Character:
    """A character of an abelian group, indexed by (j1, ..., jr).

    chi(g) = exp(2*pi*i * sum_k j_k g_k / n_k).  With L = lcm(n_1, ..., n_r)
    the phase is the exact integer p = sum_k j_k g_k (L / n_k) mod L, and one
    complex exponential of the correctly rounded p / L gives the value.
    """

    __slots__ = ("group", "index", "_period", "_values")

    def __init__(self, group: AbelianGroup, index):
        if not isinstance(group, AbelianGroup):
            raise VoltliftError("characters are defined for abelian groups only")
        el = group.element(index)  # reuse normalization/validation
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "index", el.key)
        object.__setattr__(self, "_period", math.lcm(*group.orders))
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError("Character is immutable")

    @property
    def is_trivial(self) -> bool:
        return all(j == 0 for j in self.index)

    def __call__(self, el: GroupElement) -> complex:
        _require_same_group(el.group, self.group)
        period = self._period
        phase = sum(j * g * (period // n)
                    for j, g, n in zip(self.index, el.key, self.group.orders)) % period
        if phase == 0:
            return complex(1.0)
        return cmath.exp(2j * math.pi * (phase / period))

    def values(self) -> np.ndarray:
        """chi evaluated on all group elements, in enumeration order."""
        if self._values is None:
            vals = np.array([self(g) for g in self.group.elements()], dtype=complex)
            object.__setattr__(self, "_values", vals)
        return self._values

    def inverse(self) -> "Character":
        return Character(
            self.group, tuple((-j) % n for j, n in zip(self.index, self.group.orders))
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.group, self.index))

    def __repr__(self) -> str:
        return f"Character{self.index} of {self.group.name}"


def enumerate_characters(group: AbelianGroup) -> list[Character]:
    """All |G| characters in lexicographic index order; trivial comes first."""
    if not isinstance(group, AbelianGroup):
        raise VoltliftError("characters are defined for abelian groups only")
    return [
        Character(group, idx)
        for idx in itertools.product(*(range(n) for n in group.orders))
    ]


class Representation:
    """A map from group elements to complex d x d matrices.

    Matrices are stored aligned with the group's element enumeration.
    Irreducibility is trusted, never verified; see check_representation for
    the homomorphism/unitarity diagnostics.
    """

    def __init__(self, group, matrices: Mapping[GroupElement, np.ndarray]):
        els = group.elements()
        missing = [el for el in els if el not in matrices]
        if missing:
            raise IncompleteRepresentation(
                f"representation misses {len(missing)} element(s), e.g. {missing[0]!r}"
            )
        mats = []
        dim = None
        for el in els:
            m = np.asarray(matrices[el], dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise VoltliftError("representation matrices must be square")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise VoltliftError("representation matrices have mixed dimensions")
            mats.append(m)
        self.group = group
        self.dimension = int(dim)
        self._matrices = tuple(mats)

    @classmethod
    def from_character(cls, chi: Character) -> "Representation":
        return cls(
            chi.group,
            {g: np.array([[chi(g)]], dtype=complex) for g in chi.group.elements()},
        )

    @classmethod
    def trivial(cls, group) -> "Representation":
        return cls(group, {g: np.eye(1, dtype=complex) for g in group.elements()})

    def matrix(self, el: GroupElement) -> np.ndarray:
        _require_same_group(el.group, self.group)
        return self._matrices[self.group.index_of(el)]


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
    """Verify rho(gh) = rho(g)rho(h) and unitarity of every rho(g).

    Irreducibility is NOT checked; use irreps_completeness_defect for the
    sum-of-squares diagnostic.
    """
    _require_same_group(rho.group, group)
    eye = np.eye(rho.dimension)
    hom_err = 0.0
    uni_err = 0.0
    for g in group.elements():
        mg = rho.matrix(g)
        uni_err = max(uni_err, float(np.abs(mg @ mg.conj().T - eye).max()))
        for h in group.elements():
            err = np.abs(rho.matrix(g * h) - mg @ rho.matrix(h)).max()
            hom_err = max(hom_err, float(err))
    return RepresentationReport(hom_err, uni_err, tol)


def irreps_completeness_defect(group, reps: Iterable[Representation]) -> int:
    """sum(d_rho^2) - |G|; zero for a complete list of irreducibles."""
    return sum(r.dimension**2 for r in reps) - group.size


def representations_from_json(group, data) -> list[Representation]:
    """Parse a JSON list of {element index -> flattened [re, im, ...] matrix}."""
    reps = []
    for entry in data:
        mats = {}
        for key, flat in entry.items():
            el = group.elements()[int(key)]
            flat = list(flat)
            if len(flat) % 2 != 0:
                raise VoltliftError("matrix entries must be [re, im] pairs")
            values = [complex(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
            d = math.isqrt(len(values))
            if d * d != len(values):
                raise VoltliftError("flattened representation matrix is not square")
            mats[el] = np.array(values, dtype=complex).reshape(d, d)
        reps.append(Representation(group, mats))
    return reps


def representations_to_json(reps: Iterable[Representation]) -> list:
    out = []
    for rep in reps:
        entry = {}
        for i, el in enumerate(rep.group.elements()):
            m = rep.matrix(el).reshape(-1)
            entry[str(i)] = [x for v in m for x in (float(v.real), float(v.imag))]
        out.append(entry)
    return out
