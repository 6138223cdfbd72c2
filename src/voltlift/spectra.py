"""Dense eigencomputation, spectrum assembly, and closed-form spectra.

Eigenvalues come from LAPACK via numpy, with the routine chosen by the
input's dtype.  Real input (integers included) is solved in float64 and
complex input in complex128; there is no value-based downcast.  Within
either type, Hermitian input (symmetric when real, detected within 1e-12)
takes the symmetric solver and returns reals; everything else goes through
the general solver of that type, whose non-real eigenvalues of a real matrix
come in exact conjugate pairs.  Spectra are multisets grouped into (value,
multiplicity) pairs by one rule at an absolute tolerance tol: sort by real
part and cut wherever consecutive values differ by more than tol, cut each
block the same way by imaginary part, and repeat until neither cut splits a
group.  The groups are the largest sets that no gap wider than tol splits in
either part, so they depend only on the multiset, not on its order or on the
route that computed it.  A group's value is its members added from 0 in
spectrum order (real part descending, imaginary part ascending), divided by
its size as Python divides a complex by an int, so output files are
reproducible bit-for-bit.

A character is its index tuple j, in the group's element order, and the
base matrix at it scatters ``group.character_values(j)`` over the term
arrays.  Arc counts and universal coefficients are real, so the base matrix
at the conjugate character chi-bar (index -j) is the entrywise conjugate of
the one at chi, and so is its spectrum.  A unit symmetry u of the voltage
graph (see ``voltage``) makes the matrix at u*j monomially similar to the
one at j, so the two spectra are equal.  The character route therefore
solves one matrix per orbit of the characters under the graph's checked
units and inversion, j -> +-u*j: the one whose character comes first in
enumeration order.  A unit image gets the same eigenvalues and an inverse
image the conjugated ones.  With no units, as for a graph read from JSON,
an orbit is a conjugate pair {chi, chi-bar}.  A self-conjugate character
(2 j_k = 0 mod n_k in every factor) takes only the values +-1, so the real
part of its matrix is solved with the real solvers; the units map it to
self-conjugate characters only.  Per-irrep eigenproblems are solved one
after another, in irrep list order.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    BLOCK_ENTRIES,
    AbelianGroup,
    Representation,
    enumerate_characters,
    irreps_completeness_defect,
)
from .errors import (
    DimensionTooLarge,
    IncompleteIrreps,
    KOutOfRange,
    NoConvergence,
    NonAbelianGroup,
    NotRegularSpectrum,
    VoltliftError,
)
from .graphs import Digraph, UniversalCoefficients, _integer
from .voltage import VoltageGraph

MAX_DIMENSION = 4096
HERMITIAN_TOL = 1e-12
DEFAULT_GROUPING_TOL = 1e-6
RESIDUAL_TOL = 1e-8

# (character index tuple, eigenvalues of the matrix at it), in character
# enumeration order
CharacterSpectra = list[tuple[tuple[int, ...], np.ndarray]]


def _checked_tol(tol, name: str = "tol") -> float:
    """tol, if it is a finite real number >= 0; else a VoltliftError naming
    it as `name`."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise VoltliftError(f"{name} must be a finite number >= 0, got {tol}")
    return tol


def _order(values: np.ndarray) -> np.ndarray:
    """Stable sort indices: real part descending, then imaginary part ascending."""
    return np.lexsort((values.imag, -values.real))


def _gap_cut(keys: np.ndarray, labels: np.ndarray, tol: float) -> np.ndarray:
    """Labels of the blocks left when each group of ``labels`` is cut where
    its sorted keys jump by more than tol, numbered in (label, key) order."""
    order = np.lexsort((keys, labels))
    cut = (np.diff(labels[order]) != 0) | (np.diff(keys[order]) > tol)
    out = np.empty(keys.size, dtype=np.intp)
    out[order] = np.concatenate(([0], np.cumsum(cut)))
    return out


def _gap_groups(values: np.ndarray, tol: float) -> np.ndarray:
    """Group labels of the grouping rule in the module docstring."""
    labels = np.zeros(values.size, dtype=np.intp)
    while True:
        split = _gap_cut(values.imag, _gap_cut(values.real, labels, tol), tol)
        # blocks are numbered in label order, so no split keeps every label
        if np.array_equal(split, labels):
            return labels
        labels = split


class Spectrum:
    """Grouped eigenvalues: a value array and a multiplicity array, in spectrum order."""

    def __init__(self, pairs: Sequence[tuple[complex, int]], grouping_tol: float):
        values = np.array([complex(v) for v, _ in pairs], dtype=complex)
        counts = np.array([_integer(m, "multiplicity") for _, m in pairs], dtype=np.intp)
        if (counts < 1).any():
            raise VoltliftError("multiplicities must be >= 1")
        order = _order(values)
        self._values, self._counts = values[order], counts[order]
        self.grouping_tol = _checked_tol(grouping_tol)

    @classmethod
    def group(cls, values: Iterable[complex],
              tol: float = DEFAULT_GROUPING_TOL) -> "Spectrum":
        """Group raw eigenvalues by the module's gap-cut rule at tol, a
        finite number >= 0."""
        tol = _checked_tol(tol)
        values = np.asarray(values if isinstance(values, np.ndarray) else list(values), complex)
        labels = _gap_groups(values, tol)
        order = _order(values)
        order = order[np.argsort(labels[order], kind="stable")]
        # summed from 0 in spectrum order, in Python: numpy changes last bits
        members = values[order].tolist()
        sizes = np.bincount(labels).tolist()
        return cls([(functools.reduce(operator.add, members[end - size:end], 0) / size, size)
                    for size, end in zip(sizes, np.cumsum(sizes).tolist())], tol)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[complex, int]],
                   tol: float = DEFAULT_GROUPING_TOL) -> "Spectrum":
        """Regroup (value, multiplicity) pairs; each multiplicity must be an
        integer >= 1."""
        return cls.group(cls(list(pairs), tol).expand(), tol)

    @property
    def pairs(self) -> tuple[tuple[complex, int], ...]:
        return tuple(zip(self._values.tolist(), self._counts.tolist()))

    @property
    def size(self) -> int:
        return int(self._counts.sum())

    def expand(self) -> list[complex]:
        return np.repeat(self._values, self._counts).tolist()

    def min_real(self) -> float:
        return float(self._values.real.min())

    def max_real(self) -> float:
        return float(self._values.real.max())

    def to_csv(self) -> str:
        rows = (f"{_fmt(v.real)},{_fmt(v.imag)},{m}" for v, m in self.pairs)
        return "\n".join(["re,im,multiplicity", *rows]) + "\n"

    def __str__(self) -> str:
        cells = (_fmt_value(v) + ("" if m == 1 else f"^[{m}]") for v, m in self.pairs)
        return "{" + ", ".join(cells) + "}"

    def __repr__(self) -> str:
        return f"Spectrum({self})"

    def __len__(self) -> int:
        return self._values.size


def _fmt(x: float) -> str:
    if x == 0:
        x = 0.0
    return f"{x:.12g}"


def _fmt_value(v: complex, digits: int = 6) -> str:
    if abs(v.imag) < 1e-9:
        return f"{v.real:.{digits}g}"
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.{digits}g}{sign}{abs(v.imag):.{digits}g}i"


def _check_square(matrix) -> np.ndarray:
    """The input as a square float64 array if real, complex128 otherwise."""
    matrix = np.asarray(matrix)
    matrix = matrix.astype(float if matrix.dtype.kind in "biuf" else complex, copy=False)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise VoltliftError(f"matrix must be square, got shape {matrix.shape}")
    if matrix.shape[0] > MAX_DIMENSION:
        raise DimensionTooLarge(
            f"dimension {matrix.shape[0]} exceeds the {MAX_DIMENSION} cap"
        )
    return matrix


def _block_width(n: int) -> int:
    """Rows or columns per block, so that a block holds about BLOCK_ENTRIES."""
    return max(1, BLOCK_ENTRIES // max(n, 1))


def _is_hermitian(matrix: np.ndarray) -> bool:
    """Whether max |matrix - matrix^H| <= HERMITIAN_TOL (NaN fails).

    Compared one block of rows at a time, so the temporaries are a few
    blocks, not whole n x n arrays; stops at the first block over the bound.
    """
    n = matrix.shape[0]
    step = _block_width(n)
    return all(
        np.abs(matrix[i : i + step] - matrix[:, i : i + step].conj().T).max(initial=0.0)
        <= HERMITIAN_TOL
        for i in range(0, n, step)
    )


def _max_residual(matrix: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """max |matrix @ vecs - vecs * vals|, one block of columns at a time."""
    n = matrix.shape[0]
    step = _block_width(n)
    return float(np.max([
        np.abs(matrix @ vecs[:, i : i + step] - vecs[:, i : i + step] * vals[i : i + step])
        .max(initial=0.0)
        for i in range(0, n, step)
    ], initial=0.0))


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity; real for Hermitian input.

    Real input takes the real solvers (``eigvalsh`` if symmetric, else
    ``eigvals``), complex input the complex ones.
    """
    matrix = _check_square(matrix)
    try:
        if _is_hermitian(matrix):
            return np.linalg.eigvalsh(matrix)
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def eigenpairs(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvector columns); residuals checked against 1e-8.

    The solver follows the input dtype as in :func:`eigenvalues`.
    """
    matrix = _check_square(matrix)
    try:
        if _is_hermitian(matrix):
            vals, vecs = np.linalg.eigh(matrix)
        else:
            vals, vecs = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    residual = _max_residual(matrix, vals, vecs)
    if residual > RESIDUAL_TOL:
        raise NoConvergence(f"eigenpair residual {residual:.2e} exceeds {RESIDUAL_TOL}")
    return vals, vecs


def _character_orbits(vg: VoltageGraph) -> tuple[list[int], list[bool]]:
    """For each character i: the first character of its orbit under the
    unit symmetries of vg and inversion, and whether i's spectrum is the
    conjugate of that character's.

    Characters and elements share their enumeration, so the inverse table
    and each unit's map g -> u*g act on characters as they act on elements.
    """
    group, m = vg.group, vg.group.size
    inverse = group.inverse_indices().tolist()
    units = group.indices([sym.unit for sym in vg.symmetries])
    maps = group.coordinate_products(units[:, None], np.arange(m)).tolist()
    first = [-1] * m
    conjugated = [False] * m
    for i in range(m):
        if first[i] >= 0:
            continue
        first[i] = i
        reached = [i]
        while reached:
            a = reached.pop()
            for b, flip in [(image[a], False) for image in maps] + [(inverse[a], True)]:
                if first[b] < 0:
                    first[b], conjugated[b] = i, conjugated[a] != flip
                    reached.append(b)
    return first, conjugated


def character_spectra(vg: VoltageGraph,
                      coeffs: UniversalCoefficients | None = None
                      ) -> CharacterSpectra:
    """(character index tuple j, eigenvalues) in character enumeration order.

    Only the first character of each orbit under the units of vg and
    inversion is solved; a unit image shares its eigenvalue array and an
    inverse image gets the conjugates.  Self-conjugate characters are
    solved on the real part of their matrix.
    """
    if not isinstance(vg.group, AbelianGroup):
        raise NonAbelianGroup("character spectra need an abelian group; use rep_spectrum")
    characters = enumerate_characters(vg.group)
    first, conjugated = _character_orbits(vg)
    inverse = vg.group.inverse_indices()
    spectra: list[np.ndarray] = []
    for i, j in enumerate(characters):
        if first[i] < i:
            solved = spectra[first[i]]
            spectra.append(np.conj(solved) if conjugated[i] else solved)
            continue
        matrix = vg.character_matrix(j, coeffs)
        spectra.append(eigenvalues(matrix.real if inverse[i] == i else matrix))
    return list(zip(characters, spectra))


def _union(spectra: CharacterSpectra) -> Spectrum:
    """All character spectra grouped as one multiset: the lift spectrum."""
    return Spectrum.group(np.concatenate([vals for _, vals in spectra]))


def lift_spectrum(vg: VoltageGraph,
                  coeffs: UniversalCoefficients | None = None) -> Spectrum:
    """Spectrum of the lift as the union of base-matrix spectra over all
    characters; |V(base)| * |Gamma| eigenvalues in total."""
    return _union(character_spectra(vg, coeffs))


def rep_spectrum(vg: VoltageGraph, irreps: Sequence[Representation]) -> Spectrum:
    """Union over irreps rho of d_rho copies of spec(rho applied to the base
    matrix); with a complete irrep list this is the lift spectrum.  A list
    whose squared dimensions do not sum to |group| raises IncompleteIrreps
    before any solve."""
    defect = irreps_completeness_defect(vg.group, irreps)
    if defect != 0:
        raise IncompleteIrreps(
            f"sum of squared irrep dimensions differs from |group| by {defect}")
    base = vg.base_matrix()
    return Spectrum.group(np.concatenate([
        np.tile(eigenvalues(base.apply_representation(rho)), rho.dimension)
        for rho in irreps]))


def _check_direct_size(vertices: int) -> None:
    """DimensionTooLarge for more vertices than the direct route solves."""
    if vertices > MAX_DIMENSION:
        raise DimensionTooLarge(f"{vertices} vertices exceed the {MAX_DIMENSION} cap")


def direct_spectrum(graph: Digraph,
                    coeffs: UniversalCoefficients | None = None) -> Spectrum:
    """Brute-force spectrum of the universal matrix (adjacency by default)."""
    coeffs = coeffs or UniversalCoefficients.adjacency()
    _check_direct_size(graph.n)
    return Spectrum.group(eigenvalues(graph.universal_matrix(coeffs)))


def johnson_spectrum(n: int, k: int) -> Spectrum:
    """Closed form for J(n, k): eigenvalue (k-j)(n-k-j) - j with multiplicity
    C(n,j) - C(n,j-1), for j = 0..k; requires 1 <= k <= n-k."""
    n, k = _integer(n, "vertex count"), _integer(k, "token count")
    if not 1 <= k <= n - k:
        raise KOutOfRange(f"johnson_spectrum needs 1 <= k <= n-k, got n={n}, k={k}")
    pairs = []
    for j in range(k + 1):
        value = (k - j) * (n - k - j) - j
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j >= 1 else 0)
        pairs.append((complex(value), mult))
    spectrum = Spectrum.from_pairs(pairs)
    assert spectrum.size == math.comb(n, k)
    return spectrum


def line_graph_spectrum_transform(spec_g: Spectrum, k: int, n: int, m: int) -> Spectrum:
    """Spectrum of L(G) from the spectrum of a k-regular G with n vertices
    and m edges: every eigenvalue shifts by k-2 and -2 gains multiplicity m-n."""
    if spec_g.size != n:
        raise NotRegularSpectrum(f"spectrum has {spec_g.size} values, expected n={n}")
    if 2 * m != n * k:
        raise NotRegularSpectrum(f"m={m} inconsistent with nk/2={n*k/2}")
    if m < n:
        raise NotRegularSpectrum("line-graph transform needs m >= n (k >= 2)")
    top = spec_g.max_real()
    if abs(top - k) > 1e-8 or any(abs(v.imag) > 1e-8 for v, _ in spec_g.pairs):
        raise NotRegularSpectrum(f"top eigenvalue {top} differs from degree {k}")
    pairs = [(v + (k - 2), mult) for v, mult in spec_g.pairs]
    if m > n:
        pairs.append((complex(-2), m - n))
    return Spectrum.from_pairs(pairs, spec_g.grouping_tol)


@dataclass(frozen=True)
class MultisetComparison:
    equal: bool
    max_distance: float

    def __bool__(self) -> bool:
        return self.equal


def _expand(values) -> np.ndarray:
    if isinstance(values, Spectrum):
        return np.repeat(values._values, values._counts)
    return np.asarray(values, dtype=complex)


def _block_pairing_distance(x: np.ndarray, y: np.ndarray, tol: float) -> float:
    """Largest distance of the block pairing of two equal-sized arrays.

    Both arrays are pooled and cut by the real-part gap cut of the grouping
    rule; no pair within tol can straddle such a cut.  When every
    block holds as many values of x as of y, each side is sorted by (block,
    imag, real) and paired position by position.  Otherwise no pairing
    within tol exists and the result is inf.
    """
    n = x.size
    pooled = np.concatenate([x, y])
    block = _gap_cut(pooled.real, np.zeros(2 * n, dtype=np.intp), tol)
    bx, by = block[:n], block[n:]
    blocks = int(block.max()) + 1
    if not np.array_equal(np.bincount(bx, minlength=blocks),
                          np.bincount(by, minlength=blocks)):
        return math.inf
    px = x[np.lexsort((x.real, x.imag, bx))]
    py = y[np.lexsort((y.real, y.imag, by))]
    return float(np.abs(px - py).max())


def multiset_equal(a, b, tol: float) -> MultisetComparison:
    """Compare two eigenvalue multisets at absolute tolerance tol.

    The first tier is the block pairing of :func:`_block_pairing_distance`:
    it accepts when that concrete pairing is within tol.  It settles real
    spectra and conjugate pairs whose real parts differ by rounding noise.
    Anything else goes to an optimal assignment, whose largest distance
    decides, so a failure reports that distance.  Multisets of different
    sizes, or holding a NaN or an infinity, are unequal at distance inf.
    tol must be a finite number >= 0.
    """
    tol = _checked_tol(tol)
    xs, ys = _expand(a), _expand(b)
    if xs.size != ys.size or not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return MultisetComparison(False, math.inf)
    if not xs.size:
        return MultisetComparison(True, 0.0)
    dist = _block_pairing_distance(xs, ys, tol)
    if dist <= tol:
        return MultisetComparison(True, dist)
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.subtract.outer(xs[np.lexsort((xs.imag, xs.real))],
                                    ys[np.lexsort((ys.imag, ys.real))]))
    rows, cols = linear_sum_assignment(cost)
    dist = float(cost[rows, cols].max())
    return MultisetComparison(dist <= tol, dist)


def per_character_rows(vg: VoltageGraph, spectra: CharacterSpectra | None = None
                       ) -> list[tuple[tuple[tuple[int, ...], ...], list[complex]]]:
    """Table rows grouping each character with its inverse (conjugate).

    Each row is (character indices sharing the row, eigenvalues of the first
    character's matrix sorted real-descending).  Directed voltage graphs get
    one row per character: there the chi-bar row holds the conjugates of the
    chi row, in general a different multiset.  ``spectra`` is
    ``character_spectra(vg, coeffs)`` for the matrix wanted, the adjacency
    matrix's by default.
    """
    if spectra is None:
        spectra = character_spectra(vg)
    conjugate = vg.group.inverse_indices()
    rows = []
    for i, (j, vals) in enumerate(spectra):
        partner = int(conjugate[i])
        if vg.undirected and partner < i:
            continue
        indices = (j,)
        if vg.undirected and partner != i:
            indices += (spectra[partner][0],)
        rows.append((indices, vals[_order(vals)].astype(complex).tolist()))
    return rows


def per_character_csv(vg: VoltageGraph, spectra: CharacterSpectra | None = None) -> str:
    rows = per_character_rows(vg, spectra)
    width = vg.n
    lines = ["characters," + ",".join(f"lambda_{i+1}" for i in range(width))]
    compact = isinstance(vg.group, AbelianGroup) and all(n <= 9 for n in vg.group.orders)
    for indices, vals in rows:
        if compact:
            label = "|".join("".join(str(j) for j in idx) for idx in indices)
        else:
            label = "|".join("-".join(str(j) for j in idx) for idx in indices)
        cells = []
        for v in vals:
            if abs(v.imag) < 1e-12:
                cells.append(_fmt(v.real))
            else:
                cells.append(f"{_fmt(v.real)}{'+' if v.imag >= 0 else '-'}{_fmt(abs(v.imag))}j")
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"
