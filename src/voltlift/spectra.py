"""Dense eigencomputation, spectrum assembly, and closed-form spectra.

Eigenvalues come from LAPACK via numpy, with the routine chosen by the
input's dtype.  Real input (integers included) is solved in float64 and
complex input in complex128; there is no value-based downcast.  Within
either type, Hermitian input (symmetric when real, detected within 1e-12)
takes the symmetric solver and returns reals; everything else goes through
the general solver of that type, whose non-real eigenvalues of a real
matrix come in exact conjugate pairs.  Spectra are multisets grouped into
(value, multiplicity) pairs at an absolute tolerance and sorted by real part
descending, imaginary part ascending, so output files are reproducible
bit-for-bit.

A character is its index tuple j, in the group's element order, and the
base matrix at it scatters ``group.character_values(j)`` over the term
arrays.  Arc counts and universal coefficients are real, so the base matrix
at the conjugate character chi-bar (index -j) is the entrywise conjugate of
the one at chi, and so is its spectrum.  The character route therefore
solves one matrix per conjugate pair {chi, chi-bar}, the one whose character
comes first in enumeration order, and gives its partner the conjugated
eigenvalues.  A self-conjugate character (2 j_k = 0 mod n_k in every
factor) takes only the values +-1, so the real part of its matrix is solved
with the real solvers.  Per-irrep eigenproblems are solved one after
another, in irrep list order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    BLOCK_ENTRIES,
    AbelianGroup,
    Representation,
    _integer,
    enumerate_characters,
    irreps_completeness_defect,
)
from .errors import (
    CompletenessWarning,
    DimensionTooLarge,
    IncompleteIrreps,
    KOutOfRange,
    NoConvergence,
    NonAbelianGroup,
    NotRegularSpectrum,
    VoltliftError,
)
from .graphs import Digraph, Graph, UniversalCoefficients
from .voltage import VoltageGraph

MAX_DIMENSION = 4096
HERMITIAN_TOL = 1e-12
DEFAULT_GROUPING_TOL = 1e-6
RESIDUAL_TOL = 1e-8

# (character index tuple, eigenvalues of the matrix at it), in character
# enumeration order
CharacterSpectra = list[tuple[tuple[int, ...], np.ndarray]]


class Spectrum:
    """A multiset of complex eigenvalues grouped into multiplicities."""

    def __init__(self, pairs: Sequence[tuple[complex, int]], grouping_tol: float):
        self.pairs = tuple(
            sorted(((complex(v), int(m)) for v, m in pairs),
                   key=lambda p: (-p[0].real, p[0].imag))
        )
        self.grouping_tol = grouping_tol
        if any(m < 1 for _, m in self.pairs):
            raise VoltliftError("multiplicities must be >= 1")

    @classmethod
    def group(cls, values: Iterable[complex],
              tol: float = DEFAULT_GROUPING_TOL) -> "Spectrum":
        """Cluster raw eigenvalues closer than tol into multiplicity groups."""
        ordered = sorted((complex(v) for v in values),
                         key=lambda v: (-v.real, v.imag))
        # running [sum, count] per cluster; the sum adds left to right from
        # 0 as sum() does, so each mean is the cluster's sum() / len()
        clusters: list[list] = []
        for v in ordered:
            if clusters and abs(v - clusters[-1][0] / clusters[-1][1]) <= tol:
                clusters[-1][0] += v
                clusters[-1][1] += 1
            else:
                clusters.append([0 + v, 1])
        return cls([(total / count, count) for total, count in clusters], tol)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[complex, int]],
                   tol: float = DEFAULT_GROUPING_TOL) -> "Spectrum":
        values = []
        for v, m in pairs:
            values.extend([complex(v)] * int(m))
        return cls.group(values, tol)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.pairs)

    def expand(self) -> list[complex]:
        out = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return out

    def min_real(self) -> float:
        return min(v.real for v, _ in self.pairs)

    def max_real(self) -> float:
        return max(v.real for v, _ in self.pairs)

    def to_csv(self) -> str:
        lines = ["re,im,multiplicity"]
        for v, m in self.pairs:
            lines.append(f"{_fmt(v.real)},{_fmt(v.imag)},{m}")
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        cells = []
        for v, m in self.pairs:
            body = _fmt_value(v)
            cells.append(body if m == 1 else f"{body}^[{m}]")
        return "{" + ", ".join(cells) + "}"

    def __repr__(self) -> str:
        return f"Spectrum({self})"

    def __len__(self) -> int:
        return len(self.pairs)


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


def character_spectra(vg: VoltageGraph,
                      coeffs: UniversalCoefficients | None = None
                      ) -> CharacterSpectra:
    """(character index tuple j, eigenvalues) in character enumeration order.

    Only the first character of each conjugate pair is solved; its partner
    gets the conjugate eigenvalues.  Self-conjugate characters are solved
    on the real part of their matrix.
    """
    if not isinstance(vg.group, AbelianGroup):
        raise NonAbelianGroup("character spectra need an abelian group; use rep_spectrum")
    characters = enumerate_characters(vg.group)
    # characters and elements share their enumeration, so the inverse
    # table of the group pairs each character with its conjugate
    conjugate = vg.group.inverse_indices()
    spectra: list[np.ndarray] = []
    for i, j in enumerate(characters):
        partner = int(conjugate[i])
        if partner < i:
            spectra.append(np.conj(spectra[partner]))
            continue
        matrix = vg.character_matrix(j, coeffs)
        spectra.append(eigenvalues(matrix.real if partner == i else matrix))
    return list(zip(characters, spectra))


def lift_spectrum(vg: VoltageGraph,
                  coeffs: UniversalCoefficients | None = None,
                  spectra: CharacterSpectra | None = None
                  ) -> Spectrum:
    """Spectrum of the lift as the union of base-matrix spectra over all
    characters; |V(base)| * |Gamma| eigenvalues in total.  ``spectra`` is
    ``character_spectra(vg, coeffs)`` when the caller already has it."""
    if spectra is None:
        spectra = character_spectra(vg, coeffs)
    values: list[complex] = []
    for _, vals in spectra:
        values.extend(vals)
    return Spectrum.group(values)


def rep_spectrum(vg: VoltageGraph, irreps: Sequence[Representation]) -> Spectrum:
    """Union over irreps rho of d_rho copies of spec(rho applied to the base
    matrix); with a complete irrep list this is the lift spectrum."""
    defect = irreps_completeness_defect(vg.group, irreps)
    if defect != 0:
        warnings.warn(
            f"sum of squared irrep dimensions differs from |group| by {defect}",
            CompletenessWarning,
            stacklevel=2,
        )
    base = vg.base_matrix()
    values: list[complex] = []
    for rho in irreps:
        vals = eigenvalues(base.apply_representation(rho))
        for _ in range(rho.dimension):
            values.extend(vals)
    expected = vg.n * vg.group.size
    if len(values) != expected:
        raise IncompleteIrreps(
            f"irreps yield {len(values)} eigenvalues, expected {expected}"
        )
    return Spectrum.group(values)


def direct_spectrum(graph: Graph | Digraph,
                    coeffs: UniversalCoefficients | None = None) -> Spectrum:
    """Brute-force spectrum of the universal matrix (adjacency by default)."""
    coeffs = coeffs or UniversalCoefficients.adjacency()
    if graph.n > MAX_DIMENSION:
        raise DimensionTooLarge(f"{graph.n} vertices exceed the {MAX_DIMENSION} cap")
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


def _expand(values) -> list[complex]:
    if isinstance(values, Spectrum):
        return values.expand()
    return [complex(v) for v in values]


def _block_pairing_distance(x: np.ndarray, y: np.ndarray, tol: float) -> float:
    """Largest distance of the block pairing of two equal-sized arrays.

    Both arrays are pooled and cut wherever the sorted real parts jump by
    more than tol; no pair within tol can straddle such a cut.  When every
    block holds as many values of x as of y, each side is sorted by (block,
    imag, real) and paired position by position.  Otherwise no pairing
    within tol exists and the result is inf.
    """
    n = x.size
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled.real, kind="stable")
    block = np.empty(2 * n, dtype=np.intp)
    block[order] = np.concatenate(([0], np.cumsum(np.diff(pooled.real[order]) > tol)))
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
    decides, so a failure reports that distance.
    """
    xs, ys = _expand(a), _expand(b)
    if len(xs) != len(ys):
        return MultisetComparison(False, math.inf)
    if not xs:
        return MultisetComparison(True, 0.0)
    dist = _block_pairing_distance(np.array(xs, dtype=complex),
                                   np.array(ys, dtype=complex), tol)
    if dist <= tol:
        return MultisetComparison(True, dist)
    from scipy.optimize import linear_sum_assignment

    key = lambda v: (v.real, v.imag)
    xs_sorted = sorted(xs, key=key)
    ys_sorted = sorted(ys, key=key)
    cost = np.abs(np.subtract.outer(np.array(xs_sorted), np.array(ys_sorted)))
    rows, cols = linear_sum_assignment(cost)
    dist = float(cost[rows, cols].max())
    return MultisetComparison(dist <= tol, dist)


def per_character_rows(vg: VoltageGraph,
                       coeffs: UniversalCoefficients | None = None,
                       spectra: CharacterSpectra | None = None
                       ) -> list[tuple[tuple[tuple[int, ...], ...], list[complex]]]:
    """Table rows grouping each character with its inverse (conjugate).

    Each row is (character indices sharing the row, eigenvalues of the first
    character's matrix sorted real-descending).  Directed voltage graphs get
    one row per character: there the chi-bar row holds the conjugates of the
    chi row, in general a different multiset.  ``spectra`` is as in
    :func:`lift_spectrum`.
    """
    if spectra is None:
        spectra = character_spectra(vg, coeffs)
    conjugate = vg.group.inverse_indices()
    rows = []
    for i, (j, vals) in enumerate(spectra):
        partner = int(conjugate[i])
        if vg.undirected and partner < i:
            continue
        indices = (j,)
        if vg.undirected and partner != i:
            indices += (spectra[partner][0],)
        ordered = sorted((complex(v) for v in vals), key=lambda v: (-v.real, v.imag))
        rows.append((indices, ordered))
    return rows


def per_character_csv(vg: VoltageGraph,
                      coeffs: UniversalCoefficients | None = None,
                      spectra: CharacterSpectra | None = None) -> str:
    rows = per_character_rows(vg, coeffs, spectra)
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
