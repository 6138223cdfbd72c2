"""Seeded inputs, jobs and independent references for the benchmark workloads.

Each workload is a fixed list of instances.  The seed draws connection sets
and generator lists, never sizes, so every seed does the same amount of work
per job.  A job calls only the public ``voltlift`` API, looked up on the
package at call time so that the traced run sees wrapped functions.

References never come from ``voltlift``: they are closed forms, or
eigenvalues of adjacency matrices this module builds itself from the group
law.  They are computed after the timed loop, so their memory does not show
in the workload's peak RSS.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Any, Callable, Iterator

import numpy as np

import voltlift as vl

# eigenvalue agreement between a job and its reference
ORACLE_TOL = 1e-8
# agreement between two jobs of the same instance
REPEAT_TOL = 1e-9
# real parts further apart than this never pair at ORACLE_TOL, so the
# complex matching splits into independent blocks there
BLOCK_GAP = 1e-6
# the largest graph whose dense reference spectrum is computed
DENSE_CAP = 4096

# The first instance of each workload is its cold job in the set-up time;
# a small one keeps set-up cheap while still paying every lazy import.
# J(13,5) and J(15,4) are left out: their 1-3 s jobs leave too few samples
# per instance in one run on a shared 2-core machine.
JOHNSON = [(11, 3), (13, 4)]
CIRCULANT_LINEGRAPH = [(61, 12), (101, 6)]
CAYLEY = [((3, 3, 3), 2), ((13,), 4), ((19,), 3), ((7, 7), 2)]
DIRECTED_CYCLES = [(11, 3), (13, 4), (10, 3), (9, 4)]
DIRECTED_TORUS = ((5, 5), 2)
DIHEDRAL = [(7, 3), (11, 3), (13, 3), (17, 3)]


@dataclass
class Result:
    """A job's output reduced to arrays once its timing has stopped."""

    values: np.ndarray
    direct: np.ndarray | None = None
    problems: list[str] = field(default_factory=list)
    cluster_gap: int = 0
    pairing_distance: float = 0.0


@dataclass
class Reference:
    """Independent facts about the lifted matrix of one instance."""

    values: np.ndarray | None
    trace: float
    trace_sq: float
    real: bool


@dataclass
class Instance:
    label: str
    lift_vertices: int
    spec: dict
    job: Callable[[], Any]
    summarise: Callable[[Any], Result]
    reference: Callable[[], Reference]


@dataclass
class Workload:
    name: str
    seed: int
    instances: list[Instance]

    @property
    def input_hash(self) -> str:
        text = json.dumps([inst.spec for inst in self.instances], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- checking


def expanded(spectrum) -> np.ndarray:
    return np.array(spectrum.expand(), dtype=complex)


def match_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance in a best pairing of two eigenvalue multisets.

    Real multisets pair in sorted order, which is optimal.  Complex ones are
    cut into blocks wherever sorted real parts jump by more than BLOCK_GAP
    and each block is paired by optimal assignment.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    if max(np.abs(a.imag).max(), np.abs(b.imag).max()) <= ORACLE_TOL:
        return float(np.abs(np.sort(a.real) - np.sort(b.real)).max())
    from scipy.optimize import linear_sum_assignment

    values = np.concatenate([a, b])
    side = np.concatenate([np.zeros(a.size, bool), np.ones(b.size, bool)])
    order = np.argsort(values.real, kind="stable")
    cuts = np.flatnonzero(np.diff(values.real[order]) > BLOCK_GAP) + 1
    worst = 0.0
    for block in np.split(order, cuts):
        xs, ys = values[block[~side[block]]], values[block[side[block]]]
        if xs.size != ys.size:
            return math.inf
        cost = np.abs(np.subtract.outer(xs, ys))
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    return worst


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Two jobs of one instance agree within REPEAT_TOL."""
    if a.shape == b.shape and (a.size == 0 or np.abs(a - b).max() <= REPEAT_TOL):
        return True
    return match_distance(a, b) <= REPEAT_TOL


def check(inst: Instance, result: Result, ref: Reference) -> list[str]:
    """Problems of one result against its instance's reference."""
    vals = result.values
    problems = []
    if vals.size != inst.lift_vertices:
        return [f"{vals.size} eigenvalues, expected {inst.lift_vertices}"]
    scale = max(1.0, float(np.abs(vals).max()))
    if ref.real and np.abs(vals.imag).max() > ORACLE_TOL:
        problems.append(f"non-real eigenvalue, |Im| = {np.abs(vals.imag).max():.3g}")
    trace_gap = abs(vals.sum() - ref.trace)
    if trace_gap > 1e-9 * vals.size * scale:
        problems.append(f"sum of eigenvalues misses the trace by {trace_gap:.3g}")
    square_gap = abs((vals**2).sum() - ref.trace_sq)
    if square_gap > 1e-9 * vals.size * scale**2:
        problems.append(f"sum of squares misses tr(A^2) by {square_gap:.3g}")
    if ref.values is not None:
        for name, got in (("spectrum", vals), ("direct spectrum", result.direct)):
            if got is None:
                continue
            dist = match_distance(got, ref.values)
            if dist > ORACLE_TOL:
                problems.append(f"{name} differs from the reference by {dist:.3g}")
    return problems


def _reference_from_values(values, real: bool) -> Reference:
    values = np.asarray(values, dtype=complex)
    return Reference(values, float(values.sum().real), float((values**2).sum().real), real)


# ------------------------------------------------------ own token graphs


def token_reference(size: int, right: list[list[int]], k: int, directed: bool) -> Reference:
    """Reference for the k-token (di)graph of a Cayley (di)graph.

    ``right[x][i]`` is the index of x times the i-th generator.  A token on x
    moves to right[x][i] when that vertex is free.  Tokens never stay put, so
    the trace is 0; tr(A^2) counts closed 2-walks from the arc multiset.
    """
    configs = list(combinations(range(size), k))
    index = {c: i for i, c in enumerate(configs)}
    arcs: Counter = Counter()
    for i, config in enumerate(configs):
        occupied = set(config)
        for x in config:
            for y in right[x]:
                if y not in occupied:
                    arcs[i, index[tuple(sorted(occupied - {x} | {y}))]] += 1
    trace_sq = float(sum(c * arcs.get((j, i), 0) for (i, j), c in arcs.items()))
    if len(configs) > DENSE_CAP:
        return Reference(None, 0.0, trace_sq, not directed)
    adjacency = np.zeros((len(configs), len(configs)))
    for (i, j), c in arcs.items():
        adjacency[i, j] = c
    if directed:
        values = np.linalg.eigvals(adjacency)
    else:
        values = np.linalg.eigvalsh(adjacency)
    return Reference(values.astype(complex), 0.0, trace_sq, not directed)


def abelian_right(orders: tuple[int, ...], gens: list[tuple[int, ...]]) -> list[list[int]]:
    els = list(product(*(range(n) for n in orders)))
    index = {el: i for i, el in enumerate(els)}
    return [
        [index[tuple((x + s) % n for x, s, n in zip(el, g, orders))] for g in gens]
        for el in els
    ]


# ------------------------------------------------------------ seed draws


def _independent(rng: random.Random, orders: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """``count`` elements of Z_p^r (p prime) that are linearly independent."""
    p = orders[0]
    while True:
        vecs = [tuple(rng.randrange(p) for _ in orders) for _ in range(count)]
        span = {
            tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) % p for i in range(len(orders)))
            for coeffs in product(range(p), repeat=count)
        }
        if len(span) == p**count:
            return vecs


def _symmetric(orders: tuple[int, ...], gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    out = []
    for g in gens:
        out.extend([g, tuple((-x) % n for x, n in zip(g, orders))])
    return out


# ------------------------------------------------------- lift-undirected


def _lift_job(builder: str, args: tuple, coeffs) -> Callable[[], Any]:
    return lambda: vl.lift_spectrum(getattr(vl, builder)(*args), coeffs)


def _summarise_spectrum(spectrum) -> Result:
    return Result(expanded(spectrum))


def _johnson_reference(n: int, k: int, laplacian: bool) -> Reference:
    values = []
    for j in range(k + 1):
        theta = (k - j) * (n - k - j) - j
        mult = math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
        values.extend([k * (n - k) - theta if laplacian else theta] * mult)
    return _reference_from_values(values, True)


def _linegraph_reference(m: int, a: list[int], laplacian: bool) -> Reference:
    """L(Cay(Z_m; +-a)): circulant eigenvalues shifted by degree-2, plus -2
    with multiplicity |E| - |V|."""
    t = np.arange(m)[:, None]
    host = 2 * np.cos(2 * np.pi * t * np.asarray(a)[None, :] / m).sum(axis=1)
    degree = 2 * len(a)
    values = np.concatenate([host + degree - 2, np.full(m * len(a) - m, -2.0)])
    if laplacian:
        values = (2 * degree - 2) - values
    return _reference_from_values(values, True)


def lift_undirected(rng: random.Random) -> Iterator[Instance]:
    coeff_choices = [("adjacency", None), ("laplacian", vl.UniversalCoefficients.laplacian())]
    for n, k in JOHNSON:
        for coeff_name, coeffs in coeff_choices:
            laplacian = coeffs is not None
            yield Instance(
                label=f"J({n},{k}) {coeff_name}",
                lift_vertices=math.comb(n, k),
                spec={"base": "johnson", "n": n, "k": k, "coeffs": coeff_name},
                job=_lift_job("johnson_base", (n, k), coeffs),
                summarise=_summarise_spectrum,
                reference=functools.partial(_johnson_reference, n, k, laplacian),
            )
    for m, s in CIRCULANT_LINEGRAPH:
        a = sorted(rng.sample(range(1, (m - 1) // 2 + 1), s))
        for coeff_name, coeffs in coeff_choices:
            laplacian = coeffs is not None
            yield Instance(
                label=f"L(C{m}, s={s}) {coeff_name}",
                lift_vertices=m * s,
                spec={"base": "circulant_linegraph", "m": m, "a": a, "coeffs": coeff_name},
                job=_lift_job("circulant_linegraph_base", (m, a), coeffs),
                summarise=_summarise_spectrum,
                reference=functools.partial(_linegraph_reference, m, a, laplacian),
            )


# ----------------------------------------------- cayley- and digraph-verify


def _verify_job(group, gens, k: int, directed: bool) -> Callable[[], Any]:
    def job():
        vg = vl.token_base_graph(group, gens, k, directed=directed)
        lift = vl.lift_spectrum(vg)
        host = vl.cayley_graph(group, gens, directed=directed)
        target = vl.token_digraph(host, k) if directed else vl.token_graph(host, k)
        direct = vl.direct_spectrum(target)
        comparison = vl.multiset_equal(lift, direct, ORACLE_TOL)
        return lift, direct, comparison, vl.verify_natural_isomorphism(vg, target)

    return job


def _summarise_verify(raw) -> Result:
    lift, direct, comparison, iso = raw
    problems = []
    if not comparison.equal:
        problems.append(f"multiset_equal rejects lift vs direct ({comparison.max_distance:.3g})")
    if not iso.ok:
        problems.append(f"natural isomorphism fails: {iso.detail}")
    return Result(
        expanded(lift),
        direct=expanded(direct),
        problems=problems,
        cluster_gap=abs(len(lift) - len(direct)),
        pairing_distance=float(comparison.max_distance),
    )


def _abelian_verify_instance(orders, gens, k: int, directed: bool) -> Instance:
    group = vl.AbelianGroup(*orders)
    size = math.prod(orders)
    name = "x".join(f"Z{n}" for n in orders)
    return Instance(
        label=f"{name} k={k}{' directed' if directed else ''}",
        lift_vertices=math.comb(size, k),
        spec={"group": list(orders), "gens": [list(g) for g in gens], "k": k,
              "directed": directed},
        job=_verify_job(group, gens, k, directed),
        summarise=_summarise_verify,
        reference=functools.partial(token_reference, size, abelian_right(orders, gens), k,
                                    directed),
    )


def cayley_verify(rng: random.Random) -> Iterator[Instance]:
    for orders, k in CAYLEY:
        if len(orders) == 1:
            n = orders[0]
            gens = [(x,) for x in rng.sample(range(1, (n - 1) // 2 + 1), 2)]
        else:
            gens = _independent(rng, orders, len(orders))
        yield _abelian_verify_instance(orders, _symmetric(orders, gens), k, False)


def digraph_verify(rng: random.Random) -> Iterator[Instance]:
    for n, k in DIRECTED_CYCLES:
        unit = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        yield _abelian_verify_instance((n,), [(unit,)], k, True)
    orders, k = DIRECTED_TORUS
    yield _abelian_verify_instance(orders, _independent(rng, orders, 2), k, True)


# ---------------------------------------------------------- irreps-table


def dihedral_mul(n: int, x: int, y: int) -> int:
    """r^a s^b * r^c s^d = r^(a + (-1)^b c) s^(b+d); r^i s^j has index i + n*j."""
    a, b = x % n, x // n
    c, d = y % n, y // n
    return (a + (c if b == 0 else -c)) % n + n * ((b + d) % 2)


def dihedral_group(n: int):
    table = [[dihedral_mul(n, x, y) for y in range(2 * n)] for x in range(2 * n)]
    return vl.GenericGroup(table, name=f"D{n}")


def dihedral_irreps(group, n: int) -> list:
    """Trivial, sign and the (n-1)/2 two-dimensional irreps of D_n, n odd;
    each is validated with check_representation."""
    els = group.elements()
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    reps = [
        vl.Representation(group, {g: np.eye(1) for g in els}),
        vl.Representation(group, {g: np.array([[(-1) ** (g.key // n)]]) for g in els}),
    ]
    for h in range(1, (n - 1) // 2 + 1):
        mats = {}
        for g in els:
            w = cmath.exp(2j * math.pi * h * (g.key % n) / n)
            rot = np.diag([w, w.conjugate()])
            mats[g] = rot @ swap if g.key // n else rot
        reps.append(vl.Representation(group, mats))
    for rho in reps:
        report = vl.check_representation(group, rho)
        if not report.passed:
            raise ValueError(f"D{n} irrep of dimension {rho.dimension} is invalid: {report}")
    return reps


def _rep_job(group, gens, k: int, irreps) -> Callable[[], Any]:
    return lambda: vl.rep_spectrum(vl.token_base_graph(group, gens, k), irreps)


def irreps_table(rng: random.Random) -> Iterator[Instance]:
    for n, k in DIHEDRAL:
        group = dihedral_group(n)
        a = rng.randrange(2, (n - 1) // 2 + 1)
        gens = [1, n - 1, a, n - a]
        right = [[dihedral_mul(n, x, s) for s in gens] for x in range(2 * n)]
        yield Instance(
            label=f"D{n} k={k}",
            lift_vertices=math.comb(2 * n, k),
            spec={"group": f"D{n}", "gens": gens, "k": k},
            job=_rep_job(group, gens, k, dihedral_irreps(group, n)),
            summarise=_summarise_spectrum,
            reference=functools.partial(token_reference, 2 * n, right, k, False),
        )


BUILDERS = {
    "lift-undirected": lift_undirected,
    "cayley-verify": cayley_verify,
    "digraph-verify": digraph_verify,
    "irreps-table": irreps_table,
}


def instances(name: str, seed: int) -> Iterator[Instance]:
    """The workload's instances in round order; the same (name, seed) gives
    the same inputs, and the first instance is drawn first."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"))


def build(name: str, seed: int) -> Workload:
    return Workload(name, seed, list(instances(name, seed)))
