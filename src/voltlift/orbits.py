"""k-set decompositions, base-graph builders, and the isomorphism certificate.

The left-translation action X -> g*X of a group on its k-subsets partitions
them into orbits; when the action is free every orbit has |Gamma| elements
and the C(n,k)/n representatives become the vertices of a base graph whose
lift is the k-token graph of the corresponding Cayley graph.  Left
translation is the action that matches the lift: Cayley arcs are x -> x*s,
so X -> h*X is an automorphism of the token graph, and a token move
rep_u -> g*rep_v translated by h is the lift arc (u, h) -> (v, h*g).  Over
an abelian group g*X = X*g, so the two conventions agree.

Subsets are handled as sorted tuples of element indices throughout, so the
same code serves abelian and table-defined groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .algebra import AbelianGroup, GroupElement
from .errors import InvalidGenerators, KOutOfRange, NotCoprime, NotFreeAction, VoltliftError
from .graphs import Digraph, Graph, _label_to_json, _validate_connection_set
from .voltage import VoltageGraph, match_voltage_pairing


class KSetDecomposition:
    """Orbits of left translation on k-subsets, all of size |Gamma|.

    ``representatives`` holds one sorted index tuple per orbit (the
    lexicographic minimum unless a custom list was supplied) and
    ``orbit_lookup`` maps every k-subset to (representative index, index of
    the translating element g with g * rep = subset).
    """

    def __init__(self, group, k, representatives, orbit_lookup):
        self.group = group
        self.k = k
        self.representatives = tuple(tuple(r) for r in representatives)
        self.orbit_lookup = orbit_lookup

    @property
    def num_orbits(self) -> int:
        return len(self.representatives)

    def locate(self, subset) -> tuple[int, GroupElement]:
        """Return (representative index i, translator g) with g * rep_i = subset."""
        rep_idx, g_idx = self.orbit_lookup[tuple(sorted(subset))]
        return rep_idx, self.group.elements()[g_idx]


def k_set_decomposition(group, k: int, representatives=None) -> KSetDecomposition:
    """Decompose all k-subsets of the group into free left-translation orbits.

    Raises NotFreeAction (reporting the offending subset) as soon as some
    orbit is smaller than |Gamma|.  A custom representative list (one subset
    per orbit, any order) re-bases the voltages on those subsets.
    """
    n = group.size
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    els = group.elements()
    reps: list[tuple[int, ...]] = []
    lookup: dict[tuple[int, ...], tuple[int, int]] = {}
    for subset in combinations(range(n), k):
        if subset in lookup:
            continue
        # row g is the sorted subset elements[g] * subset
        translates = np.sort(group.right_columns(subset), axis=1).tolist()
        orbit: dict[tuple[int, ...], int] = {}
        for g_idx, translated in enumerate(map(tuple, translates)):
            orbit.setdefault(translated, g_idx)
        if len(orbit) != n:
            raise NotFreeAction(
                f"orbit of {subset} has {len(orbit)} < {n} elements; action is not free",
                subset=subset,
            )
        # lexicographic iteration guarantees `subset` is its orbit's minimum
        rep_idx = len(reps)
        reps.append(subset)
        for translated, g_idx in orbit.items():
            lookup[translated] = (rep_idx, g_idx)
    assert len(reps) * n == math.comb(n, k)
    if representatives is None:
        return KSetDecomposition(group, k, reps, lookup)

    # re-base on user-supplied representatives (e.g. to match published tables)
    user = [tuple(sorted(int(i) for i in r)) for r in representatives]
    if len(user) != len(reps):
        raise VoltliftError(f"expected {len(reps)} representatives, got {len(user)}")
    seen_orbits = {}
    for new_idx, r in enumerate(user):
        if r not in lookup:
            raise VoltliftError(f"{r} is not a valid {k}-subset of the group")
        old_idx, g0 = lookup[r]
        if old_idx in seen_orbits:
            raise VoltliftError(f"{r} repeats the orbit of representative {seen_orbits[old_idx]}")
        seen_orbits[old_idx] = r
    new_lookup = {}
    remap = {lookup[r][0]: (new_idx, lookup[r][1]) for new_idx, r in enumerate(user)}
    for subset, (old_idx, g_idx) in lookup.items():
        new_idx, g0 = remap[old_idx]
        # g * rep_old = subset and g0 * rep_old = rep_new, so
        # subset = (g * g0^-1) * rep_new
        translator = els[g_idx] * els[g0].inverse()
        new_lookup[subset] = (new_idx, group.index_of(translator))
    return KSetDecomposition(group, k, user, new_lookup)


def token_base_graph(group, gens, k: int, representatives=None,
                     directed: bool = False) -> VoltageGraph:
    """Base graph whose lift is the k-token graph of Cay(group, gens).

    Vertices are the decomposition representatives.  For every single-token
    move rep -> rep' (replace one element a by a*s with the target vertex
    unoccupied), the unique pair (beta, g) with rep' = g * beta yields an arc
    rep -> beta with voltage g.
    """
    gens = _validate_connection_set(group, gens, directed)
    dec = k_set_decomposition(group, k, representatives)
    # steps[i][t] = index of elements[i] * gens[t]
    steps = group.right_columns([s.index for s in gens]).tolist()
    arcs = []
    voltages = []
    for rep_idx, rep in enumerate(dec.representatives):
        occupied = set(rep)
        for i in rep:
            for j in steps[i]:
                if j in occupied:
                    continue
                moved = tuple(sorted(occupied - {i} | {j}))
                beta_idx, g = dec.locate(moved)
                arcs.append((rep_idx, beta_idx))
                voltages.append(g)
    digraph = Digraph(dec.representatives, arcs)
    if directed:
        return VoltageGraph(group, digraph, voltages)
    pairing = match_voltage_pairing(arcs, voltages)
    return VoltageGraph(group, digraph, voltages, pairing)


def johnson_base(n: int, k: int) -> VoltageGraph:
    """Base graph over Z_n whose lift is the Johnson graph J(n, k) = F_k(K_n);
    needs gcd(n, k) = 1 and has C(n,k)/n vertices."""
    if not 1 <= k < n:
        raise KOutOfRange(f"k={k} outside 1..{n-1}")
    if math.gcd(n, k) != 1:
        raise NotCoprime(f"J({n},{k}) base over Z_{n} needs gcd(n,k)=1")
    group = AbelianGroup(n)
    gens = [group.element(s) for s in range(1, n)]
    return token_base_graph(group, gens, k)


def circulant_linegraph_base(m: int, a_list: Sequence[int]) -> VoltageGraph:
    """Base graph over Z_m whose lift is L(Cay(Z_m; +-a_1, ..., +-a_s)).

    One vertex {0, a_i} per generator.  The arcs from vertex {0, a_i} follow
    the four neighbour families of the principal-submatrix construction:

      voltage 0        to every other vertex {0, a_j},
      voltage -a_j     to every vertex {0, a_j} (the j = i case is a loop),
      voltage a_i-a_j  to every other vertex {0, a_j},
      voltage a_i      to every vertex {0, a_j} (the j = i case is a loop).

    Requires 0 < a_1 < ... < a_s and m >= 2*a_s + 1, which keeps the loop
    voltages +-a_i away from involutions.
    """
    a = [int(x) for x in a_list]
    if not a or any(x <= 0 for x in a) or any(x >= y for x, y in zip(a, a[1:])) \
            or len(set(a)) != len(a):
        raise InvalidGenerators(f"need 0 < a_1 < ... < a_s, got {a_list}")
    if m < 2 * a[-1] + 1:
        raise InvalidGenerators(f"need m >= 2*a_s+1 = {2*a[-1]+1}, got m={m}")
    group = AbelianGroup(m)
    labels = [(0, ai) for ai in a]
    arcs = []
    voltages = []
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            if j != i:
                arcs.append((i, j))
                voltages.append(group.element(0))
            arcs.append((i, j))
            voltages.append(group.element(-aj))
            if j != i:
                arcs.append((i, j))
                voltages.append(group.element(ai - aj))
            arcs.append((i, j))
            voltages.append(group.element(ai))
    digraph = Digraph(labels, arcs)
    pairing = match_voltage_pairing(arcs, voltages)
    return VoltageGraph(group, digraph, voltages, pairing)


@dataclass
class IsomorphismResult:
    """Outcome of verify_natural_isomorphism.

    On success ``vertex_map`` is the full bijection certificate, a tuple of
    ((base label, group element key), target label) pairs in lift vertex
    order.  On failure ``detail`` describes the first violation.
    """

    ok: bool
    vertex_map: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def certificate_json(self) -> list:
        if not self.ok:
            raise VoltliftError("no certificate for a failed isomorphism check")
        return [
            {"lift": [_label_to_json(b), _label_to_json(g)], "target": _label_to_json(t)}
            for (b, g), t in self.vertex_map
        ]


def verify_natural_isomorphism(vg: VoltageGraph, target: Graph | Digraph) -> IsomorphismResult:
    """Check that (rep, g) -> g * rep is an isomorphism from lift(vg) onto target.

    Verifies the map is a bijection of vertex sets and preserves the arc
    multiset with multiplicities.  Returns the full vertex bijection as a
    certificate, or the first violating vertex/arc.
    """
    group = vg.group
    els = group.elements()
    m = len(els)
    target_digraph = target.digraph if isinstance(target, Graph) else target
    n = target_digraph.n

    # row rep*m + g: the sorted indices of elements[g] * rep
    reps = np.array(vg.digraph.labels, dtype=np.intp)
    translates = np.sort(group.right_columns(reps), axis=-1).swapaxes(0, 1)
    images = list(map(tuple, translates.reshape(len(reps) * m, reps.shape[-1]).tolist()))
    if len(images) != n:
        return IsomorphismResult(False, detail=f"lift has {len(images)} vertices, target {n}")
    index = target_digraph.label_index
    where = np.fromiter((index.get(img, -1) for img in images), dtype=np.intp, count=n)
    missing = where < 0
    if missing.any() or np.bincount(where[~missing], minlength=n).max(initial=0) > 1:
        # the first position that misses the target or repeats an earlier image
        order = np.argsort(where, kind="stable")
        repeated = np.zeros(n, dtype=bool)
        repeated[order[1:]] = where[order[1:]] == where[order[:-1]]
        pos = int(np.flatnonzero(missing | repeated)[0])
        if missing[pos]:
            base_label = vg.digraph.labels[pos // m]
            return IsomorphismResult(
                False,
                detail=f"({base_label}, {els[pos % m].key}) maps to {images[pos]}, "
                       "not a target vertex",
            )
        return IsomorphismResult(False, detail=f"map hits target vertex {images[pos]} twice")

    lift = vg.lift()
    lift_digraph = lift.digraph if isinstance(lift, Graph) else lift
    # arc t -> h as the int64 key t*n + h; lift arcs go through the vertex map
    mapped_arcs = where[lift_digraph.arc_array()]
    target_arcs = target_digraph.arc_array()
    mapped = mapped_arcs[:, 0].astype(np.int64) * n + mapped_arcs[:, 1]
    direct = target_arcs[:, 0].astype(np.int64) * n + target_arcs[:, 1]
    if not np.array_equal(np.sort(mapped), np.sort(direct)):
        # report the first arc, in arc order, whose multiplicity differs
        keys, which = np.unique(np.concatenate([mapped, direct]), return_inverse=True)
        arcs_of = {"mapped lift": which[:len(mapped)], "target": which[len(mapped):]}
        count = {side: np.bincount(w, minlength=len(keys)) for side, w in arcs_of.items()}
        differ = count["mapped lift"] != count["target"]
        for side, other in (("mapped lift", "target"), ("target", "mapped lift")):
            bad = np.flatnonzero(differ[arcs_of[side]])
            if bad.size:
                key = arcs_of[side][bad[0]]
                t, h = divmod(int(keys[key]), n)
                return IsomorphismResult(
                    False,
                    detail=(
                        f"arc {target_digraph.labels[t]} -> {target_digraph.labels[h]} has "
                        f"multiplicity {count[side][key]} in the {side} but "
                        f"{count[other][key]} in the {other}"
                    ),
                )
    return IsomorphismResult(True, vertex_map=tuple(zip(lift_digraph.labels, images)))
