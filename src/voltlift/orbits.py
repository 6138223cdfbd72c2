"""k-set decompositions, base-graph builders, and the isomorphism certificate.

The left-translation action X -> g*X of a group on its k-subsets partitions
them into orbits; when the action is free every orbit has |Gamma| elements
and the C(n,k)/n representatives become the vertices of a base graph whose
lift is the k-token graph of the corresponding Cayley graph.  Left
translation is the action that matches the lift: Cayley arcs are x -> x*s,
so X -> h*X is an automorphism of the token graph, and a token move
rep_u -> g*rep_v translated by h is the lift arc (u, h) -> (v, h*g).  Over
an abelian group g*X = X*g, so the two conventions agree.

Subsets are sorted rows of element indices, looked up by combination rank,
so the same arrays serve abelian and table-defined groups.  The builders
hand voltages to VoltageGraph as one integer array of element indices, read
from the translator and paired through the group's inverse table.

Over an abelian group the builders also record unit symmetries (see
``voltage``): a unit u with u*S = S is an automorphism of Cay(Gamma, S) and
of its token graphs, and u*rep_i = t_i * rep_pi(i) locates the image of each
representative in the decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .algebra import BLOCK_ENTRIES, AbelianGroup
from .errors import InvalidGenerators, KOutOfRange, NotCoprime, NotFreeAction, VoltliftError
from .graphs import (
    Digraph,
    _cayley_arcs,
    _integer,
    _label_to_json,
    _validate_connection_set,
)
from .tokens import _combination_ranker, _token_moves
from .voltage import UnitSymmetry, VoltageGraph, match_voltage_pairing


class KSetDecomposition:
    """Orbits of left translation on k-subsets, all of size |Gamma|.

    ``representatives`` holds one sorted index tuple per orbit (the
    lexicographic minimum unless a custom list was supplied).  The k-subset
    of combination rank r is g * representatives[orbit[r]], where g is the
    element of index translator[r].
    """

    def __init__(self, group, k, representatives, orbit, translator):
        self.group = group
        self.k = k
        self.representatives = tuple(tuple(r) for r in representatives)
        self.orbit = orbit
        self.translator = translator
        self._rank = _combination_ranker(group.size, k)

    @property
    def num_orbits(self) -> int:
        return len(self.representatives)

    def locate(self, subset) -> tuple[int, int]:
        """(i, g) with elements[g] * representatives[i] = subset, g an element
        index; a KeyError if subset is not a k-subset of element indices."""
        key = tuple(sorted(subset))
        if len(key) != self.k or len(set(key)) != self.k or not all(
                isinstance(i, (int, np.integer)) and 0 <= i < self.group.size for i in key):
            raise KeyError(key)
        r = self._rank(np.array(key, dtype=np.intp))
        return int(self.orbit[r]), int(self.translator[r])


def k_set_decomposition(group, k: int, representatives=None) -> KSetDecomposition:
    """Decompose all k-subsets of the group into free left-translation orbits.

    A custom representative list (one subset per orbit, any order) numbers
    the orbits in its order and bases the voltages on its subsets; the other
    orbits take their lexicographic minima.  Raises NotFreeAction (reporting
    the offending subset) as soon as some orbit is smaller than |Gamma|.
    """
    n = group.size
    k = _integer(k, "token count")
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    rank = _combination_ranker(n, k)
    user = [] if representatives is None else [
        tuple(sorted(_integer(i, "representative entry") for i in r)) for r in representatives]
    for r in user:
        if len(r) != k or len(set(r)) != k or not all(0 <= i < n for i in r):
            raise VoltliftError(f"{r} is not a valid {k}-subset of the group")
    orbit = np.full(math.comb(n, k), -1, dtype=np.intp)
    translator = np.empty_like(orbit)
    reps: list[tuple[int, ...]] = []
    # the user's subsets first, then in lexicographic (rank) order each subset
    # not yet reached, which is its orbit's minimum
    firsts = chain(((int(rank(np.array(r, dtype=np.intp))), r) for r in user),
                   enumerate(combinations(range(n), k)))
    for r, subset in firsts:
        if orbit[r] >= 0:
            if len(reps) < len(user):
                raise VoltliftError(
                    f"{subset} repeats the orbit of representative {reps[orbit[r]]}")
            continue
        # row g ranks the sorted subset elements[g] * subset
        translates = rank(np.sort(group.right_columns(subset), axis=1))
        # distinct translates by sort and diff; a plain np.unique imports numpy.ma
        size = 1 + np.count_nonzero(np.diff(np.sort(translates)))
        if size != n:
            raise NotFreeAction(
                f"orbit of {subset} has {size} < {n} elements; action is not free",
                subset=subset,
            )
        orbit[translates] = len(reps)
        translator[translates] = np.arange(n)
        reps.append(subset)
    assert len(reps) * n == math.comb(n, k)
    if representatives is not None and len(user) != len(reps):
        raise VoltliftError(f"expected {len(reps)} representatives, got {len(user)}")
    return KSetDecomposition(group, k, reps, orbit, translator)


def _unit_symmetries(group, connection: np.ndarray, reps: np.ndarray,
                     locate) -> list[UnitSymmetry]:
    """Units u with u*S = S for the element indices ``connection`` of S,
    each with its action on the base whose representatives are the sorted
    rows ``reps``; ``locate(rows)`` gives the (orbit, translator) arrays of
    sorted subset rows.  None unless the group is an AbelianGroup.

    The candidate units are tested against S alone, in element order, a
    block at a time.  A unit that fixes S is recorded when it lies outside
    the group that -1 and the units recorded so far generate, so each one at
    least doubles that group: with -1 the recorded units generate every unit
    that fixes S, and there are at most log2 of their number.
    """
    if not isinstance(group, AbelianGroup):
        return []
    m = group.size
    in_s = np.zeros(m, dtype=bool)
    in_s[connection] = True
    candidates = group.units()
    step = max(1, BLOCK_ENTRIES // connection.size)
    # u*S lies in S exactly when u*S = S, u being a bijection
    fixes = np.concatenate([
        in_s[group.coordinate_products(candidates[i:i + step, None], connection)].all(axis=1)
        for i in range(0, candidates.size, step)])
    one = group.element([1] * group.rank).index
    generated = np.zeros(m, dtype=bool)
    generated[[one, group.inverse_indices()[one]]] = True
    symmetries = []
    for u in candidates[fixes].tolist():
        if generated[u]:
            continue
        elements = group.coordinate_products(u, np.arange(m))
        # <H, u> is the union of the cosets u^i * H up to the first that is H
        coset = np.flatnonzero(generated)
        while True:
            coset = elements[coset]
            if generated[coset[0]]:
                break
            generated[coset] = True
        perm, trans = locate(np.sort(elements[reps], axis=1))
        symmetries.append(UnitSymmetry(group.elements()[u].key, elements, perm, trans))
    return symmetries


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
    # Cayley arcs a -> a*s run tail-major, then by generator, so sorting the
    # moves stably by representative orders each one's by token, then generator
    moves = _token_moves(_cayley_arcs(group, gens), dec.representatives, group.size)
    rep, moved = moves[np.argsort(moves[:, 0], kind="stable")].T
    digraph = Digraph(dec.representatives, np.stack([rep, dec.orbit[moved]], axis=1))
    volts = dec.translator[moved]
    pairing = None if directed else match_voltage_pairing(digraph.arc_array(), volts, group)

    def locate(rows):
        ranks = dec._rank(rows)
        return dec.orbit[ranks], dec.translator[ranks]

    reps = np.array(dec.representatives, dtype=np.intp)
    return VoltageGraph(group, digraph, volts, pairing,
                        _unit_symmetries(group, gens, reps, locate))


def johnson_base(n: int, k: int) -> VoltageGraph:
    """Base graph over Z_n whose lift is the Johnson graph J(n, k) = F_k(K_n);
    needs gcd(n, k) = 1 and has C(n,k)/n vertices."""
    n, k = _integer(n, "vertex count"), _integer(k, "token count")
    if not 1 <= k < n:
        raise KOutOfRange(f"k={k} outside 1..{n-1}")
    if math.gcd(n, k) != 1:
        raise NotCoprime(f"J({n},{k}) base over Z_{n} needs gcd(n,k)=1")
    return token_base_graph(AbelianGroup(n), range(1, n), k)


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
    m = _integer(m, "cyclic order")
    a = [_integer(x, "generator") for x in a_list]
    if not a or any(x <= 0 for x in a) or any(x >= y for x, y in zip(a, a[1:])) \
            or len(set(a)) != len(a):
        raise InvalidGenerators(f"need 0 < a_1 < ... < a_s, got {a_list}")
    if m < 2 * a[-1] + 1:
        raise InvalidGenerators(f"need m >= 2*a_s+1 = {2*a[-1]+1}, got m={m}")
    group = AbelianGroup(m)
    arcs, residues = [], []
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            # the j = i loops carry the families -a_i and a_i only
            family = (-aj, ai) if j == i else (0, -aj, ai - aj, ai)
            arcs += [(i, j)] * len(family)
            residues += family
    # an element of Z_m has its residue as its index
    volts = np.array(residues, dtype=np.intp) % m
    digraph = Digraph([(0, ai) for ai in a], np.array(arcs, dtype=np.intp))
    pairing = match_voltage_pairing(digraph.arc_array(), volts, group)
    vertex = np.full(m, -1, dtype=np.intp)
    vertex[a] = np.arange(len(a))

    def locate(rows):
        # {p, q} is p + {0, a_i} when q - p = a_i, else q + {0, a_i} with p - q = a_i
        p, q = rows.T
        forward = vertex[(q - p) % m]
        return np.where(forward >= 0, forward, vertex[(p - q) % m]), np.where(forward >= 0, p, q)

    reps = np.array(digraph.labels, dtype=np.intp)
    connection = np.concatenate([reps[:, 1], m - reps[:, 1]])
    return VoltageGraph(group, digraph, volts, pairing,
                        _unit_symmetries(group, connection, reps, locate))


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


def verify_natural_isomorphism(vg: VoltageGraph, target: Digraph) -> IsomorphismResult:
    """Check that (rep, g) -> g * rep is an isomorphism from lift(vg) onto target.

    Verifies the map is a bijection of vertex sets and preserves the arc
    multiset with multiplicities.  Returns the full vertex bijection as a
    certificate, or the first violating vertex/arc.
    """
    group = vg.group
    els = group.elements()
    m = len(els)
    n = target.n

    # row rep*m + g: the sorted indices of elements[g] * rep
    reps = np.array(vg.digraph.labels, dtype=np.intp)
    translates = np.sort(group.right_columns(reps), axis=-1).swapaxes(0, 1)
    images = list(map(tuple, translates.reshape(len(reps) * m, reps.shape[-1]).tolist()))
    if len(images) != n:
        return IsomorphismResult(False, detail=f"lift has {len(images)} vertices, target {n}")
    index = target.label_index
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
    # arc t -> h as the int64 key t*n + h; lift arcs go through the vertex map
    mapped_arcs = where[lift.arc_array()]
    target_arcs = target.arc_array()
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
                        f"arc {target.labels[t]} -> {target.labels[h]} has "
                        f"multiplicity {count[side][key]} in the {side} but "
                        f"{count[other][key]} in the {other}"
                    ),
                )
    return IsomorphismResult(True, vertex_map=tuple(zip(lift.labels, images)))
