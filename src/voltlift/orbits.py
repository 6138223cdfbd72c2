"""k-set decompositions, base-graph builders, and the isomorphism certificate.

The left-translation action X -> g*X of a group on its k-subsets partitions
them into orbits; when the action is free every orbit has |Gamma| elements
and the C(n,k)/n representatives become the vertices of a base graph whose
lift is the k-token graph of the corresponding Cayley graph.  Left
translation is the action that matches the lift: Cayley arcs are x -> x*s,
so X -> h*X is an automorphism of the token graph, and a token move
rep_u -> g*rep_v translated by h is the lift arc (u, h) -> (v, h*g).  Over
an abelian group g*X = X*g, so the two conventions agree.

Subsets are sorted rows of element indices, named by combination rank,
so the same arrays serve abelian and table-defined groups.  A decomposition
is one family of free orbits, kept as the sorted ranks of its subsets: all
k-subsets, or only some: L(Cay(Z_m; +-a)) is F_2(K_m) induced on the edges
x + {0, a_i}, since two edges are adjacent when they share one end.  A base
keeps the token moves into the family.  The builders hand voltages to
VoltageGraph as one integer array of element indices, read from the
translator.  An undirected builder pairs each arc with the reverse token
move, which it has also made; a move that is its own reverse is a loop
paired with itself, a semi-edge.

Over an abelian group the builders also record unit symmetries (see
``voltage``): a unit u with u*S = S is an automorphism of Cay(Gamma, S) and
of its token graphs, and u*rep_i = t_i * rep_pi(i) locates the image of each
representative in the decomposition, whose family u must map onto itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence

import numpy as np

from .algebra import AbelianGroup, _block_width
from .errors import (DimensionTooLarge, InvalidGenerators, KOutOfRange, NotCoprime,
                     NotFreeAction, VoltliftError)
from .graphs import (Digraph, Graph, _integer, _inverse_positions, _label_to_json,
                     _validate_connection_set)
from .tokens import _combination_ranker
from .voltage import UnitSymmetry, VoltageGraph, _counts

# the most k-subsets k_set_decomposition takes: its family, orbit and
# translator arrays hold 24 bytes per subset, 805 MB at this cap
MAX_SUBSETS = 2**25


class KSetDecomposition:
    """Free orbits of left translation on k-subsets, one per representative.

    The representatives are one read-only (orbits, k) intp array of sorted
    element-index rows.  ``family`` holds the sorted combination ranks of
    all their translates, and ``orbit`` and ``translator`` run along it: the
    k-subset of rank family[j] is g * representatives[orbit[j]], where g is
    the element of index translator[j].  Raises NotFreeAction for the first
    representative whose orbit has fewer than |Gamma| subsets, and a
    VoltliftError for the first that repeats the orbit of an earlier one.
    """

    def __init__(self, group, k, representatives):
        self.group, self.k, n = group, k, group.size
        self._rank = _combination_ranker(n, k)
        self._reps = np.array(representatives, dtype=np.intp).reshape(-1, k)
        self._reps.flags.writeable = False
        # entry i*n + g ranks the sorted subset elements[g] * representatives[i]
        ranks = self._rank(np.sort(group.products(np.arange(n)[:, None], self._reps[:, None]),
                                   axis=-1)).ravel()
        order = np.argsort(ranks)
        self.family, (self.orbit, self.translator) = ranks[order], np.divmod(order, n)
        # a rank met twice lies in a smaller orbit or in two representatives'
        # orbits; the later representative of each such pair is at fault
        pairs = self.orbit[np.flatnonzero(np.diff(self.family) == 0)[:, None] + [0, 1]]
        if pairs.size:
            first, last = pairs.min(axis=1), pairs.max(axis=1)
            i = int(last.min())
            subset, earlier = tuple(self._reps[i].tolist()), first[(last == i) & (first < i)]
            if earlier.size:
                raise VoltliftError(f"{subset} repeats the orbit of representative "
                                    f"{tuple(self._reps[earlier[0]].tolist())}")
            size = 1 + np.count_nonzero(np.diff(np.sort(ranks[i * n:(i + 1) * n])))
            raise NotFreeAction(f"orbit of {subset} has {size} < {n} elements; "
                                "action is not free", subset=subset)

    @property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        """The representatives as index tuples, built from the array on each call."""
        return tuple(map(tuple, self._reps.tolist()))

    @property
    def num_orbits(self) -> int:
        return len(self._reps)

    def _lookup(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (orbit, translator) arrays of sorted k-subset rows, -1 and -1
        for a subset outside the family."""
        ranks = self._rank(rows)
        at = np.minimum(np.searchsorted(self.family, ranks), self.family.size - 1)
        hit = self.family[at] == ranks
        return np.where(hit, self.orbit[at], -1), np.where(hit, self.translator[at], -1)

    def locate(self, subset) -> tuple[int, int]:
        """(i, g) with elements[g] * representatives[i] = subset, g an element
        index; a KeyError if subset is not a k-subset of element indices."""
        key = tuple(sorted(subset))
        if len(key) != self.k or len(set(key)) != self.k or not all(
                isinstance(i, (int, np.integer)) and 0 <= i < self.group.size for i in key):
            raise KeyError(key)
        return tuple(int(x) for x in self._lookup(np.array(key, dtype=np.intp)))


def _orbit_minima(group, k: int) -> np.ndarray:
    """The lexicographic minimum of each left-translation orbit of k-subsets,
    in rank order: the subsets X that contain element 0 and rank below their
    other translates that contain 0, g * X with g = elements[0] * x^-1 for x
    in X.  The candidates are tested a block at a time."""
    n, rank = group.size, _combination_ranker(group.size, k)
    # lexicographically, the subsets that contain 0 come first
    candidates = islice(combinations(range(n), k), math.comb(n - 1, k - 1))
    step = _block_width(k * k)
    minima = []
    while (block := np.fromiter(islice(candidates, step), dtype=(np.intp, (k,)))).size:
        # row [b, i] is the translate of block[b] that takes block[b, i] to 0,
        # block[b] itself at i = 0
        shifts = group.products(0, group.inverse_indices()[block])
        ranks = rank(np.sort(group.products(shifts[..., None], block[:, None]), axis=-1))
        minima.append(block[ranks.argmin(axis=1) == 0])
    return np.concatenate(minima)


def k_set_decomposition(group, k: int, representatives=None) -> KSetDecomposition:
    """Decompose all k-subsets of the group into free left-translation orbits.

    The representatives are the orbits' lexicographic minima in rank order,
    or a custom list that names every orbit once, in any order: it numbers
    the orbits in its order and bases the voltages on its subsets.  Raises
    NotFreeAction (reporting the offending subset) when some orbit is
    smaller than |Gamma|, and DimensionTooLarge, before any subset is
    tested, for more than MAX_SUBSETS k-subsets.
    """
    n = group.size
    k = _integer(k, "token count")
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside 1..{n}")
    count = math.comb(n, k)
    if count > MAX_SUBSETS:
        _combination_ranker(n, k)  # ranks past int64 are refused as such
        raise DimensionTooLarge(f"C({n}, {k}) = {count} {k}-subsets exceed the cap of "
                                f"{MAX_SUBSETS} on a k-subset decomposition")
    if representatives is None:
        return KSetDecomposition(group, k, _orbit_minima(group, k))
    user = [tuple(sorted(_integer(i, "representative entry") for i in r))
            if hasattr(r, "__iter__") else r for r in representatives]
    for r in user:
        if not (isinstance(r, tuple) and len(r) == len(set(r)) == k
                and all(0 <= i < n for i in r)):
            raise VoltliftError(f"{r} is not a valid {k}-subset of the group")
    dec = KSetDecomposition(group, k, user)
    if dec.family.size != count:
        # the count the default decomposition finds, or its NotFreeAction
        expected = k_set_decomposition(group, k).num_orbits
        raise VoltliftError(f"expected {expected} representatives, got {len(user)}")
    return dec


def _unit_symmetries(group, connection: np.ndarray, dec: KSetDecomposition) -> list[UnitSymmetry]:
    """Units u with u*S = S for the element indices ``connection`` of S that
    also map the family of ``dec`` onto itself, each with its action on the
    representatives; none unless the group is an AbelianGroup.  The units
    are tested in element order, a block at a time, and one that passes is
    recorded when it lies outside the group that -1 and the units recorded
    so far generate: each one at least doubles that group, so with -1 they
    generate every unit that passes, and there are at most log2 of those."""
    if not isinstance(group, AbelianGroup):
        return []
    m, reps = group.size, dec._reps
    # u*S lies in S exactly when u*S = S, u being a bijection, and u maps a
    # family onto itself when it maps each representative into it; every unit
    # fixes S = Gamma \ {e} and the family of all k-subsets: test those empty
    s = connection[:0] if connection.size == m - 1 else connection
    tested = reps[:0] if dec.family.size == math.comb(m, dec.k) else reps
    in_s = np.zeros(m, dtype=bool)
    in_s[s] = True

    def passes(u):
        in_family = dec._lookup(np.sort(group.coordinate_products(u[..., None], tested)))[0] >= 0
        return in_s[group.coordinate_products(u, s)].all(axis=1) & in_family.all(axis=1)

    candidates = group.units()
    step = _block_width(max(s.size, tested.size))
    fixes = np.concatenate([passes(candidates[i:i + step, None])
                            for i in range(0, candidates.size, step)])
    one = group.indices([[1] * group.rank])[0]
    generated = np.zeros(m, dtype=bool)
    generated[[one, group.inverse_indices()[one]]] = True
    recorded = []
    for u in candidates[fixes].tolist():
        if generated[u]:
            continue
        # <H, u> is the union of the cosets u^i * H up to the first that is H
        coset = group.coordinate_products(u, np.flatnonzero(generated))
        while not generated[coset[0]]:
            generated[coset] = True
            coset = group.coordinate_products(u, coset)
        recorded.append(u)
    return [UnitSymmetry(unit, *dec._lookup(np.sort(group.coordinate_products(u, reps), axis=1)))
            for u, unit in zip(recorded, group.keys(recorded))]


def _token_base(group, gens: np.ndarray, dec: KSetDecomposition, directed: bool) -> VoltageGraph:
    """Base graph on the representatives of ``dec``, one arc rep -> beta with
    voltage g for every move along Cay(group, gens) from rep into the family,
    onto g * beta: its lift is the k-token graph induced on the family.  An
    undirected base pairs each arc with its reverse move."""
    # heads[i, t, s] is token t of representative i moved along generator s;
    # the free moves come in (representative, token, generator) order
    reps = dec._reps
    heads = group.products(reps[..., None], gens)
    rep, token, gen = np.nonzero((heads[..., None] != reps[:, None, None]).all(axis=-1))
    moved = np.where(np.arange(dec.k) == token[:, None], heads[rep, token, gen, None], reps[rep])
    target, volts = dec._lookup(np.sort(moved, axis=1))
    keep = target >= 0
    rep, token, gen, target, volts = rep[keep], token[keep], gen[keep], target[keep], volts[keep]
    digraph = Digraph(dec.representatives, np.stack([rep, target], axis=1))
    if not directed:
        # slot[i, t, s] is the arc moving token t of rep_i along s; x = rep_i[t]
        # moved along s onto g * rep_j comes back as y = g^-1 * x * s of rep_j along s^-1
        slot = np.empty(heads.shape, dtype=np.intp)
        slot[rep, token, gen] = np.arange(len(rep))
        y = group.products(group.inverse_indices()[volts], heads[rep, token, gen])
        position = (reps[target] == y[:, None]).argmax(axis=1)
        digraph = Graph(digraph, slot[target, position, _inverse_positions(group, gens)[gen]])
    return VoltageGraph(group, digraph, volts, symmetries=_unit_symmetries(group, gens, dec))


def token_base_graph(group, gens, k: int, representatives=None,
                     directed: bool = False) -> VoltageGraph:
    """Base graph whose lift is the k-token graph of Cay(group, gens).

    Vertices are the decomposition representatives.  For every single-token
    move rep -> rep' (replace one element a by a*s with the target vertex
    unoccupied), the unique pair (beta, g) with rep' = g * beta yields an arc
    rep -> beta with voltage g.
    """
    gens = _validate_connection_set(group, gens, directed)
    return _token_base(group, gens, k_set_decomposition(group, k, representatives), directed)


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

    Two edges are adjacent when they share one end, a token move of F_2(K_m),
    so this is the 2-token base of K_m on the edge family: one vertex
    {0, a_i}, representing the edges x + {0, a_i}, per generator.  Requires
    0 < a_1 < ... < a_s and m >= 2*a_s + 1, which keeps every edge orbit
    free; a_s = m/2 would give the orbit of {0, m/2} only m/2 edges.
    """
    m = _integer(m, "cyclic order")
    a = [_integer(x, "generator") for x in a_list]
    if not a or any(x <= 0 for x in a) or any(x >= y for x, y in zip(a, a[1:])):
        raise InvalidGenerators(f"need 0 < a_1 < ... < a_s, got {a_list}")
    if m < 2 * a[-1] + 1:
        raise InvalidGenerators(f"need m >= 2*a_s+1 = {2*a[-1]+1}, got m={m}")
    group = AbelianGroup(m)
    edges = KSetDecomposition(group, 2, [(0, x) for x in a])
    return _token_base(group, np.arange(1, m, dtype=np.intp), edges, directed=False)


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
    m = group.size
    n = target.n

    # row rep*m + g: the sorted indices of elements[g] * rep
    reps = np.array(vg.digraph.labels, dtype=np.intp)
    translates = np.sort(group.products(np.arange(m)[:, None], reps[:, None]), axis=-1)
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
                detail=f"({base_label}, {group.keys([pos % m])[0]}) maps to {images[pos]}, "
                       "not a target vertex",
            )
        return IsomorphismResult(False, detail=f"map hits target vertex {images[pos]} twice")

    lift = vg.lift()
    # arc t -> h as the int64 key t*n + h; lift arcs go through the vertex map
    mapped_arcs = where[lift.arc_array()]
    target_arcs = target.arc_array()
    mapped = mapped_arcs[:, 0].astype(np.int64) * n + mapped_arcs[:, 1]
    direct = target_arcs[:, 0].astype(np.int64) * n + target_arcs[:, 1]
    ordered = {"mapped lift": np.sort(mapped), "target": np.sort(direct)}
    if not np.array_equal(*ordered.values()):
        # report the first arc, in arc order, whose multiplicity differs
        for side, other, keys in (("mapped lift", "target", mapped),
                                  ("target", "mapped lift", direct)):
            count, other_count = _counts(ordered[side], keys), _counts(ordered[other], keys)
            bad = np.flatnonzero(count != other_count)
            if bad.size:
                i = bad[0]
                t, h = divmod(int(keys[i]), n)
                return IsomorphismResult(
                    False,
                    detail=(
                        f"arc {target.labels[t]} -> {target.labels[h]} has "
                        f"multiplicity {count[i]} in the {side} but "
                        f"{other_count[i]} in the {other}"
                    ),
                )
    return IsomorphismResult(True, vertex_map=tuple(zip(lift.labels, images)))
