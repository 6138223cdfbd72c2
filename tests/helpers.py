"""Shared builders for the randomized and structural tests."""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections import Counter

import numpy as np

from voltlift import AbelianGroup, Digraph, GenericGroup, Representation, VoltageGraph

GROUP_CHOICES = [
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,), (24,),
    (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 12), (4, 3),
]


def entry(group, *keys) -> dict[int, int]:
    """The base-matrix entry {voltage index: arc count} of one arc per key."""
    return dict(Counter(group.element(key).index for key in keys))


def random_voltage_graph(rng: random.Random) -> VoltageGraph:
    """A random voltage graph: abelian group of order <= 24, base <= 6
    vertices, <= 14 arcs.

    Undirected instances take arbitrary voltages (involutions kept off
    loops).  Directed instances are sums of commuting voltage-permutations
    (powers of one base permutation, one voltage per layer), which keeps the
    lift adjacency normal: defective non-normal matrices would limit dense
    eigensolvers to ~1e-6 accuracy and mask the exact property under test.
    """
    group = AbelianGroup(*rng.choice(GROUP_CHOICES))
    n = rng.randint(1, 6)
    els = group.elements()
    if rng.random() < 0.4:
        layers = rng.randint(1, max(1, min(3, 14 // n)))
        sigma = list(range(n))
        rng.shuffle(sigma)
        arcs, voltages = [], []
        for _ in range(layers):
            power = rng.randrange(n)
            w = els[rng.randrange(len(els))]
            perm = list(range(n))
            for _ in range(power):
                perm = [sigma[x] for x in perm]
            for i in range(n):
                arcs.append((i, perm[i]))
                voltages.append(w)
        return VoltageGraph(group, Digraph(range(n), arcs), voltages)
    non_involution = [g for g in els if g != g.inverse()]
    edges = []
    for _ in range(rng.randint(1, 7)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            if not non_involution:
                continue
            w = rng.choice(non_involution)
        else:
            w = els[rng.randrange(len(els))]
        edges.append((u, v, w))
    if not edges:
        edges = [(0, 0, non_involution[0])] if non_involution else [(0, min(1, n - 1), els[0])]
        if edges[0][0] == edges[0][1] and not non_involution:
            group = AbelianGroup(3)
            els = group.elements()
            edges = [(0, 0, els[1])]
    return VoltageGraph.undirected_from_edges(group, list(range(n)), edges)


def unit_orbits(orders, gens) -> list[list[int]]:
    """Orbits of the characters of Z_{n1} x ... x Z_{nr}, as element indices
    in lexicographic order, under j -> +-u*j for the diagonal units u with
    u*S = S; by enumeration, each orbit sorted, ordered by first member."""
    elements = list(itertools.product(*(range(n) for n in orders)))
    index = {x: i for i, x in enumerate(elements)}

    def scale(u, x):
        return tuple(a * b % n for a, b, n in zip(u, x, orders))

    s = {scale(g if isinstance(g, tuple) else (g,), (1,) * len(orders)) for g in gens}
    units = [u for u in elements
             if all(math.gcd(a, n) == 1 for a, n in zip(u, orders))
             and {scale(u, x) for x in s} == s]
    minus = tuple(n - 1 for n in orders)
    orbits = {tuple(sorted({index[scale(sign, scale(u, j))] for u in units
                            for sign in ((1,) * len(orders), minus)}))
              for j in elements}
    return [list(orbit) for orbit in sorted(orbits)]


def dihedral_group(n: int) -> GenericGroup:
    """D_n as a GenericGroup; index i < n is r^i, index n + i is r^i s."""
    def mul(x, y):  # r^a s^p * r^b s^q = r^(a + (-1)^p b) s^(p + q)
        p, a = divmod(x, n)
        q, b = divmod(y, n)
        return (a + (-b if p else b)) % n + n * ((p + q) % 2)

    return GenericGroup([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)],
                        name=f"D{n}")


def dihedral_irreps(group, n: int) -> list:
    """Trivial, sign and the (n-1)/2 two-dimensional irreps of D_n, n odd."""
    els = group.elements()
    swap = np.array([[0, 1], [1, 0]])
    irreps = [
        Representation(group, {g: np.eye(1) for g in els}),
        Representation(group, {g: np.array([[(-1) ** (g.key // n)]]) for g in els}),
    ]
    for h in range(1, (n - 1) // 2 + 1):
        mats = {}
        for g in els:
            w = cmath.exp(2j * math.pi * h * (g.key % n) / n)
            rot = np.diag([w, w.conjugate()])
            mats[g] = rot @ swap if g.key // n else rot
        irreps.append(Representation(group, mats))
    return irreps


def s3_group_and_irreps():
    """The symmetric group on 3 points as a GenericGroup, with its three
    unitary irreducibles (two 1-dim, one 2-dim)."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    group = GenericGroup(table, name="S3")

    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rot = np.array([[c, -s], [s, c]])
    ref = np.array([[1.0, 0.0], [0.0, -1.0]])
    # with (p*q)(x) = p(q(x)): swap12 = swap01*r and swap02 = r*swap01
    two_dim = {
        (0, 1, 2): np.eye(2),
        (1, 2, 0): rot,
        (2, 0, 1): rot @ rot,
        (1, 0, 2): ref,
        (0, 2, 1): ref @ rot,
        (2, 1, 0): rot @ ref,
    }

    def parity(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return -1.0 if inv % 2 else 1.0

    trivial = Representation(group, {group.element(i): np.eye(1) for i in range(6)})
    sign = Representation(
        group,
        {group.element(i): np.array([[parity(perms[i])]]) for i in range(6)},
    )
    standard = Representation(
        group,
        {group.element(i): two_dim[perms[i]].astype(complex) for i in range(6)},
    )
    return group, perms, [trivial, sign, standard]
