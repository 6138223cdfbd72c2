"""Voltage graphs, their lifts, base matrices, and eigenvector lifting.

A voltage graph is a base digraph whose arcs carry group elements.  It is
undirected exactly when the base is a ``Graph``: then opposite arcs of a
digon must carry inverse voltages; a loop is a pair of self-arcs with
voltages g, g^-1.  Loop pairs whose voltage is an involution (g = g^-1,
identity included) are rejected: semi-edges are out of scope.

The lift has vertex set V x Gamma ordered base-major: vertex (u, g) sits at
index u*|Gamma| + index(g).  For every base arc a: u -> v with voltage w and
every g there is a lift arc (u, g) -> (v, g*w).

Voltages are given as elements or coordinates, or as one integer ndarray of
element indices, the form the builders in ``orbits`` hand over; either way
they are checked as one index array and stored as elements.  The pairing
is the base ``Graph``'s own; the builders build it from the intp array
``match_voltage_pairing`` returns, which is checked without a per-entry pass.

A voltage graph over an abelian group may carry unit symmetries, each a
``UnitSymmetry`` (unit, permutation, translators).  A unit u (every u_k a
unit mod n_k) acts on the group by the automorphism g -> u*g of
``AbelianGroup.coordinate_products``, computed from u where it is needed.
It is a symmetry of the voltage graph with base permutation pi and
translators t when the arc multiset {(pi(a), pi(b), u*w + t_b - t_a)} over
the arcs a -> b with voltage w is the arc multiset itself: then
(v, g) -> (pi(v), u*g + t_v) is an automorphism of the lift, and the base
matrix at the character u*j is monomially similar to the one at j.  The
constructor checks each symmetry exactly, once, and refuses a wrong one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .algebra import AbelianGroup, Representation, group_from_json
from .errors import InvalidPairing, LengthMismatch, MismatchedGroups, VoltliftError
from .graphs import (
    Digraph,
    Graph,
    UniversalCoefficients,
    _dot,
    _json_field,
    _json_indices,
    _label_from_json,
    _label_to_json,
    match_digon_pairing,
)


def _entry_str(group, entry: dict[int, int]) -> str:
    """Render an entry with z (or z1..zr) monomials, symmetric exponents.

    Exponents are reduced to the symmetric residue range so that, e.g.,
    voltage 3 over Z5 prints as 1/z^2.  Generic groups print g<index> terms.
    """
    if not entry:
        return "0"
    if not isinstance(group, AbelianGroup):
        return " + ".join((f"{c}*g{g}" if c != 1 else f"g{g}")
                          for g, c in sorted(entry.items()))
    els = group.elements()
    names = ["z"] if group.rank == 1 else [f"z{i+1}" for i in range(group.rank)]
    parts = []
    for g, coeff in entry.items():
        sym = tuple(x if x <= n // 2 else x - n for x, n in zip(els[g].key, group.orders))
        parts.append((sum(abs(e) for e in sym), sym, coeff))
    parts.sort(key=lambda p: (p[0], p[1]))
    rendered = []
    for _, sym, coeff in parts:
        num, den = [], []
        for nm, e in zip(names, sym):
            if e > 0:
                num.append(nm if e == 1 else f"{nm}^{e}")
            elif e < 0:
                den.append(nm if e == -1 else f"{nm}^{-e}")
        body = "*".join(num)
        if den:
            body = (body or "1") + "/" + "/".join(den)
        if not body:
            body = "1"
        if coeff == 1 and body != "1":
            rendered.append(body)
        elif body == "1":
            rendered.append(str(coeff))
        else:
            rendered.append(f"{coeff}*{body}")
    return " + ".join(rendered)


class BaseMatrix:
    """Square matrix over the group algebra indexed by base vertices, held as
    one term table: arrays (row, column, voltage index, arc count) with one
    term per distinct voltage of an entry, ordered by entry u*n + v and
    within an entry by the voltage's first arc."""

    def __init__(self, group, labels, terms):
        self.group = group
        self.labels = tuple(labels)
        self.terms = tuple(terms)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def entries(self) -> tuple[tuple[dict[int, int], ...], ...]:
        """Entry (u, v) as a {voltage index: arc count} dict in first-occurrence
        order, empty for zero; built from the term table on each call."""
        entries = [[{} for _ in range(self.n)] for _ in range(self.n)]
        for i, j, g, c in zip(*(t.tolist() for t in self.terms)):
            entries[i][j][g] = c
        return tuple(map(tuple, entries))

    def _scatter(self, mats: np.ndarray) -> np.ndarray:
        """Block matrix with block (u, v) = sum count * mats[g], from one d x d
        matrix per group element; d*|V| square.  One unbuffered scatter adds
        the terms to 0 in table order, so each block sums its terms in
        first-occurrence order, as a term-by-term loop does."""
        d, n = mats.shape[-1], self.n
        rows, cols, volts, counts = self.terms
        out = np.zeros((n, d, n, d), dtype=complex)
        # out.transpose(0, 2, 1, 3)[u, v] is block (u, v), a view
        np.add.at(out.transpose(0, 2, 1, 3), (rows, cols), counts[:, None, None] * mats[volts])
        return out.reshape(n * d, n * d)

    def evaluate(self, j) -> np.ndarray:
        """Entrywise evaluation at the character with index tuple j; complex
        |V| x |V| matrix."""
        return self._scatter(self.group.character_values(j)[:, None, None])

    def apply_representation(self, rho: Representation) -> np.ndarray:
        """Block matrix with block (u, v) = sum coeff * rho(g); d*|V| square."""
        if rho.group != self.group:
            raise MismatchedGroups("representation group differs from base matrix group")
        # an equal group object enumerates its elements in the same order
        return self._scatter(rho.matrices)

    def __str__(self) -> str:
        cells = [[_entry_str(self.group, entry) for entry in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.ljust(width) for c in row).rstrip() for row in cells)


class UnitSymmetry(NamedTuple):
    """A unit u of an abelian group acting on a voltage graph, as in the
    module docstring: ``unit`` is the element key of u, ``permutation[v]`` is
    pi(v) and ``translators[v]`` the element index of t_v.  The element map
    g -> u*g is ``group.coordinate_products(u, g)``."""

    unit: tuple[int, ...]
    permutation: np.ndarray
    translators: np.ndarray


class VoltageGraph:
    """A base digraph (a Graph when undirected) with one voltage per arc over a
    declared group, and the checked unit symmetries it was given (none unless
    a builder records them)."""

    def __init__(self, group, digraph: Digraph, voltages: Sequence | np.ndarray, *,
                 symmetries: Sequence[UnitSymmetry] = ()):
        if isinstance(voltages, np.ndarray) and voltages.dtype.kind in "iu":
            volts = voltages  # element indices
        else:
            volts = np.fromiter((group.element(v).index for v in voltages), dtype=np.intp)
        if volts.shape != (digraph.arc_count,):
            raise VoltliftError("need exactly one voltage per arc")
        outside = volts[(volts < 0) | (volts >= group.size)]
        if outside.size:
            raise VoltliftError(f"voltage index {outside[0]} out of range 0..{group.size - 1}")
        if isinstance(digraph, Graph):
            pairing = digraph._pairing
            tails, heads = digraph.arc_array().T
            inverses = group.inverse_indices()[volts]
            not_inverse = volts[pairing] != inverses
            bad = np.flatnonzero(not_inverse | ((tails == heads) & (volts == inverses)))
            if bad.size:
                i = int(bad[0])
                if not_inverse[i]:
                    raise InvalidPairing(f"arcs {i} and {pairing[i]} carry voltages "
                                         "that are not mutually inverse")
                raise InvalidPairing(
                    "loop with involution voltage needs semi-edge semantics (unsupported)"
                )
        self.group = group
        self.digraph = digraph
        self.voltages = tuple(map(group.elements().__getitem__, volts.tolist()))
        self.symmetries = tuple(self._checked_symmetry(sym, volts) for sym in symmetries)

    def _checked_symmetry(self, sym: UnitSymmetry, volts: np.ndarray) -> UnitSymmetry:
        """sym with read-only copies of its arrays, once u is a unit of the
        group and sym maps the arc multiset onto itself; otherwise a
        VoltliftError naming the unit and the first arc whose image is not
        matched."""
        group, n = self.group, self.n
        if not isinstance(group, AbelianGroup):
            raise VoltliftError("unit symmetries need an abelian group")
        u = group.element(sym.unit)
        unit, elements = u.key, group.coordinate_products(u.index, np.arange(group.size))
        perm, trans = (np.array(a, dtype=np.intp) for a in sym[1:])
        perm.flags.writeable = trans.flags.writeable = False
        if np.bincount(elements, minlength=group.size).max() != 1:
            raise VoltliftError(f"{unit} is not a unit of {group.name}")
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise VoltliftError(
                f"symmetry {unit}: permutation is not a permutation of the {n} vertices")
        if trans.shape != (n,) or ((trans < 0) | (trans >= group.size)).any():
            raise VoltliftError(f"symmetry {unit}: need one translator index per vertex")
        tails, heads = self.digraph.arc_array().T
        images = group.products(group.products(elements[volts], trans[heads]),
                                group.inverse_indices()[trans[tails]])

        def keys(t, h, w):
            return (t.astype(np.int64) * n + h) * group.size + w

        arcs = np.sort(keys(tails, heads, volts))
        mapped = keys(perm[tails], perm[heads], images)
        ordered = np.sort(mapped)
        if not np.array_equal(ordered, arcs):
            # the multisets have equal sizes, so some image occurs more often
            # among the images than among the arcs
            def count(sorted_keys):
                return (np.searchsorted(sorted_keys, mapped, "right")
                        - np.searchsorted(sorted_keys, mapped, "left"))

            a = int(np.flatnonzero(count(ordered) > count(arcs))[0])
            labels, els = self.digraph.labels, group.elements()
            raise VoltliftError(
                f"symmetry {unit} maps arc {a} ({labels[tails[a]]} -> {labels[heads[a]]}, "
                f"voltage {els[volts[a]].key}) to {labels[perm[tails[a]]]} -> "
                f"{labels[perm[heads[a]]]} with voltage {els[images[a]].key}, "
                "more often than the base graph has that arc")
        return UnitSymmetry(unit, perm, trans)

    @property
    def undirected(self) -> bool:
        return isinstance(self.digraph, Graph)

    @property
    def pairing(self) -> tuple[int, ...] | None:
        """The base graph's pairing; None when directed."""
        return self.digraph.pairing if self.undirected else None

    @property
    def labels(self):
        return self.digraph.labels

    @property
    def n(self) -> int:
        return self.digraph.n

    @classmethod
    def undirected_from_edges(cls, group, labels, edges) -> "VoltageGraph":
        """Build from (u, v, voltage) triples; each becomes a Graph.from_edges digon."""
        ends, voltages = [], []
        for u, v, w in edges:
            w = group.element(w)
            ends.append((u, v))
            voltages += [w, w.inverse()]
        return cls(group, Graph.from_edges(labels, ends), voltages)

    @classmethod
    def directed_from_arcs(cls, group, labels, arcs_with_voltages) -> "VoltageGraph":
        arcs = [(u, v) for u, v, _ in arcs_with_voltages]
        return cls(group, Digraph(labels, arcs), [w for _, _, w in arcs_with_voltages])

    def lift(self) -> Graph | Digraph:
        """The lift on V x Gamma (base-major vertex order)."""
        els = self.group.elements()
        m = len(els)
        labels = [
            (label, el.key) for label in self.digraph.labels for el in els
        ]
        base = self.digraph.arc_array()
        volts = np.fromiter((w.index for w in self.voltages), dtype=np.intp,
                            count=len(self.voltages))
        # row a, column g: index(g * w_a); lift arc a*m + g is (u, g) -> (v, g*w_a)
        shifted = self.group.right_columns(volts).T
        tails = base[:, :1] * m + np.arange(m)
        heads = base[:, 1:] * m + shifted
        digraph = Digraph(labels, np.stack([tails.ravel(), heads.ravel()], axis=1))
        if not self.undirected:
            return digraph
        # (u, g) -> (v, g*w) pairs with (v, g*w) -> (u, g) on the partner arc
        partners = self.digraph._pairing[:, None] * m + shifted
        return Graph(digraph, partners.ravel())

    def base_matrix(self) -> BaseMatrix:
        """Entry (u, v) counts the arcs u -> v by voltage index."""
        n, m = self.n, self.group.size
        tails, heads = self.digraph.arc_array().T
        volts = np.fromiter((w.index for w in self.voltages), dtype=np.intp)
        keys, first, counts = np.unique((tails * n + heads) * m + volts,
                                        return_index=True, return_counts=True)
        # by entry u*n + v, each entry's terms in first-occurrence order
        order = np.lexsort((first, keys // m))
        entry, volts = np.divmod(keys[order], m)
        rows, cols = np.divmod(entry, n)
        return BaseMatrix(self.group, self.digraph.labels, (rows, cols, volts, counts[order]))

    def character_matrix(self, j,
                         coeffs: UniversalCoefficients | None = None) -> np.ndarray:
        """Evaluate the base matrix at the character with index tuple j; with
        coefficients, evaluate the universal matrix of the lift instead.

        The lift's all-ones block J contributes sum_g chi_j(g) per base entry,
        which is |Gamma| at the trivial character (j = 0) and 0 otherwise; the
        degree term is the base out-degree (constant on fibers).
        """
        b = self.base_matrix().evaluate(j)
        if coeffs is None:
            return b
        out = coeffs.c1 * b
        out += np.diag(np.asarray(self.digraph.out_degrees(), dtype=float)) * coeffs.c2
        out += np.eye(self.n) * coeffs.c3
        if coeffs.c4 and not any(self.group.element(j).key):
            out += coeffs.c4 * self.group.size * np.ones((self.n, self.n))
        return out

    def to_json(self) -> dict:
        pairing = self.pairing or [None] * self.digraph.arc_count
        arcs = zip(self.digraph.arc_array().tolist(), self.voltages, pairing)
        return {
            "group": self.group.to_json(),
            "vertices": [_label_to_json(label) for label in self.digraph.labels],
            "arcs": [{"tail": tail, "head": head,
                      "voltage": list(w.key) if isinstance(w.key, tuple) else [w.key],
                      "paired_with": p} for (tail, head), w, p in arcs],
            "undirected": self.undirected,
        }

    def to_dot(self, name: str = "G") -> str:
        return _dot(name, self.labels, self.digraph.arc_array(),
                    arc_labels=[w.key for w in self.voltages])

    def __repr__(self) -> str:
        kind = "undirected" if self.undirected else "directed"
        return (
            f"VoltageGraph({kind}, {self.n} vertices, "
            f"{self.digraph.arc_count} arcs over {self.group.name})"
        )


# the public name of the voltage-aware pairing search, called as
# match_voltage_pairing(arcs, volts, group) with one element index per arc
match_voltage_pairing = match_digon_pairing


def voltage_graph_from_json(data: dict) -> VoltageGraph:
    """Undirected as its ``undirected`` field says, or without the field when
    an arc has a ``paired_with`` partner; then every arc needs one."""
    what = "voltage graph JSON"
    group = group_from_json(_json_field(data, "group", (dict,), what))
    labels = tuple(_label_from_json(label)
                   for label in _json_field(data, "vertices", (list,), what))
    arcs, voltages, pairing = [], [], []
    for i, arc in enumerate(_json_field(data, "arcs", (list,), what)):
        where = f"{what} arcs[{i}]"
        arcs.append((_json_field(arc, "tail", (int,), where),
                     _json_field(arc, "head", (int,), where)))
        voltage = _json_field(arc, "voltage", (list, int), where)
        coords = _json_indices(voltage if isinstance(voltage, list) else [voltage], where)
        if isinstance(group, AbelianGroup):
            voltages.append(group.element(coords))
        elif len(coords) == 1:
            voltages.append(group.element(coords[0]))
        else:
            raise VoltliftError(f"{where} voltage must be one element index")
        p = arc.get("paired_with")
        pairing.append(None if p is None else _json_field(arc, "paired_with", (int,), where))
    paired = [p is not None for p in pairing]
    undirected = _json_field(data, "undirected", (bool,), what) if "undirected" in data \
        else any(paired)
    if (not undirected) in paired:
        i = paired.index(not undirected)
        raise InvalidPairing(f"{what} is {'un' if undirected else ''}directed, but arcs[{i}] "
                             f"has {'no' if undirected else 'a'} paired_with partner")
    digraph = Digraph(labels, arcs)
    return VoltageGraph(group, Graph(digraph, pairing) if undirected else digraph, voltages)


def lift_eigenvector(vg: VoltageGraph, x, j) -> np.ndarray:
    """Lift a base eigenvector at the character with index tuple j:
    phi[(u, g)] = chi_j(g) * x[u], base-major order."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (vg.n,):
        raise LengthMismatch(f"vector length {x.shape} != base size {vg.n}")
    return np.kron(x, vg.group.character_values(j))
