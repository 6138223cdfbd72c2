"""Voltage graphs, their lifts, base matrices, and eigenvector lifting.

A voltage graph is a base digraph whose arcs carry group elements.  In
undirected mode the arcs are paired into digons and opposite arcs must carry
inverse voltages; a loop is a pair of self-arcs with voltages g, g^-1.  Loop
pairs whose voltage is an involution (g = g^-1, identity included) are
rejected: they would need semi-edge semantics, which are out of scope.

The lift has vertex set V x Gamma ordered base-major: vertex (u, g) sits at
index u*|Gamma| + index(g).  For every base arc a: u -> v with voltage w and
every g there is a lift arc (u, g) -> (v, g*w).
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .algebra import (
    AbelianGroup,
    Character,
    GroupAlgebraElement,
    GroupElement,
    Representation,
    group_from_json,
    right_translation,
)
from .errors import InvalidPairing, LengthMismatch, MismatchedGroups, VoltliftError
from .graphs import (
    Digraph,
    Graph,
    UniversalCoefficients,
    _label_from_json,
    _label_str,
    _label_to_json,
    match_digon_pairing,
)


class BaseMatrix:
    """Square matrix of group-algebra elements indexed by base vertices."""

    def __init__(self, group, labels, entries):
        self.group = group
        self.labels = tuple(labels)
        self.entries = tuple(tuple(row) for row in entries)
        n = len(self.labels)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise VoltliftError("base matrix must be square over the vertex list")

    @property
    def n(self) -> int:
        return len(self.labels)

    def evaluate(self, chi: Character) -> np.ndarray:
        """Entrywise evaluation at a character; complex |V| x |V| matrix."""
        if chi.group != self.group:
            raise MismatchedGroups("character group differs from base matrix group")
        out = np.zeros((self.n, self.n), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if not entry.is_zero:
                    out[i, j] = entry.evaluate(chi)
        return out

    def apply_representation(self, rho: Representation) -> np.ndarray:
        """Block matrix with block (u, v) = sum coeff * rho(g); d*|V| square."""
        if rho.group != self.group:
            raise MismatchedGroups("representation group differs from base matrix group")
        d = rho.dimension
        out = np.zeros((d * self.n, d * self.n), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                for el, coeff in entry.terms.items():
                    out[i * d : (i + 1) * d, j * d : (j + 1) * d] += coeff * rho.matrix(el)
        return out

    def __str__(self) -> str:
        cells = [[entry.monomial_str() for entry in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.ljust(width) for c in row).rstrip() for row in cells)


class VoltageGraph:
    """A base digraph with one voltage per arc over a declared group."""

    def __init__(self, group, digraph: Digraph, voltages: Sequence[GroupElement],
                 pairing: Sequence[int] | None = None):
        voltages = tuple(group.element(v) for v in voltages)
        if len(voltages) != digraph.arc_count:
            raise VoltliftError("need exactly one voltage per arc")
        if pairing is not None:
            pairing = Graph(digraph, pairing).pairing
            arcs = digraph.arcs
            for i, j in enumerate(pairing):
                if voltages[j] != voltages[i].inverse():
                    raise InvalidPairing(
                        f"arcs {i} and {j} carry voltages that are not mutually inverse"
                    )
                if arcs[i][0] == arcs[i][1] and voltages[i] == voltages[i].inverse():
                    raise InvalidPairing(
                        "loop with involution voltage needs semi-edge semantics (unsupported)"
                    )
        self.group = group
        self.digraph = digraph
        self.voltages = voltages
        self.pairing = pairing

    @property
    def undirected(self) -> bool:
        return self.pairing is not None

    @property
    def labels(self):
        return self.digraph.labels

    @property
    def n(self) -> int:
        return self.digraph.n

    @classmethod
    def undirected_from_edges(cls, group, labels, edges) -> "VoltageGraph":
        """Build from (u, v, voltage) triples; each becomes an arc pair."""
        arcs, voltages, pairing = [], [], []
        for u, v, w in edges:
            w = group.element(w)
            i = len(arcs)
            arcs.extend([(u, v), (v, u)])
            voltages.extend([w, w.inverse()])
            pairing.extend([i + 1, i])
        return cls(group, Digraph(labels, arcs), voltages, pairing)

    @classmethod
    def directed_from_arcs(cls, group, labels, arcs_with_voltages) -> "VoltageGraph":
        arcs = [(u, v) for u, v, _ in arcs_with_voltages]
        voltages = [group.element(w) for _, _, w in arcs_with_voltages]
        return cls(group, Digraph(labels, arcs), voltages)

    def lift(self) -> Graph | Digraph:
        """The lift on V x Gamma (base-major vertex order)."""
        els = self.group.elements()
        m = len(els)
        labels = [
            (label, el.key) for label in self.digraph.labels for el in els
        ]
        base = self.digraph.arc_array()
        volts, which = np.unique(np.array([w.index for w in self.voltages], dtype=np.intp),
                                 return_inverse=True)
        translations = np.array([right_translation(self.group, els[w]) for w in volts],
                                dtype=np.intp).reshape(-1, m)
        # row a, column g: index(g * w_a); lift arc a*m + g is (u, g) -> (v, g*w_a)
        shifted = translations[which.reshape(-1)]
        tails = base[:, :1] * m + np.arange(m)
        heads = base[:, 1:] * m + shifted
        digraph = Digraph(labels, zip(tails.ravel().tolist(), heads.ravel().tolist()))
        if not self.undirected:
            return digraph
        # (u, g) -> (v, g*w) pairs with (v, g*w) -> (u, g) on the partner arc
        partners = np.asarray(self.pairing, dtype=np.intp)[:, None] * m + shifted
        return Graph(digraph, partners.ravel().tolist())

    def base_matrix(self) -> BaseMatrix:
        """Entry (u, v) sums the voltages of all arcs u -> v."""
        zero = GroupAlgebraElement.zero(self.group)
        entries = [[zero for _ in range(self.n)] for _ in range(self.n)]
        for (u, v), w in zip(self.digraph.arcs, self.voltages):
            entries[u][v] = entries[u][v] + GroupAlgebraElement.from_element(w)
        return BaseMatrix(self.group, self.digraph.labels, entries)

    def character_matrix(self, chi: Character,
                         coeffs: UniversalCoefficients | None = None) -> np.ndarray:
        """Evaluate the base matrix at chi; with coefficients, evaluate the
        universal matrix of the lift instead.

        The lift's all-ones block J contributes sum_g chi(g) per base entry,
        which is |Gamma| at the trivial character and 0 otherwise; the degree
        term is the base out-degree (constant on fibers).
        """
        b = self.base_matrix().evaluate(chi)
        if coeffs is None:
            return b
        out = coeffs.c1 * b
        out += np.diag(np.asarray(self.digraph.out_degrees(), dtype=float)) * coeffs.c2
        out += np.eye(self.n) * coeffs.c3
        if coeffs.c4 and chi.is_trivial:
            out += coeffs.c4 * self.group.size * np.ones((self.n, self.n))
        return out

    def to_json(self) -> dict:
        data = {
            "group": self.group.to_json(),
            "vertices": [_label_to_json(label) for label in self.digraph.labels],
            "arcs": [],
        }
        for i, ((tail, head), w) in enumerate(zip(self.digraph.arcs, self.voltages)):
            voltage = list(w.key) if isinstance(w.key, tuple) else [w.key]
            data["arcs"].append(
                {
                    "tail": tail,
                    "head": head,
                    "voltage": voltage,
                    "paired_with": self.pairing[i] if self.pairing else None,
                }
            )
        return data

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        for label in self.digraph.labels:
            lines.append(f'  "{_label_str(label)}";')
        for (tail, head), w in zip(self.digraph.arcs, self.voltages):
            lines.append(
                f'  "{_label_str(self.digraph.labels[tail])}" -> '
                f'"{_label_str(self.digraph.labels[head])}" [label="{w.key}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        kind = "undirected" if self.undirected else "directed"
        return (
            f"VoltageGraph({kind}, {self.n} vertices, "
            f"{self.digraph.arc_count} arcs over {self.group.name})"
        )


# the public name of the voltage-aware pairing search: called as
# match_voltage_pairing(arcs, voltages), opposite arcs carry inverse voltages
match_voltage_pairing = match_digon_pairing


def voltage_graph_from_json(data: dict) -> VoltageGraph:
    group = group_from_json(data["group"])
    labels = tuple(_label_from_json(label) for label in data["vertices"])
    arcs, voltages, pairing = [], [], []
    any_paired = False
    for arc in data["arcs"]:
        arcs.append((int(arc["tail"]), int(arc["head"])))
        voltage = arc["voltage"]
        if isinstance(group, AbelianGroup):
            voltages.append(group.element(tuple(voltage)))
        else:
            voltages.append(group.element(voltage[0] if isinstance(voltage, list) else voltage))
        p = arc.get("paired_with")
        pairing.append(-1 if p is None else int(p))
        any_paired = any_paired or p is not None
    if any_paired:
        if any(p < 0 for p in pairing):
            raise InvalidPairing("mixed paired and unpaired arcs in voltage graph JSON")
        return VoltageGraph(group, Digraph(labels, arcs), voltages, pairing)
    return VoltageGraph(group, Digraph(labels, arcs), voltages)


def load_voltage_graph(path) -> VoltageGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return voltage_graph_from_json(json.load(fh))


def lift_eigenvector(vg: VoltageGraph, x, chi: Character) -> np.ndarray:
    """Lift a base eigenvector: phi[(u, g)] = chi(g) * x[u], base-major order."""
    if chi.group != vg.group:
        raise MismatchedGroups("character group differs from voltage graph group")
    x = np.asarray(x, dtype=complex)
    if x.shape != (vg.n,):
        raise LengthMismatch(f"vector length {x.shape} != base size {vg.n}")
    return np.kron(x, chi.values())

