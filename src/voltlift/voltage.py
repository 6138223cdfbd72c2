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
    GroupElement,
    Representation,
    group_from_json,
)
from .errors import InvalidPairing, LengthMismatch, MismatchedGroups, VoltliftError
from .graphs import (
    Digraph,
    Graph,
    UniversalCoefficients,
    _json_field,
    _json_indices,
    _label_from_json,
    _label_str,
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
    """Square matrix over the group algebra indexed by base vertices.

    Entry (u, v) is a dict mapping a voltage's element index to the number
    of arcs u -> v carrying it; an empty dict is zero.
    """

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
        """Entrywise evaluation at a character; complex |V| x |V| matrix.

        Each entry sums count * chi(g) from 0j, in the order its voltages
        first occur among the arcs."""
        if chi.group != self.group:
            raise MismatchedGroups("character group differs from base matrix group")
        values = chi.values().tolist()
        out = np.zeros((self.n, self.n), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if entry:
                    out[i, j] = sum((c * values[g] for g, c in entry.items()), complex(0))
        return out

    def apply_representation(self, rho: Representation) -> np.ndarray:
        """Block matrix with block (u, v) = sum coeff * rho(g); d*|V| square."""
        if rho.group != self.group:
            raise MismatchedGroups("representation group differs from base matrix group")
        els = self.group.elements()
        d = rho.dimension
        out = np.zeros((d * self.n, d * self.n), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                for g, coeff in entry.items():
                    out[i * d : (i + 1) * d, j * d : (j + 1) * d] += coeff * rho.matrix(els[g])
        return out

    def __str__(self) -> str:
        cells = [[_entry_str(self.group, entry) for entry in row] for row in self.entries]
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
            tails, heads = digraph.arc_array().T
            loops = (tails == heads).tolist()
            for i, j in enumerate(pairing):
                if voltages[j] != voltages[i].inverse():
                    raise InvalidPairing(
                        f"arcs {i} and {j} carry voltages that are not mutually inverse"
                    )
                if loops[i] and voltages[i] == voltages[i].inverse():
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
        partners = np.asarray(self.pairing, dtype=np.intp)[:, None] * m + shifted
        return Graph(digraph, partners.ravel())

    def base_matrix(self) -> BaseMatrix:
        """Entry (u, v) counts the arcs u -> v by voltage index."""
        entries = [[{} for _ in range(self.n)] for _ in range(self.n)]
        for (u, v), w in zip(self.digraph.arc_array().tolist(), self.voltages):
            g = w.index
            entries[u][v][g] = entries[u][v].get(g, 0) + 1
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
        for i, ((tail, head), w) in enumerate(zip(self.digraph.arc_array().tolist(),
                                                  self.voltages)):
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
        for (tail, head), w in zip(self.digraph.arc_array().tolist(), self.voltages):
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
    what = "voltage graph JSON"
    group = group_from_json(_json_field(data, "group", (dict,), what))
    labels = tuple(_label_from_json(label)
                   for label in _json_field(data, "vertices", (list,), what))
    arcs, voltages, pairing = [], [], []
    any_paired = False
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
        pairing.append(-1 if p is None else _json_field(arc, "paired_with", (int,), where))
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

