"""Command-line interface: generate, spectrum, verify, reproduce.

Exit codes: 0 success/PASS, 1 verification or reproduction mismatch,
2 invalid parameters or unparseable input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import reference
from .algebra import (
    AbelianGroup,
    Representation,
    enumerate_characters,
    representations_from_json,
)
from .errors import DimensionTooLarge, NoConvergence, VoltliftError
from .graphs import (
    Graph,
    UniversalCoefficients,
    adjacency_csv,
    cayley_graph,
    complete_graph,
    directed_cycle,
    graph_from_json,
    line_graph,
)
from .orbits import (
    circulant_linegraph_base,
    johnson_base,
    token_base_graph,
    verify_natural_isomorphism,
)
from .spectra import (
    Spectrum,
    _order,
    character_spectra,
    direct_spectrum,
    johnson_spectrum,
    lift_spectrum,
    multiset_equal,
    per_character_csv,
    per_character_rows,
    rep_spectrum,
)
from .tokens import token_digraph, token_graph
from .voltage import VoltageGraph, voltage_graph_from_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class CliError(VoltliftError):
    pass


def _numbers(parts, kind, what: str) -> list:
    """Convert every string in parts with kind (int or float)."""
    try:
        return [kind(x) for x in parts]
    except ValueError as exc:
        raise CliError(f"cannot parse {what}: {exc}") from None


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path} is not valid JSON: {exc}") from None


def parse_group(text: str) -> AbelianGroup:
    """Group literals like Z5, Z3xZ3, Z2xZ4."""
    m = re.fullmatch(r"Z(\d+)(?:xZ(\d+))*", text)
    if not m:
        raise CliError(f"cannot parse group literal {text!r} (expected e.g. Z5, Z3xZ3)")
    orders = [int(x) for x in re.findall(r"Z(\d+)", text)]
    return AbelianGroup(*orders)


def parse_generators(group: AbelianGroup, text: str, symmetrize: bool = True):
    """Comma-separated generators; rank-2 factors of order <= 9 use
    concatenated digits (10, 01), otherwise bracketed tuples like [1,0].
    Undirected use symmetrizes the list with inverses."""
    gens = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("["):
            coords = _numbers(chunk.strip("[]").split(";"), int, f"generator {chunk!r}")
        elif group.rank == 1:
            coords = _numbers([chunk], int, f"generator {chunk!r}")
        elif all(n <= 9 for n in group.orders) and re.fullmatch(r"-?\d+", chunk):
            digits = chunk.lstrip("-")
            if len(digits) != group.rank:
                raise CliError(f"generator {chunk!r} needs {group.rank} digits")
            coords = [int(d) for d in digits]
            if chunk.startswith("-"):
                coords = [-c for c in coords]
        else:
            raise CliError(f"cannot parse generator {chunk!r}")
        gens.append(group.element(coords))
    if not gens:
        raise CliError("empty generator list")
    if symmetrize:
        for g in list(gens):
            inv = g.inverse()
            if inv not in gens:
                gens.append(inv)
    return gens


def parse_representatives(group: AbelianGroup, text: str):
    """Subset list like 00,10/00,01/... or 012/013/... for cyclic groups."""
    subsets = []
    for chunk in text.split("/"):
        chunk = chunk.strip()
        members = re.split(r"[,\s]+", chunk) if ("," in chunk or " " in chunk) else list(chunk)
        subset = []
        for member in members:
            if group.rank != 1 and len(member) != group.rank:
                raise CliError(f"representative element {member!r} needs {group.rank} digits")
            digits = [member] if group.rank == 1 else member
            coords = _numbers(digits, int, f"representative element {member!r}")
            subset.append(group.element(coords).index)
        subsets.append(tuple(sorted(subset)))
    return subsets


def parse_coeffs(args) -> UniversalCoefficients | None:
    if sum(map(bool, (args.laplacian, args.signless, args.universal))) > 1:
        raise CliError("choose at most one of --laplacian/--signless/--universal")
    if args.laplacian:
        return UniversalCoefficients.laplacian()
    if args.signless:
        return UniversalCoefficients.signless_laplacian()
    if args.universal:
        parts = _numbers(args.universal.split(","), float, "--universal")
        if len(parts) != 4:
            raise CliError("--universal needs c1,c2,c3,c4")
        return UniversalCoefficients(*parts)
    return None


def c5_token_digraph_base() -> VoltageGraph:
    """The 2-vertex base digraph over Z5 whose lift is the 2-token digraph of
    the directed 5-cycle."""
    return token_base_graph(AbelianGroup(5), [1], 2, directed=True)


def _write(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(data, out: str | None):
    _write(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _circulant_line_graph(m: int, a) -> Graph:
    """L(Cay(Z_m; +-a_1, ..., +-a_s)), the brute-force circulant line graph."""
    gens = sorted({x % m for x in a} | {(-x) % m for x in a})
    return line_graph(cayley_graph(AbelianGroup(m), gens))


def _load_source(args):
    """Resolve the object a generate/spectrum/verify command works on, with
    a callable that builds the graph a constructive base should lift to
    (None for a source read from a file)."""
    if args.directed and not args.token_cayley:
        raise CliError("--directed applies to --token-cayley only")
    if args.johnson_base:
        n, k = args.johnson_base
        return johnson_base(n, k), lambda: token_graph(complete_graph(n), k)
    if args.circulant_linegraph:
        m, a_list = args.circulant_linegraph
        m = _numbers([m], int, "--circulant-linegraph M")[0]
        a = tuple(_numbers(a_list.split(","), int, "--circulant-linegraph A_LIST"))
        return circulant_linegraph_base(m, a), lambda: _circulant_line_graph(m, a)
    if args.token_cayley:
        group = parse_group(args.token_cayley)
        if not args.gens or args.k is None:
            raise CliError("--token-cayley needs --gens and --k")
        gens = parse_generators(group, args.gens, symmetrize=not args.directed)
        reps = parse_representatives(group, args.representatives) if args.representatives else None
        tokens = token_digraph if args.directed else token_graph
        return (token_base_graph(group, gens, args.k, representatives=reps,
                                 directed=args.directed),
                lambda: tokens(cayley_graph(group, gens, directed=args.directed), args.k))
    if args.infile:
        data = _read_json(args.infile)
        if isinstance(data, dict) and "group" in data:
            return voltage_graph_from_json(data), None
        return graph_from_json(data), None
    raise CliError("no input source given")


def cmd_generate(args) -> int:
    if args.kind == "cayley":
        group = parse_group(args.group)
        gens = parse_generators(group, args.gens, symmetrize=not args.directed)
        obj = cayley_graph(group, gens, directed=args.directed)
        data = obj.to_json()
    elif args.kind == "token":
        if args.k is None:
            raise CliError("token generation needs --k")
        if args.complete is not None:
            obj = token_graph(complete_graph(args.complete), args.k)
        elif args.directed_cycle is not None:
            obj = token_digraph(directed_cycle(args.directed_cycle), args.k)
        elif args.infile:
            host = graph_from_json(_read_json(args.infile))
            if isinstance(host, Graph):
                obj = token_graph(host, args.k)
            else:
                obj = token_digraph(host, args.k)
        else:
            raise CliError("token generation needs --complete, --directed-cycle, or --in")
        data = obj.to_json()
    elif args.kind == "lift":
        if not args.infile:
            raise CliError("lift generation needs --in VOLTAGE_JSON")
        obj = voltage_graph_from_json(_read_json(args.infile)).lift()
        data = obj.to_json()
    elif args.kind == "base":
        obj, _ = _load_source(args)
        if not isinstance(obj, VoltageGraph):
            raise CliError("base generation needs a base-graph source")
        data = obj.to_json()
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown kind {args.kind}")
    _dump_json(data, args.out)
    if args.dot:
        _write(obj.to_dot(), args.dot)
    if args.adjacency_csv:
        if isinstance(obj, VoltageGraph):
            raise CliError("--adjacency-csv applies to graphs, not voltage graphs")
        _write(adjacency_csv(obj), args.adjacency_csv)
    return 0


def cmd_spectrum(args) -> int:
    if args.per_character and args.method != "characters":
        raise CliError("--per-character needs --method characters")
    source, _ = _load_source(args)
    coeffs = parse_coeffs(args)
    if args.method == "characters":
        if not isinstance(source, VoltageGraph):
            raise CliError("--method characters needs a voltage graph source")
        spectra = character_spectra(source, coeffs)
        spectrum = lift_spectrum(source, spectra=spectra)
        per_char = per_character_csv(source, spectra=spectra) if args.per_character else None
    elif args.method == "irreps":
        if not isinstance(source, VoltageGraph):
            raise CliError("--method irreps needs a voltage graph source")
        if args.irreps:
            irreps = representations_from_json(source.group, _read_json(args.irreps))
        elif isinstance(source.group, AbelianGroup):
            irreps = [Representation.from_character(source.group, j)
                      for j in enumerate_characters(source.group)]
        else:
            raise CliError("--method irreps needs --irreps FILE for this group")
        if coeffs is not None:
            raise CliError("universal coefficients are not supported with --method irreps")
        spectrum = rep_spectrum(source, irreps)
        per_char = None
    elif args.method == "direct":
        graph = source.lift() if isinstance(source, VoltageGraph) else source
        spectrum = direct_spectrum(graph, coeffs)
        per_char = None
    else:  # pragma: no cover
        raise CliError(f"unknown method {args.method}")
    text = spectrum.to_csv()
    if per_char:
        text = per_char + "\n" + text
    _write(text, args.out)
    return 0


def _print(line=""):
    sys.stdout.write(line + "\n")


def cmd_verify(args) -> int:
    tol = args.tol
    if args.target == "isomorphism":
        vg, target = _load_source(args)
        if not isinstance(vg, VoltageGraph):
            raise CliError("verify isomorphism needs a voltage graph source")
        if target is None:
            raise CliError("verify isomorphism needs a constructive source")
        result = verify_natural_isomorphism(vg, target())
        if result.ok:
            line = f"PASS isomorphism: {len(result.vertex_map)} vertices mapped"
            if args.certificate:
                _dump_json(result.certificate_json(), args.certificate)
                line += f"; certificate written to {args.certificate}"
            _print(line)
            return 0
        _print(f"FAIL isomorphism: {result.detail}")
        return 1

    if args.target == "spectrum-equivalence":
        vg, target = _load_source(args)
        if not isinstance(vg, VoltageGraph):
            raise CliError("verify spectrum-equivalence needs a voltage graph source")
        oracle = direct_spectrum(vg.lift() if target is None else target())
        computed = lift_spectrum(vg)
        cmp = multiset_equal(computed, oracle, tol)
        if cmp.equal:
            _print(f"PASS spectrum-equivalence: max pairing distance {cmp.max_distance:.2e}")
            return 0
        _print(f"FAIL spectrum-equivalence: max pairing distance {cmp.max_distance:.2e} > {tol}")
        return 1

    if args.target == "johnson-closed-form":
        n, k = args.n, args.k
        if n is None or k is None:
            raise CliError("johnson-closed-form needs --n and --k")
        closed = johnson_spectrum(n, k)
        oracle = direct_spectrum(token_graph(complete_graph(n), k))
        cmp = multiset_equal(closed, oracle, tol)
        if cmp.equal:
            _print(f"PASS johnson-closed-form: J({n},{k}) max distance {cmp.max_distance:.2e}")
            return 0
        _print(f"FAIL johnson-closed-form: max distance {cmp.max_distance:.2e} > {tol}")
        return 1

    raise CliError(f"unknown verify target {args.target}")  # pragma: no cover


def _values_match(got, expected, tol) -> bool:
    return len(got) == len(expected) and all(abs(v - e) <= tol for v, e in zip(got, expected))


def _check_rows(vg: VoltageGraph, table, spectra=None) -> bool:
    rows = per_character_rows(vg, spectra=spectra)
    ok = len(rows) == len(table["rows"])
    if not ok:
        _print(f"  {len(rows)} computed rows, {len(table['rows'])} expected  FAIL")
    for (indices, values), (exp_indices, exp_values) in zip(rows, table["rows"]):
        flat = tuple(idx[0] for idx in indices)
        match = flat == exp_indices and _values_match(values, exp_values, table["tol"])
        ok = ok and match
        label = "|".join(str(i) for i in flat)
        shown = ", ".join(f"{v.real:.6g}" for v in values)
        _print(f"  chars {label}: computed [{shown}]  "
               f"expected {list(exp_values)}  {'PASS' if match else 'FAIL'}")
    return ok


def cmd_reproduce(args) -> int:
    table = args.table
    failed = False
    if table in ("t1", "t2", "t3"):
        n, k, ref = {"t1": (5, 2, reference.TABLE_T1),
                     "t2": (7, 2, reference.TABLE_T2),
                     "t3": (7, 3, reference.TABLE_T3)}[table]
        vg = johnson_base(n, k)
        _print(f"{table}: per-character rows of the {len(vg.labels)}-vertex base over Z{n}")
        spectra = character_spectra(vg)
        ok = _check_rows(vg, ref, spectra)
        spectrum = lift_spectrum(vg, spectra=spectra)
        cmp = multiset_equal(spectrum, Spectrum.from_pairs(ref["spectrum"]), ref["tol"])
        _print(f"  combined spectrum {spectrum}  {'PASS' if cmp.equal else 'FAIL'}")
        failed = not (ok and cmp.equal)
    elif table == "t5":
        group = AbelianGroup(3, 3)
        gens = parse_generators(group, "10,01")
        vg = token_base_graph(group, gens, 2)
        ref = reference.TABLE_T5
        _print("t5: 3x3 character grid of the 2-token base over Z3xZ3")
        cells = {j: vals[_order(vals)] for j, vals in character_spectra(vg)}
        failed = cells.keys() != ref["grid"].keys()
        for rs, expected in sorted(ref["grid"].items()):
            got = cells.get(rs, [])
            match = _values_match(got, expected, ref["tol"])
            shown = ", ".join(f"{v.real:.2f}" for v in got)
            line = (f"  cell {rs}: computed [{shown}]  expected {list(expected)}  "
                    f"{'PASS' if match else 'FAIL'}")
            if not match:
                note = ref["notes"].get(rs) or ref["notes"].get("edge")
                if note:
                    line += f"  [documented discrepancy: {note}]"
            _print(line)
            failed = failed or not match
    elif table == "c5-digraph":
        vg = c5_token_digraph_base()
        ref = reference.C5_DIGRAPH
        spectrum = lift_spectrum(vg)
        cmp = multiset_equal(spectrum, list(ref["values"]), ref["tol"])
        _print("c5-digraph: 2-token digraph of the directed 5-cycle")
        _print(f"  computed {spectrum}")
        _print(f"  expected {list(ref['values'])}")
        status = "PASS" if cmp.equal else "FAIL"
        line = f"  max pairing distance {cmp.max_distance:.3e} vs tol {ref['tol']}  {status}"
        if not cmp.equal:
            line += f"  [documented discrepancy: {ref['notes']['1.540']}]"
        _print(line)
        failed = not cmp.equal
    elif table == "s32-examples":
        for m, ref in sorted(reference.S32_EXAMPLES.items()):
            a = ref["generators"]
            vg = circulant_linegraph_base(m, a)
            computed = lift_spectrum(vg)
            oracle = direct_spectrum(_circulant_line_graph(m, a))
            oracle_cmp = multiset_equal(computed, oracle, 1e-8)
            _print(f"m={m} a={a}: computed {computed}")
            _print(f"  vs oracle line graph: max distance {oracle_cmp.max_distance:.2e} "
                   f"{'PASS' if oracle_cmp.equal else 'FAIL'}")
            failed = failed or not oracle_cmp.equal
            printed = Spectrum.from_pairs(ref["spectrum"])
            if ref["documented_discrepancy"]:
                _print(f"  published {printed} DIVERGES: {ref['note']}")
            else:
                printed_cmp = multiset_equal(computed, printed, 1e-8)
                _print(f"  vs published {printed}: "
                       f"{'PASS' if printed_cmp.equal else 'FAIL'}")
                failed = failed or not printed_cmp.equal
    else:  # pragma: no cover
        raise CliError(f"unknown table {table}")
    _print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0."""
    tol = _numbers([text], float, "--tol")[0]
    if not math.isfinite(tol) or tol < 0:
        raise CliError(f"--tol must be a finite number >= 0, got {text}")
    return tol


def _add_source_flags(parser):
    parser.add_argument("--johnson-base", "--johnson", dest="johnson_base",
                        nargs=2, type=int, metavar=("N", "K"))
    parser.add_argument("--circulant-linegraph", nargs=2, metavar=("M", "A_LIST"))
    parser.add_argument("--token-cayley", metavar="GROUP")
    parser.add_argument("--gens", metavar="LIST")
    parser.add_argument("--k", type=int, metavar="K")
    parser.add_argument("--representatives", metavar="SUBSETS")
    parser.add_argument("--directed", action="store_true")
    parser.add_argument("--in", dest="infile", metavar="FILE")


def build_parser() -> _Parser:
    parser = _Parser(prog="voltlift")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit graph / voltage graph JSON")
    gen.add_argument("kind", choices=["cayley", "token", "lift", "base"])
    gen.add_argument("--group", metavar="GROUP")
    gen.add_argument("--complete", type=int, metavar="N")
    gen.add_argument("--directed-cycle", dest="directed_cycle", type=int, metavar="N")
    gen.add_argument("--out", default="-")
    gen.add_argument("--dot", metavar="FILE")
    gen.add_argument("--adjacency-csv", dest="adjacency_csv", metavar="FILE")
    _add_source_flags(gen)
    gen.set_defaults(func=cmd_generate)

    spect = sub.add_parser("spectrum", help="compute a spectrum as CSV")
    spect.add_argument("--method", choices=["characters", "direct", "irreps"],
                       default="characters")
    spect.add_argument("--irreps", metavar="FILE")
    spect.add_argument("--laplacian", action="store_true")
    spect.add_argument("--signless", action="store_true")
    spect.add_argument("--universal", metavar="C1,C2,C3,C4")
    spect.add_argument("--per-character", dest="per_character", action="store_true")
    spect.add_argument("--out", default="-")
    _add_source_flags(spect)
    spect.set_defaults(func=cmd_spectrum)

    ver = sub.add_parser("verify", help="check constructions against oracles")
    ver.add_argument("target", choices=["isomorphism", "spectrum-equivalence",
                                        "johnson-closed-form"])
    ver.add_argument("--n", type=int)
    ver.add_argument("--tol", type=_tolerance, default=1e-8)
    ver.add_argument("--certificate", metavar="FILE")
    _add_source_flags(ver)
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("reproduce", help="recompute stored reference tables")
    rep.add_argument("table", choices=["t1", "t2", "t3", "t5", "c5-digraph",
                                       "s32-examples"])
    rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse --help
            return int(exc.code or 0)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"voltlift: error: {exc}\n")
        return 2
    except (DimensionTooLarge, NoConvergence) as exc:
        sys.stderr.write(f"voltlift: numeric failure: {exc}\n")
        return 3
    except VoltliftError as exc:
        sys.stderr.write(f"voltlift: error: {exc}\n")
        return 2
    except OSError as exc:  # missing, unreadable or unwritable file
        sys.stderr.write(f"voltlift: error: {exc}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
