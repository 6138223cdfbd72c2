"""Command-line interface: generate, spectrum, verify, reproduce.

Exit codes: 0 success/PASS, 1 verification or reproduction mismatch,
2 invalid parameters or unparseable input, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import reference
from .algebra import AbelianGroup
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
    _cells,
    _check_direct_size,
    _checked_tol,
    _union,
    character_spectra,
    direct_spectrum,
    johnson_spectrum,
    lift_spectrum,
    multiset_equal,
    per_character_csv,
    per_character_rows,
)
from .tokens import token_digraph, token_graph
from .voltage import VoltageGraph, voltage_graph_from_json


class _Parser(argparse.ArgumentParser):
    """Raises CliError on a usage error, and matches flags only in full:
    an abbreviation such as --directed for --directed-cycle is refused."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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


def _element(group: AbelianGroup, text: str, what: str) -> list:
    """The coordinates of one element literal: [a;b;...] at any rank, a plain
    integer at rank 1, or one signed digit string with a digit per
    coordinate at higher rank (-12 is (-1, -2))."""
    if text.startswith("["):
        return _numbers(text.strip("[]").split(";"), int, f"{what} {text!r}")
    if group.rank == 1:
        return _numbers([text], int, f"{what} {text!r}")
    if not re.fullmatch(r"-?\d+", text):
        raise CliError(f"cannot parse {what} {text!r}")
    digits = text.lstrip("-")
    if len(digits) != group.rank:
        raise CliError(f"{what} {text!r} needs {group.rank} digits")
    sign = -1 if text.startswith("-") else 1
    return [sign * int(d) for d in digits]


def parse_generators(group: AbelianGroup, text: str, symmetrize: bool = True):
    """Comma-separated element literals (see ``_element``) as an intp array
    of element indices.  Undirected use appends, in order, each inverse not
    yet in the list."""
    coords = [_element(group, chunk.strip(), "generator")
              for chunk in text.split(",") if chunk.strip()]
    if not coords:
        raise CliError("empty generator list")
    gens = group.indices(coords).tolist()
    if symmetrize:
        inverse = group.inverse_indices().tolist()
        for g in list(gens):
            if inverse[g] not in gens:
                gens.append(inverse[g])
    return np.array(gens, dtype=np.intp)


def parse_representatives(group: AbelianGroup, text: str):
    """Subsets separated by /, each a comma- or space-separated list of
    element literals (see ``_element``) or one literal: 00,10/00,01/... or
    [1;10]/...; at rank 1 a run of digits lists one element per digit
    (012/013/...)."""
    subsets = []
    for chunk in text.split("/"):
        chunk = chunk.strip()
        if "," in chunk or " " in chunk:
            members = re.findall(r"\[[^\]]*\]|[^,\s]+", chunk)
        elif group.rank == 1 and chunk.isdecimal():
            members = list(chunk)
        else:
            members = [chunk] if chunk else []
        subset = [_element(group, member, "representative element") for member in members]
        subsets.append(tuple(sorted(group.indices(subset).tolist())))
    return subsets


def parse_coeffs(args) -> UniversalCoefficients | None:
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
    (None for a source read from a file).  The parser admits exactly one
    source."""
    token_flags = (args.gens, args.k, args.representatives, args.directed or None)
    if args.token_cayley is None and any(flag is not None for flag in token_flags):
        raise CliError("--gens, --k, --representatives and --directed apply to "
                       "--token-cayley only")
    if args.johnson_base is not None:
        n, k = args.johnson_base
        return johnson_base(n, k), lambda: token_graph(complete_graph(n), k)
    if args.circulant_linegraph is not None:
        m, a_list = args.circulant_linegraph
        m = _numbers([m], int, "--circulant-linegraph M")[0]
        a = tuple(_numbers(a_list.split(","), int, "--circulant-linegraph A_LIST"))
        return circulant_linegraph_base(m, a), lambda: _circulant_line_graph(m, a)
    if args.token_cayley is not None:
        group = parse_group(args.token_cayley)
        if not args.gens or args.k is None:
            raise CliError("--token-cayley needs --gens and --k")
        gens = parse_generators(group, args.gens, symmetrize=not args.directed)
        reps = parse_representatives(group, args.representatives) if args.representatives else None
        tokens = token_digraph if args.directed else token_graph
        return (token_base_graph(group, gens, args.k, representatives=reps,
                                 directed=args.directed),
                lambda: tokens(cayley_graph(group, gens, directed=args.directed), args.k))
    data = _read_json(args.infile)
    if isinstance(data, dict) and "group" in data:
        return voltage_graph_from_json(data), None
    return graph_from_json(data), None


def _voltage_graph(source, what: str) -> VoltageGraph:
    if not isinstance(source, VoltageGraph):
        raise CliError(f"{what} needs a voltage graph source")
    return source


def cmd_generate(args) -> int:
    if args.kind == "cayley":
        group = parse_group(args.group)
        gens = parse_generators(group, args.gens, symmetrize=not args.directed)
        obj = cayley_graph(group, gens, directed=args.directed)
    elif args.kind == "token":
        if args.complete is not None:
            host = complete_graph(args.complete)
        elif args.directed_cycle is not None:
            host = directed_cycle(args.directed_cycle)
        else:
            host = graph_from_json(_read_json(args.infile))
        obj = (token_graph if isinstance(host, Graph) else token_digraph)(host, args.k)
    else:
        obj = _voltage_graph(_load_source(args)[0], f"generate {args.kind}")
        if args.kind == "lift":
            obj = obj.lift()
    _dump_json(obj.to_json(), args.out)
    if args.dot:
        _write(obj.to_dot(), args.dot)
    if args.kind != "base" and args.adjacency_csv:
        _write(adjacency_csv(obj), args.adjacency_csv)
    return 0


def cmd_spectrum(args) -> int:
    if args.per_character and args.method != "characters":
        raise CliError("--per-character needs --method characters")
    source, _ = _load_source(args)
    coeffs = parse_coeffs(args)
    text = ""
    if args.method == "characters":
        vg = _voltage_graph(source, "--method characters")
        if args.per_character:
            spectra = character_spectra(vg, coeffs)
            spectrum = _union(spectra)
            text = per_character_csv(vg, spectra) + "\n"
        else:
            spectrum = lift_spectrum(vg, coeffs)
    else:
        if isinstance(source, VoltageGraph):
            _check_direct_size(source.n * source.group.size)
            source = source.lift()
        spectrum = direct_spectrum(source, coeffs)
    _write(text + spectrum.to_csv(), args.out)
    return 0


def _print(line=""):
    sys.stdout.write(line + "\n")


def cmd_verify(args) -> int:
    if args.target == "johnson-closed-form":
        n, k = args.n, args.k
        closed = johnson_spectrum(n, k)
        oracle = direct_spectrum(token_graph(complete_graph(n), k))
        cmp = multiset_equal(closed, oracle, args.tol)
        if cmp.equal:
            _print(f"PASS johnson-closed-form: J({n},{k}) max distance {cmp.max_distance:.2e}")
            return 0
        _print(f"FAIL johnson-closed-form: max distance {cmp.max_distance:.2e} > {args.tol}")
        return 1

    source, target = _load_source(args)
    vg = _voltage_graph(source, f"verify {args.target}")
    if args.target == "isomorphism":
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

    _check_direct_size(vg.n * vg.group.size)
    oracle = direct_spectrum(vg.lift() if target is None else target())
    cmp = multiset_equal(lift_spectrum(vg), oracle, args.tol)
    if cmp.equal:
        _print(f"PASS spectrum-equivalence: max pairing distance {cmp.max_distance:.2e}")
        return 0
    _print(f"FAIL spectrum-equivalence: max pairing distance {cmp.max_distance:.2e} > {args.tol}")
    return 1


def _values_match(got, expected, tol) -> bool:
    return len(got) == len(expected) and all(abs(v - e) <= tol for v, e in zip(got, expected))


def _check_rows(vg: VoltageGraph, table, spectra=None) -> bool:
    rows = per_character_rows(vg, spectra)
    ok = len(rows) == len(table["rows"])
    if not ok:
        _print(f"  {len(rows)} computed rows, {len(table['rows'])} expected  FAIL")
    for (indices, values), (exp_indices, exp_values) in zip(rows, table["rows"]):
        flat = tuple(idx[0] for idx in indices)
        match = flat == exp_indices and _values_match(values, exp_values, table["tol"])
        ok = ok and match
        label = "|".join(str(i) for i in flat)
        shown = ", ".join(_cells(values))
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
        spectrum = _union(spectra)
        cmp = multiset_equal(spectrum, Spectrum.from_pairs(ref["spectrum"]), ref["tol"])
        _print(f"  combined spectrum {spectrum}  {'PASS' if cmp.equal else 'FAIL'}")
        failed = not (ok and cmp.equal)
    elif table == "t5":
        group = AbelianGroup(3, 3)
        gens = parse_generators(group, "10,01")
        vg = token_base_graph(group, gens, 2)
        ref = reference.TABLE_T5
        _print("t5: 3x3 character grid of the 2-token base over Z3xZ3")
        cells = {j: vals for indices, vals in per_character_rows(vg) for j in indices}
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
    else:
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
    _print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0."""
    return _checked_tol(_numbers([text], float, "--tol")[0], "--tol")


def build_parser() -> _Parser:
    """One parser per leaf command, declaring exactly the flags it reads."""
    # every command that reads a source takes exactly one of the four, and
    # the flags --token-cayley reads
    source = _Parser(add_help=False)
    one = source.add_mutually_exclusive_group(required=True)
    one.add_argument("--johnson-base", "--johnson", dest="johnson_base",
                     nargs=2, type=int, metavar=("N", "K"))
    one.add_argument("--circulant-linegraph", nargs=2, metavar=("M", "A_LIST"))
    one.add_argument("--token-cayley", metavar="GROUP")
    one.add_argument("--in", dest="infile", metavar="FILE")
    source.add_argument("--gens", metavar="LIST")
    source.add_argument("--k", type=int, metavar="K")
    source.add_argument("--representatives", metavar="SUBSETS")
    source.add_argument("--directed", action="store_true")
    out = _Parser(add_help=False)
    out.add_argument("--out", default="-")
    out.add_argument("--dot", metavar="FILE")
    graph_out = _Parser(add_help=False, parents=[out])
    graph_out.add_argument("--adjacency-csv", metavar="FILE")
    tol = _Parser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=1e-8)

    parser = _Parser(prog="voltlift")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit graph / voltage graph JSON")
    gen.set_defaults(func=cmd_generate)
    kinds = gen.add_subparsers(dest="kind", required=True)
    cayley = kinds.add_parser("cayley", parents=[graph_out], help="a Cayley graph")
    cayley.add_argument("--group", required=True, metavar="GROUP")
    cayley.add_argument("--gens", required=True, metavar="LIST")
    cayley.add_argument("--directed", action="store_true")
    token = kinds.add_parser("token", parents=[graph_out], help="a k-token graph")
    host = token.add_mutually_exclusive_group(required=True)
    host.add_argument("--complete", type=int, metavar="N")
    host.add_argument("--directed-cycle", type=int, metavar="N")
    host.add_argument("--in", dest="infile", metavar="FILE")
    token.add_argument("--k", type=int, required=True, metavar="K")
    kinds.add_parser("lift", parents=[source, graph_out], help="the lift of a base")
    kinds.add_parser("base", parents=[source, out], help="a voltage graph base")

    spect = sub.add_parser("spectrum", parents=[source], help="compute a spectrum as CSV")
    spect.add_argument("--method", choices=["characters", "direct"], default="characters")
    matrix = spect.add_mutually_exclusive_group()
    matrix.add_argument("--laplacian", action="store_true")
    matrix.add_argument("--signless", action="store_true")
    matrix.add_argument("--universal", metavar="C1,C2,C3,C4")
    spect.add_argument("--per-character", action="store_true")
    spect.add_argument("--out", default="-")
    spect.set_defaults(func=cmd_spectrum)

    ver = sub.add_parser("verify", help="check constructions against oracles")
    ver.set_defaults(func=cmd_verify)
    targets = ver.add_subparsers(dest="target", required=True)
    iso = targets.add_parser("isomorphism", parents=[source],
                             help="the lift is isomorphic to its target")
    iso.add_argument("--certificate", metavar="FILE")
    targets.add_parser("spectrum-equivalence", parents=[source, tol],
                       help="lift and direct spectra agree")
    closed = targets.add_parser("johnson-closed-form", parents=[tol],
                                help="the closed-form J(n,k) spectrum is right")
    closed.add_argument("--n", type=int, required=True)
    closed.add_argument("--k", type=int, required=True)

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
    except (DimensionTooLarge, NoConvergence) as exc:
        sys.stderr.write(f"voltlift: numeric failure: {exc}\n")
        return 3
    except (VoltliftError, OSError) as exc:  # OSError: a missing, unreadable or unwritable file
        sys.stderr.write(f"voltlift: error: {exc}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
