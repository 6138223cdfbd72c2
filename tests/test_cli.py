"""CLI surface: subcommands, exit codes, file round trips, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voltlift
from voltlift import AbelianGroup
from voltlift.cli import CliError, build_parser, main, parse_generators, parse_representatives

# constructive sources and the vertex count of the graph each lifts to
CONSTRUCTIVE_SOURCES = [
    (["--johnson", "7", "3"], 35),
    (["--circulant-linegraph", "12", "2,3"], 24),
    (["--token-cayley", "Z3xZ3", "--gens", "10,01", "--k", "2"], 36),
]
SOURCE_IDS = ["johnson", "circulant-linegraph", "token-cayley"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_johnson_base(capsys, tmp_path):
    out = tmp_path / "base.json"
    code, _, _ = run(capsys, "generate", "base", "--johnson-base", "7", "2",
                     "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 3
    assert len(data["arcs"]) == 30  # 3 rows of 10 moves


def test_generate_token_complete(capsys, tmp_path):
    out = tmp_path / "token.json"
    code, _, _ = run(capsys, "generate", "token", "--complete", "5", "--k", "2",
                     "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 10
    assert data["undirected"] is True


def test_generate_lift_composition(capsys, tmp_path):
    base = tmp_path / "base.json"
    lift = tmp_path / "lift.json"
    run(capsys, "generate", "base", "--johnson-base", "5", "2", "--out", str(base))
    code, _, _ = run(capsys, "generate", "lift", "--in", str(base), "--out", str(lift))
    assert code == 0
    data = json.loads(lift.read_text())
    assert len(data["vertices"]) == 10


def test_generate_cayley_with_dot_and_csv(capsys, tmp_path):
    out = tmp_path / "cay.json"
    dot = tmp_path / "cay.dot"
    csv = tmp_path / "cay.csv"
    code, _, _ = run(capsys, "generate", "cayley", "--group", "Z3xZ3",
                     "--gens", "10,01", "--out", str(out), "--dot", str(dot),
                     "--adjacency-csv", str(csv))
    assert code == 0
    assert len(json.loads(out.read_text())["vertices"]) == 9
    assert dot.read_text().startswith("graph G {")
    assert len(csv.read_text().splitlines()) == 9


def test_spectrum_characters_per_character(capsys):
    code, out, _ = run(capsys, "spectrum", "--johnson-base", "7", "3",
                       "--method", "characters", "--per-character")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "characters,lambda_1,lambda_2,lambda_3,lambda_4,lambda_5"
    assert lines[1].startswith("0,12,")
    assert lines[2].startswith("1|6,5,")
    assert "re,im,multiplicity" in lines
    assert "12,0,1" in lines
    assert "5,0,6" in lines


def test_spectrum_per_character_solves_each_character_once(capsys, monkeypatch):
    from voltlift import spectra

    calls = []
    solve = spectra.eigenvalues
    monkeypatch.setattr(spectra, "eigenvalues", lambda m: calls.append(1) or solve(m))
    code, _, _ = run(capsys, "spectrum", "--johnson-base", "7", "3",
                     "--method", "characters", "--per-character")
    assert code == 0
    # one solve per orbit of j -> +-u*j over the units u of Z7, all of which
    # fix S = Z7 - {0}: the trivial character and the other six
    orbits = {frozenset(u * j % 7 for u in range(1, 7)) for j in range(7)}
    assert len(calls) == len(orbits) == 2
    calls.clear()
    assert run(capsys, "reproduce", "t3")[0] == 0
    assert len(calls) == 2


def test_spectrum_per_character_laplacian_prints_laplacian_values(capsys, monkeypatch):
    from voltlift import spectra

    calls = []
    solve = spectra.eigenvalues
    monkeypatch.setattr(spectra, "eigenvalues", lambda m: calls.append(1) or solve(m))
    code, out, _ = run(capsys, "spectrum", "--johnson", "7", "3", "--laplacian",
                       "--per-character")
    assert code == 0 and len(calls) == 2
    laplacian = voltlift.UniversalCoefficients.laplacian()
    vg = voltlift.johnson_base(7, 3)
    solved = spectra.character_spectra(vg, laplacian)
    assert out == (voltlift.per_character_csv(vg, solved) + "\n"
                   + voltlift.lift_spectrum(vg, laplacian).to_csv())
    # L = 12 I - A on the 12-regular J(7,3): 12 - 12 ends the trivial row,
    # and the adjacency eigenvalues 12, 5, 0, -3 become 0, 7, 12, 15
    lines = out.splitlines()
    assert lines[1].startswith("0,15,15,12,12,") and abs(float(lines[1].split(",")[-1])) < 1e-12
    assert lines[-4:-1] == ["15,0,14", "12,0,14", "7,0,6"]
    value, im, count = lines[-1].split(",")
    assert abs(float(value)) < 1e-12 and (im, count) == ("0", "1")


@pytest.mark.parametrize("method", ["direct"])
def test_spectrum_per_character_needs_the_character_method(capsys, method):
    code, out, err = run(capsys, "spectrum", "--johnson-base", "7", "3",
                         "--method", method, "--per-character")
    assert code == 2
    assert out == ""
    assert err == "voltlift: error: --per-character needs --method characters\n"


@pytest.mark.parametrize("flag, message", [
    ("--complete", "complete_graph needs n >= 1"),
    ("--directed-cycle", "directed_cycle needs n >= 1"),
])
def test_generate_token_passes_a_zero_size_to_the_constructor(capsys, flag, message):
    code, out, err = run(capsys, "generate", "token", flag, "0", "--k", "1")
    assert code == 2
    assert out == ""
    assert err == f"voltlift: error: {message}\n"


def test_spectrum_direct_laplacian_round_trip(capsys, tmp_path):
    token = tmp_path / "token.json"
    run(capsys, "generate", "token", "--complete", "5", "--k", "2",
        "--out", str(token))
    code, out, _ = run(capsys, "spectrum", "--in", str(token),
                       "--method", "direct", "--laplacian")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    parsed = [(float(re), float(im), int(m)) for re, im, m in rows]
    assert [(round(re, 9), im, m) for re, im, m in parsed] == [
        (8.0, 0.0, 5), (5.0, 0.0, 4), (0.0, 0.0, 1)]


def test_spectrum_direct_matches_characters(capsys, tmp_path):
    base = tmp_path / "base.json"
    run(capsys, "generate", "base", "--circulant-linegraph", "12", "2,3",
        "--out", str(base))
    code1, out1, _ = run(capsys, "spectrum", "--in", str(base), "--method", "characters")
    code2, out2, _ = run(capsys, "spectrum", "--in", str(base), "--method", "direct")
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == "re,im,multiplicity"
    # 24 eigenvalues both ways
    total1 = sum(int(line.split(",")[2]) for line in out1.splitlines()[1:])
    total2 = sum(int(line.split(",")[2]) for line in out2.splitlines()[1:])
    assert total1 == total2 == 24


@pytest.mark.parametrize("orders, gens, k", [
    ((8,), [1], 3), ((10,), [1], 3), ((5, 5), [(1, 0), (0, 1)], 2),
], ids=["C8-k3", "C10-k3", "Z5xZ5-k2"])
def test_spectrum_methods_group_directed_bases_alike(capsys, tmp_path, orders, gens, k):
    """Degenerate complex eigenvalues get the same multiplicities from the
    character route and the direct route."""
    from voltlift import AbelianGroup, token_base_graph

    base = tmp_path / "base.json"
    vg = token_base_graph(AbelianGroup(*orders), gens, k, directed=True)
    base.write_text(json.dumps(vg.to_json()))
    columns = []
    for method in ("characters", "direct"):
        code, out, _ = run(capsys, "spectrum", "--in", str(base), "--method", method)
        assert code == 0
        columns.append(sorted(int(line.split(",")[2]) for line in out.splitlines()[1:]))
    assert columns[0] == columns[1]


def test_directed_token_cayley_solves_one_matrix_per_unit_orbit(capsys, tmp_path, monkeypatch):
    """The builder's directed base keeps its units, so Z13 S={1,3,9} k=4
    solves 3 matrices; the same base read back from JSON solves one per
    conjugate pair, 7.  Both routes print the direct multiplicities."""
    from voltlift import spectra

    source = ["--token-cayley", "Z13", "--gens", "1,3,9", "--k", "4", "--directed"]
    base = tmp_path / "base.json"
    assert run(capsys, "generate", "base", *source, "--out", str(base))[0] == 0
    assert all(arc["paired_with"] is None for arc in json.loads(base.read_text())["arcs"])
    calls = []
    solve = spectra.eigenvalues
    monkeypatch.setattr(spectra, "eigenvalues", lambda m: calls.append(1) or solve(m))
    code, characters, _ = run(capsys, "spectrum", *source)
    assert code == 0 and len(calls) == 3
    calls.clear()
    assert run(capsys, "spectrum", "--in", str(base))[0] == 0
    assert len(calls) == 7
    code, direct, _ = run(capsys, "spectrum", *source, "--method", "direct")
    assert code == 0

    def multiplicities(csv):
        return [int(line.split(",")[2]) for line in csv.splitlines()[1:]]

    assert sum(multiplicities(direct)) == 715
    assert multiplicities(characters) == multiplicities(direct)


@pytest.mark.parametrize("target", ["isomorphism", "spectrum-equivalence"])
def test_verify_directed_token_cayley(capsys, target):
    code, out, _ = run(capsys, "verify", target, "--token-cayley", "Z8", "--gens", "1",
                       "--k", "3", "--directed")
    assert code == 0
    assert out.startswith(f"PASS {target}")


# a coordinate past 9 at rank 2, and a 1-subset at rank 2
@pytest.mark.parametrize("source", [
    ["--token-cayley", "Z2xZ11", "--gens", "[1;0],[0;1]", "--k", "1", "--representatives",
     "[1;10]"],
    ["--token-cayley", "Z3xZ3", "--gens", "10,01", "--k", "1", "--representatives", "12"],
], ids=["bracket-past-9", "single-element"])
@pytest.mark.parametrize("target", ["isomorphism", "spectrum-equivalence"])
def test_verify_reads_bracket_and_single_element_representatives(capsys, target, source):
    code, out, err = run(capsys, "verify", target, *source)
    assert (code, err) == (0, "")
    assert out.startswith(f"PASS {target}")


def test_generators_and_representatives_read_one_element_grammar():
    """[a;b], signed digits and plain integers at rank 1 read alike in both
    lists; at rank 1 a run of digits is one element per digit."""
    z33, z2z11, z13 = AbelianGroup(3, 3), AbelianGroup(2, 11), AbelianGroup(13)
    assert parse_generators(z33, "12,[1;2],-21,[4;-1]", symmetrize=False).tolist() == [5] * 4
    assert parse_generators(z2z11, "01,[1;10]").tolist() == [1, 21, 10, 12]
    assert parse_generators(z13, "-1, [3]").tolist() == [12, 3, 1, 10]
    assert parse_representatives(z33, "12") == [(5,)]
    assert parse_representatives(z33, "00,12/[0;1] [1;0]/-11") == [(0, 5), (1, 3), (8,)]
    assert parse_representatives(z2z11, "[1;10]/[0;3],01/[1; 10], [0; 3]") == \
        [(21,), (1, 3), (3, 21)]
    assert parse_representatives(z13, "012/[12]/-1/1,12") == [(0, 1, 2), (12,), (12,), (1, 12)]
    for group, text, message in [
        (z33, "123", "representative element '123' needs 2 digits"),
        (z33, "1a", "cannot parse representative element '1a'"),
        (z13, "0a", "cannot parse representative element '0a': invalid literal"),
    ]:
        with pytest.raises(CliError) as err:
            parse_representatives(group, text)
        assert str(err.value).startswith(message)


def test_spectrum_refuses_the_removed_irreps_options(capsys):
    """Irreps are computed from the group table: no method or file names them."""
    for argv, message in [(["--method", "irreps"], "argument --method: invalid choice: 'irreps'"),
                          (["--irreps", "irreps.json"],
                           "unrecognized arguments: --irreps irreps.json")]:
        code, out, err = run(capsys, "spectrum", "--johnson", "5", "2", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"voltlift: error: {message}")


@pytest.mark.parametrize("source, vertices", CONSTRUCTIVE_SOURCES, ids=SOURCE_IDS)
def test_verify_isomorphism_johnson(capsys, tmp_path, source, vertices):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", "isomorphism", *source,
                       "--certificate", str(cert))
    assert code == 0
    assert out.startswith("PASS")
    assert len(json.loads(cert.read_text())) == vertices


@pytest.mark.parametrize("source", [s for s, _ in CONSTRUCTIVE_SOURCES], ids=SOURCE_IDS)
def test_verify_spectrum_equivalence_token_cayley(capsys, source):
    code, out, _ = run(capsys, "verify", "spectrum-equivalence", *source)
    assert code == 0
    assert out.startswith("PASS")


def test_verify_johnson_closed_form(capsys):
    code, out, _ = run(capsys, "verify", "johnson-closed-form", "--n", "8", "--k", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_reproduce_tables(capsys):
    for table in ("t1", "t2", "t3"):
        code, out, _ = run(capsys, "reproduce", table)
        assert code == 0, out
        assert out.strip().endswith("PASS")


def test_reproduce_s32(capsys):
    code, out, _ = run(capsys, "reproduce", "s32-examples")
    assert code == 0
    assert "DIVERGES" in out  # documented discrepancies are printed


def test_reproduce_t5_reports_documented_discrepancy(capsys):
    code, out, _ = run(capsys, "reproduce", "t5")
    # the stored 2-decimal grid contains misprinted cells; the runner flags
    # them and reports the mismatch honestly
    assert code == 1
    assert "documented discrepancy" in out
    assert "cell (1, 1): computed [2.00, 0.56, -1.00, -3.56]" in out


def test_reproduce_rows_print_zero_eigenvalues_as_zero(capsys):
    """The t3 row lines round near-zero parts as the combined spectrum
    below them does; t5 keeps its 2-decimal cells and its verdicts."""
    code, out, _ = run(capsys, "reproduce", "t3")
    assert code == 0
    assert "  chars 0: computed [12, 0, 0, -3, -3]  expected" in out
    assert "  chars 1|6: computed [5, 0, 0, -3, -3]  expected" in out
    assert "  combined spectrum {12, 5^[6], 0^[14], -3^[14]}  PASS" in out
    code, out, _ = run(capsys, "reproduce", "t5")
    assert code == 1
    cells = [line.split("  [")[0] for line in out.splitlines() if line.startswith("  cell")]
    edge = "computed [3.79, 1.35, -1.00, -3.14]  expected [3.78, 1.54, -1.0, -3.13]  FAIL"
    axis = "computed [2.00, 0.56, -1.00, -3.56]  expected [2.0, 0.56, -1.0, -3.56]  PASS"
    assert cells == [
        "  cell (0, 0): computed [7.12, 2.00, -1.12, -4.00]  "
        "expected [7.12, 1.34, -1.0, -3.13]  FAIL",
        f"  cell (0, 1): {edge}", f"  cell (0, 2): {edge}", f"  cell (1, 0): {edge}",
        f"  cell (1, 1): {axis}", f"  cell (1, 2): {axis}", f"  cell (2, 0): {edge}",
        f"  cell (2, 1): {axis}", f"  cell (2, 2): {axis}",
    ]


def test_reproduce_c5_reports_documented_discrepancy(capsys):
    code, out, _ = run(capsys, "reproduce", "c5-digraph")
    assert code == 1
    assert "documented discrepancy" in out


def test_spectrum_of_a_nonabelian_base_file(capsys, tmp_path):
    """The default method computes the irreps of a table-defined group."""
    from helpers import s3_group_and_irreps

    group, _, _ = s3_group_and_irreps()
    vg = voltlift.VoltageGraph.directed_from_arcs(group, ["v"], [(0, 0, 1), (0, 0, 2)])
    vg_path = tmp_path / "vg.json"
    vg_path.write_text(json.dumps(vg.to_json()))
    code, out, _ = run(capsys, "spectrum", "--in", str(vg_path))
    assert code == 0
    assert out.splitlines()[1:] == ["2,0,2", "-1,0,4"]
    # L = 2I - A on the 2-regular lift
    code, out, _ = run(capsys, "spectrum", "--in", str(vg_path), "--laplacian")
    assert code == 0
    assert out.splitlines()[1:] == ["3,0,4", "0,0,2"]
    code, out, _ = run(capsys, "verify", "spectrum-equivalence", "--in", str(vg_path))
    assert code == 0
    assert out.startswith("PASS spectrum-equivalence")


def test_exit_code_2_on_bad_params(capsys):
    assert run(capsys, "spectrum", "--bogus")[0] == 2
    assert run(capsys, "generate", "base", "--johnson-base", "6", "2")[0] == 2
    assert run(capsys, "spectrum")[0] == 2
    assert run(capsys, "generate", "token", "--complete", "5", "--k", "9")[0] == 2


def _leaf_flags(parser, path=()):
    """(command, flags it accepts) for every leaf command under parser."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        flags = {flag for a in parser._actions for flag in a.option_strings}
        yield " ".join(path), flags - {"-h", "--help"}
    for sub in subparsers:
        for name, child in sub.choices.items():
            yield from _leaf_flags(child, path + (name,))


# --johnson is an alias of --johnson-base; the rest are read with --token-cayley
SOURCE_FLAGS = {"--johnson-base", "--johnson", "--circulant-linegraph", "--token-cayley",
                "--in", "--gens", "--k", "--representatives", "--directed"}
LEAF_FLAGS = {
    "generate cayley": {"--group", "--gens", "--directed", "--out", "--dot", "--adjacency-csv"},
    "generate token": {"--complete", "--directed-cycle", "--in", "--k", "--out", "--dot",
                       "--adjacency-csv"},
    "generate lift": SOURCE_FLAGS | {"--out", "--dot", "--adjacency-csv"},
    "generate base": SOURCE_FLAGS | {"--out", "--dot"},
    "spectrum": SOURCE_FLAGS | {"--method", "--laplacian", "--signless", "--universal",
                                "--per-character", "--out"},
    "verify isomorphism": SOURCE_FLAGS | {"--certificate"},
    "verify spectrum-equivalence": SOURCE_FLAGS | {"--tol"},
    "verify johnson-closed-form": {"--n", "--k", "--tol"},
    "reproduce": set(),
}


def test_each_command_accepts_only_the_flags_it_reads():
    leaves = dict(_leaf_flags(build_parser()))
    assert leaves == LEAF_FLAGS
    # one (command, flag) pair per flag, the alias not counted
    assert sum(len(flags - {"--johnson"}) for flags in leaves.values()) == 69


@pytest.mark.parametrize("source", [s for s, _ in CONSTRUCTIVE_SOURCES]
                         + [["--token-cayley", "Z8", "--gens", "1", "--k", "3", "--directed"]],
                         ids=SOURCE_IDS + ["directed-token-cayley"])
def test_generate_lift_of_a_source_equals_the_lift_of_its_base_file(capsys, tmp_path, source):
    base = tmp_path / "base.json"
    assert run(capsys, "generate", "base", *source, "--out", str(base))[0] == 0
    outputs = []
    for argv in (source, ["--in", str(base)]):
        dot, csv = tmp_path / "lift.dot", tmp_path / "lift.csv"
        code, out, err = run(capsys, "generate", "lift", *argv, "--dot", str(dot),
                             "--adjacency-csv", str(csv))
        assert (code, err) == (0, "")
        outputs.append((out, dot.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]


# graph and voltage graph files that are valid JSON but not valid graphs
MALFORMED_GRAPHS = {
    "NOT_OBJECT": 5,
    "NO_GROUP": {"vertices": [0], "arcs": []},
    "NO_VERTICES": {"group": {"orders": [5]}},
    "NO_ARCS": {"vertices": [0, 1]},
    "ARCS_NOT_LIST": {"vertices": [0, 1], "arcs": {"0": 1}},
    "ARC_ROW_OF_3": {"vertices": [0, 1], "arcs": [[0, 1, 1]]},
    "ARC_ROW_NOT_LIST": {"vertices": [0, 1], "arcs": [0, 1]},
    "ARC_INDEX_NOT_INT": {"vertices": [0, 1], "arcs": [[0, "x"]]},
    "ARC_INDEX_FLOAT": {"vertices": [0, 1], "arcs": [[0, 1.5]]},
    "VOLTAGE_ARC_NO_HEAD": {"group": {"orders": [5]}, "vertices": [0],
                            "arcs": [{"tail": 0, "voltage": [1]}]},
    "VOLTAGE_ARC_NOT_OBJECT": {"group": {"orders": [5]}, "vertices": [0], "arcs": [[0, 0]]},
    "VOLTAGE_TAIL_NOT_INT": {"group": {"orders": [5]}, "vertices": [0],
                             "arcs": [{"tail": "0", "head": 0, "voltage": [1]}]},
    # a table-defined group's voltage is one element index
    "GENERIC_VOLTAGE_OF_2": {"group": {"size": 2, "table": [0, 1, 1, 0]}, "vertices": [0],
                             "arcs": [{"tail": 0, "head": 0, "voltage": [1, 0]}]},
    "GROUP_NO_SIZE": {"group": {"table": [0]}, "vertices": [0], "arcs": []},
    "GROUP_ORDER_NOT_INT": {"group": {"orders": ["x"]}, "vertices": [0], "arcs": []},
    "GROUP_NOT_LATIN": {"group": {"size": 2, "table": [0, 1, 0, 1]}, "vertices": [0], "arcs": []},
    "GROUP_ENTRY_BEYOND_INTP": {"group": {"size": 1, "table": [2**70]}, "vertices": [0],
                                "arcs": []},
    "OBJECT_LABEL": {"vertices": [{"a": 1}], "arcs": []},
    # a voltage graph over S3
    "S3_GRAPH": {"group": {"size": 6, "table": [0, 1, 2, 3, 4, 5, 1, 2, 0, 5, 3, 4,
                                                2, 0, 1, 4, 5, 3, 3, 4, 5, 0, 1, 2,
                                                4, 5, 3, 2, 0, 1, 5, 3, 4, 1, 2, 0]},
                 "vertices": [0], "arcs": [{"tail": 0, "head": 0, "voltage": [1]},
                                           {"tail": 0, "head": 0, "voltage": [2]}]},
}

MALFORMED = {
    "k-not-int": ["spectrum", "--token-cayley", "Z5", "--gens", "1", "--k", "x"],
    "universal-not-float": ["spectrum", "--johnson", "5", "2", "--universal", "1,a,0,0"],
    "universal-nan": ["spectrum", "--johnson", "7", "3", "--universal", "nan,0,0,0"],
    "universal-inf": ["spectrum", "--johnson", "7", "3", "--universal", "1,0,inf,0"],
    "directed-without-token-cayley": ["spectrum", "--johnson", "7", "3", "--directed"],
    "representative-not-int": ["spectrum", "--token-cayley", "Z5", "--gens", "1",
                               "--k", "2", "--representatives", "0a/02/03"],
    "generator-not-int": ["spectrum", "--token-cayley", "Z5", "--gens", "1,b", "--k", "2"],
    "circulant-not-int": ["spectrum", "--circulant-linegraph", "12", "2,x"],
    "tol-not-float": ["verify", "spectrum-equivalence", "--johnson", "5", "2", "--tol", "x"],
    "tol-nan": ["verify", "spectrum-equivalence", "--johnson", "7", "3", "--tol", "nan"],
    "tol-inf": ["verify", "spectrum-equivalence", "--johnson", "7", "3", "--tol", "inf"],
    "tol-negative": ["verify", "johnson-closed-form", "--n", "7", "--k", "3", "--tol", "-1e-8"],
    "n-missing": ["verify", "johnson-closed-form", "--k", "3"],
    "token-k-missing": ["generate", "token", "--complete", "5"],
    "truncated-json": ["spectrum", "--in", "TRUNCATED"],
    "in-is-a-directory": ["spectrum", "--in", "TMPDIR"],
    "json-not-object": ["spectrum", "--in", "NOT_OBJECT"],
    # a file without a group is a plain graph, which has no lift to generate
    "voltage-json-no-group": ["generate", "lift", "--in", "NO_GROUP"],
    "voltage-json-no-vertices": ["spectrum", "--in", "NO_VERTICES"],
    "graph-json-no-arcs": ["spectrum", "--in", "NO_ARCS"],
    "graph-json-arcs-not-list": ["spectrum", "--in", "ARCS_NOT_LIST"],
    "graph-json-arc-row-of-3": ["spectrum", "--in", "ARC_ROW_OF_3"],
    "graph-json-arc-row-not-list": ["spectrum", "--in", "ARC_ROW_NOT_LIST"],
    "graph-json-index-not-int": ["spectrum", "--in", "ARC_INDEX_NOT_INT"],
    "graph-json-index-float": ["generate", "token", "--k", "1", "--in", "ARC_INDEX_FLOAT"],
    "voltage-json-arc-no-head": ["spectrum", "--in", "VOLTAGE_ARC_NO_HEAD"],
    "voltage-json-arc-not-object": ["spectrum", "--in", "VOLTAGE_ARC_NOT_OBJECT"],
    "voltage-json-tail-not-int": ["spectrum", "--in", "VOLTAGE_TAIL_NOT_INT"],
    "voltage-json-generic-voltage-of-2": ["generate", "lift", "--in", "GENERIC_VOLTAGE_OF_2"],
    "group-json-no-size": ["spectrum", "--in", "GROUP_NO_SIZE", "--method", "direct"],
    "group-json-order-not-int": ["spectrum", "--in", "GROUP_ORDER_NOT_INT"],
    "group-json-not-latin": ["spectrum", "--in", "GROUP_NOT_LATIN"],
    "group-json-entry-beyond-intp": ["spectrum", "--in", "GROUP_ENTRY_BEYOND_INTP"],
    "graph-json-object-label": ["spectrum", "--in", "OBJECT_LABEL"],
    "two-sources": ["spectrum", "--johnson", "7", "3", "--token-cayley", "Z5", "--gens", "1",
                    "--k", "2"],
    "k-beside-johnson": ["spectrum", "--johnson", "7", "3", "--k", "5"],
    "irreps-with-characters": ["spectrum", "--johnson", "5", "2", "--method", "characters",
                               "--irreps", "S3_GRAPH"],
    # per-character rows need characters, which a non-abelian group lacks
    "per-character-nonabelian": ["spectrum", "--in", "S3_GRAPH", "--per-character"],
    "laplacian-and-signless": ["spectrum", "--johnson", "5", "2", "--laplacian", "--signless"],
    "directed-token-of-complete": ["generate", "token", "--complete", "4", "--k", "2",
                                   "--directed"],
    "base-adjacency-csv": ["generate", "base", "--johnson", "7", "3", "--adjacency-csv", "NEW"],
    "closed-form-with-source": ["verify", "johnson-closed-form", "--n", "6", "--k", "2",
                                "--johnson", "7", "3"],
    "abbreviated-flag": ["spectrum", "--johnson", "5", "2", "--lap"],
    "cayley-without-group": ["generate", "cayley", "--gens", "1"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    """Each call exits 2 with an error on stderr, no output and no file written."""
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"vertices": [0, 1')
    paths = {"TRUNCATED": str(truncated), "TMPDIR": str(tmp_path),
             "NEW": str(tmp_path / "new.csv")}
    for name, data in MALFORMED_GRAPHS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    files = sorted(tmp_path.iterdir())
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("voltlift: error:")
    assert sorted(tmp_path.iterdir()) == files


def test_check_rows_fails_on_missing_rows_and_values(capsys):
    from voltlift import johnson_base, reference
    from voltlift.cli import _check_rows

    vg = johnson_base(5, 2)
    table = reference.TABLE_T1
    assert _check_rows(vg, table)
    extra_row = {**table, "rows": table["rows"] + [((9,), (0.0,))]}
    assert not _check_rows(vg, extra_row)
    first, *rest = table["rows"]
    extra_value = {**table, "rows": [(first[0], first[1] + (5.0,)), *rest]}
    assert not _check_rows(vg, extra_value)


def test_reproduce_t5_fails_a_cell_with_an_extra_expected_value(capsys, monkeypatch):
    from voltlift import reference

    grid = dict(reference.TABLE_T5["grid"])
    grid[(1, 1)] = grid[(1, 1)] + (9.0,)
    monkeypatch.setitem(reference.TABLE_T5, "grid", grid)
    code, out, _ = run(capsys, "reproduce", "t5")
    assert code == 1
    line = next(x for x in out.splitlines() if x.startswith("  cell (1, 1):"))
    assert "PASS" not in line and "  FAIL" in line


def test_exit_code_3_on_numeric_limit(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"vertices": list(range(4097)), "arcs": [], "undirected": False}
    ))
    code, _, err = run(capsys, "spectrum", "--in", str(big), "--method", "direct")
    assert code == 3
    assert "numeric failure" in err
    # C(70, 35) > 2**63: refused before any subset table is allocated
    code, out, err = run(capsys, "spectrum", "--token-cayley", "Z70", "--gens", "1",
                         "--k", "35")
    assert (code, out) == (3, "")
    assert err == ("voltlift: numeric failure: C(70, 35) = 112186277816662845432 "
                   "35-subsets: their ranks do not fit int64\n")
    # C(40, 20) fits int64 but is past the decomposition's subset cap
    code, out, err = run(capsys, "spectrum", "--token-cayley", "Z40", "--gens", "1",
                         "--k", "20")
    assert (code, out) == (3, "")
    assert err.startswith("voltlift: numeric failure: C(40, 20) = 137846528820 20-subsets "
                          "exceed the cap")


def test_direct_cap_is_refused_before_the_graph_is_built(capsys, monkeypatch):
    """J(17,5) lifts to 6188 vertices, past the direct cap: both commands
    refuse from the base's n*|G| without building the lift or the target."""
    from voltlift import cli

    def never(*args):
        raise AssertionError("built a graph past the direct cap")

    monkeypatch.setattr(voltlift.VoltageGraph, "lift", never)
    monkeypatch.setattr(cli, "token_graph", never)
    for argv in (["spectrum", "--johnson", "17", "5", "--method", "direct"],
                 ["verify", "spectrum-equivalence", "--johnson", "17", "5"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "voltlift: numeric failure: 6188 vertices exceed the 4096 cap\n"


def test_johnson_flag_alias(capsys, tmp_path):
    out = tmp_path / "b.json"
    assert run(capsys, "generate", "base", "--johnson", "7", "2",
               "--out", str(out))[0] == 0
    assert len(json.loads(out.read_text())["vertices"]) == 3


def test_byte_determinism(capsys):
    first = run(capsys, "spectrum", "--johnson-base", "7", "3",
                "--method", "characters", "--per-character")
    second = run(capsys, "spectrum", "--johnson-base", "7", "3",
                 "--method", "characters", "--per-character")
    assert first == second


@pytest.mark.parametrize("module, argv, code, stdout_end, stderr", [
    ("voltlift.cli", ["verify", "spectrum-equivalence", "--johnson", "7", "3", "--tol", "nan"],
     2, "", "voltlift: error: --tol must be a finite number >= 0, got nan\n"),
    ("voltlift", ["reproduce", "t1"], 0, "PASS\n", ""),
], ids=["cli-module-bad-tol", "package-reproduce"])
def test_python_dash_m_runs_the_cli(module, argv, code, stdout_end, stderr):
    """python -m voltlift.cli and python -m voltlift run the command line
    and exit with its code."""
    src = str(Path(voltlift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (code, stderr)
    assert done.stdout.endswith(stdout_end)

