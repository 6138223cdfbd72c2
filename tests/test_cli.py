"""CLI surface: subcommands, exit codes, file round trips, determinism."""

import json

import pytest

from voltlift.cli import main

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


def test_spectrum_irreps_method(capsys):
    code, out, _ = run(capsys, "spectrum", "--johnson-base", "5", "2",
                       "--method", "irreps")
    assert code == 0
    assert out.splitlines()[1:] == ["6,0,1", "1,0,4", "-2,0,5"]


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


def test_reproduce_c5_reports_documented_discrepancy(capsys):
    code, out, _ = run(capsys, "reproduce", "c5-digraph")
    assert code == 1
    assert "documented discrepancy" in out


def test_spectrum_irreps_from_json_file(capsys, tmp_path):
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from helpers import s3_group_and_irreps

    from voltlift import VoltageGraph, representations_to_json

    group, _, irreps = s3_group_and_irreps()
    vg = VoltageGraph.directed_from_arcs(group, ["v"], [(0, 0, 1), (0, 0, 2)])
    vg_path = tmp_path / "vg.json"
    vg_path.write_text(json.dumps(vg.to_json()))
    irreps_path = tmp_path / "irreps.json"
    irreps_path.write_text(json.dumps(representations_to_json(irreps)))
    code, out, _ = run(capsys, "spectrum", "--in", str(vg_path),
                       "--method", "irreps", "--irreps", str(irreps_path))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(round(float(re), 8), int(m)) for re, im, m in rows] == [(2.0, 2), (-1.0, 4)]


def test_exit_code_2_on_bad_params(capsys):
    assert run(capsys, "spectrum", "--bogus")[0] == 2
    assert run(capsys, "generate", "base", "--johnson-base", "6", "2")[0] == 2
    assert run(capsys, "spectrum")[0] == 2
    assert run(capsys, "generate", "token", "--complete", "5", "--k", "9")[0] == 2


def test_exit_code_3_on_numeric_limit(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"vertices": list(range(4097)), "arcs": [], "undirected": False}
    ))
    code, _, err = run(capsys, "spectrum", "--in", str(big), "--method", "direct")
    assert code == 3
    assert "numeric failure" in err


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
