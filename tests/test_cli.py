import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperarcs.cli import dispatch
from hyperarcs.gf2 import field_make
from test_onefact import EDGE_WHITESPACE, MUTATIONS, mutate


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


# ---------------------------------------------------------------------------
# field


def test_field_report(capsys):
    code, report, _ = run_json(capsys, "field", "--r", "3")
    assert code == 0
    assert report["field"] == {"r": 3, "poly": "0xb"}
    assert report["results"]["q"] == 8


def test_field_reducible_poly_is_config_error(capsys):
    code, out, err = run(capsys, "field", "--r", "4", "--poly", "0x15")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["field", "--r", "3", "--q", "16"], "not allowed with"),
        (["classify", "--q", "abc"], "invalid int value"),
        (["classify", "--q", "16", "--budget", "-1"], "--budget: -1 is below 0"),
        (["classify", "--q", "16", "--budget", "x"], "invalid int value: 'x'"),
        (["onefact", "embed", "--catalog", "k6.txt", "--q", "8", "--budget", "-1"],
         "--budget: -1 is below 0"),
        (["onefact", "embed", "--catalog", "k6.txt", "--q", "8", "--limit", "-1"],
         "--limit: -1 is below 0"),
    ],
)
def test_flag_rejected_by_argparse_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
# each number-reading flag in a command that reads it; {} is its value
NUMBER_FLAGS = {
    "--r": ["field", "--r", "{}"],
    "--q": ["field", "--q", "{}"],
    "--poly": ["field", "--r", "4", "--poly", "{}"],
    "--i": ["arc", "build", "--example", "n2", "--r", "5", "--h-basis", "1,2", "--i", "{}"],
    "--s": ["arc", "complete", "--r", "8", "--s", "{}"],
    "--n": ["onefact", "enumerate", "--n", "{}"],
    "--max-k": ["classify", "--q", "16", "--max-k", "{}"],
    "--budget": ["classify", "--q", "16", "--max-k", "6", "--budget", "{}"],
    "--limit": ["onefact", "embed", "--catalog", str(GOLDEN / "k6.txt"), "--q", "4",
                "--limit", "{}"],
    "--lambda": ["ghf", "build", "--q", "16", "--lambda", "{}", "--a1", "4", "--a2", "8"],
    "--a1": ["ghf", "build", "--q", "16", "--lambda", "2", "--a1", "{}", "--a2", "8"],
    "--a2": ["ghf", "build", "--q", "16", "--lambda", "2", "--a1", "4", "--a2", "{}"],
    "--eta": ["arc", "build", "--example", "n3", "--q", "16", "--eta", "{}", "--b", "0"],
    "--b": ["arc", "build", "--example", "n3", "--q", "16", "--eta", "4", "--b", "{}"],
    "--h-basis": ["arc", "build", "--example", "n1", "--r", "5", "--h-basis", "1,{}"],
}


@pytest.mark.parametrize("spelling", ["+4", " 4", "1_6", "\u0664", "0x_4", "0x"])
@pytest.mark.parametrize("flag", sorted(NUMBER_FLAGS))
def test_number_flag_refuses_non_plain_spelling(capsys, flag, spelling):
    # int() reads the first four as 4 or 16
    code, out, err = run(capsys, *(a.replace("{}", spelling) for a in NUMBER_FLAGS[flag]))
    assert (code, out) == (2, "")
    assert "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("spelling", ["16", "0x10", "0X10"])
def test_field_value_flags_read_decimal_and_hex(capsys, spelling):
    code, report, _ = run_json(
        capsys, "ghf", "build", "--q", "32", "--lambda", spelling, "--a1", "4", "--a2", "8")
    assert code == 0 and report["inputs"]["params"]["lam"] == 16
    code, report, _ = run_json(
        capsys, "arc", "build", "--example", "n1", "--r", "5", "--h-basis", f"1,{spelling}")
    assert code == 0 and report["inputs"]["h_basis"] == [1, 16]


@pytest.mark.parametrize("spelling", ["13", "0x13", "0X13"])
def test_poly_flag_reads_base_16(capsys, spelling):
    code, report, _ = run_json(capsys, "field", "--q", "16", "--poly", spelling)
    assert code == 0 and report["field"] == {"r": 4, "poly": "0x13"}


@pytest.mark.parametrize("spelling", ["1_3", " 0x13", "+13", "0x_13", "\u0661\u0663", "13 "])
def test_poly_flag_refuses_what_arc_files_refuse(capsys, spelling):
    # int(spelling, 16) reads each of these as 0x13
    code, out, err = run(capsys, "field", "--q", "16", "--poly", spelling)
    assert (code, out) == (2, "")
    assert "--poly" in err and "is not a base-16 spelling" in err


def test_unknown_command_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["arc"],
        ["blocking"],
        ["ghf"],
        ["onefact"],
        ["field"],
        ["classify"],
        ["arc", "verify"],
        ["arc", "complete", "--r", "6"],
        ["blocking", "find"],
        ["onefact", "enumerate"],
        ["onefact", "closure"],
        ["onefact", "embed", "--q", "8"],
    ],
)
def test_missing_subcommand_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "required" in err


@pytest.mark.parametrize(
    "leaf",
    [
        ["field"],
        ["arc", "build"],
        ["arc", "complete"],
        ["arc", "verify"],
        ["blocking", "find"],
        ["ghf", "build"],
        ["onefact", "enumerate"],
        ["onefact", "closure"],
        ["onefact", "embed"],
        ["classify"],
    ],
)
def test_leaf_help_exits_0(capsys, leaf):
    code, out, _ = run(capsys, *leaf, "--help")
    assert code == 0
    assert out.startswith(f"usage: hyperarcs {' '.join(leaf)}")


@pytest.mark.parametrize(
    "argv",
    [
        ["ghf", "build", "--q", "16", "--lambda", "zz"],
        # some but not all of the construction's parameters
        ["ghf", "build", "--q", "16", "--lambda", "2"],
        ["arc", "build", "--example", "n1", "--r", "3", "--h-basis", "zz"],
        ["arc", "build", "--example", "n3", "--q", "16", "--eta", "zz", "--b", "1"],
        ["field", "--q", "0"],
        ["arc", "complete", "--r", "6", "--s", "0"],
        ["--out", "{missing}/x.json", "field", "--r", "4"],
        ["classify", "--q", "16", "--max-k", "12"],
        ["classify", "--q", "16", "--max-k", "5"],
        ["classify", "--q", "1"],
        # q = 64 is past the embedding search; --max-k 8 keeps the catalogs small
        ["classify", "--q", "64", "--max-k", "8"],
        ["onefact", "enumerate", "--n", "6"],
    ],
)
def test_bad_input_is_exit_2_with_message(tmp_path, capsys, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["onefact", "closure", "--catalog", "{bad}"],
        ["onefact", "embed", "--catalog", "{bad}", "--q", "8"],
        ["arc", "verify", "--in", "{bad}"],
        ["blocking", "find", "--in", "{bad}", "--all"],
    ],
)
def test_non_utf8_input_is_exit_2_with_message(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, *[a.replace("{bad}", str(bad)) for a in argv])
    assert code == 2
    assert err.startswith("error: cannot read ")
    assert out == ""


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperarcs", "field", "--r", "3"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["q"] == 8


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # both cost every run of the command line their import time
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, hyperarcs.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# arc


def test_arc_build_and_verify_round_trip(tmp_path, capsys):
    arc_path = tmp_path / "arc.json"
    code, report, _ = run_json(
        capsys, "arc", "build", "--example", "n1", "--r", "3",
        "--save", str(arc_path),
    )
    assert code == 0
    assert report["results"]["size"] == 8
    saved = json.loads(arc_path.read_text())
    assert saved == report["results"]["arc"]

    code, report, _ = run_json(capsys, "arc", "verify", "--in", str(arc_path))
    assert code == 0
    assert report["verdicts"]["is_arc"] is True
    assert report["results"]["size"] == 8


def test_arc_verify_malformed_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "malformed.json"
    bad.write_text('{"bad": 1}')
    code, out, err = run(capsys, "arc", "verify", "--in", str(bad))
    assert code == 2
    not_json = tmp_path / "notjson.json"
    not_json.write_text("}{")
    code, out, err = run(capsys, "arc", "verify", "--in", str(not_json))
    assert code == 2
    fractional_poly = tmp_path / "fractional_poly.json"
    fractional_poly.write_text(json.dumps({
        "field": {"r": 4, "poly": 19.5},
        "points": [["0x0", "0x0", "0x1"]],
    }))
    code, out, err = run(capsys, "arc", "verify", "--in", str(fractional_poly))
    assert code == 2
    assert err.startswith("error: ")
    no_points = tmp_path / "no_points.json"
    no_points.write_text(json.dumps({"field": {"r": 3}}))
    code, out, err = run(capsys, "arc", "verify", "--in", str(no_points))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_arc_verify_collinear_is_verification_failure(tmp_path, capsys):
    bad = tmp_path / "collinear.json"
    bad.write_text(json.dumps({
        "field": {"r": 2, "poly": "0x7"},
        "points": [["0x0", "0x0", "0x1"], ["0x1", "0x0", "0x1"],
                   ["0x2", "0x0", "0x1"]],
    }))
    code, report, _ = run_json(capsys, "arc", "verify", "--in", str(bad))
    assert code == 1
    assert report["verdicts"]["is_arc"] is False
    assert report["witnesses"]["collinear_triple"]


def test_arc_build_n2(capsys):
    code, report, _ = run_json(
        capsys, "arc", "build", "--example", "n2", "--r", "5", "--i", "2",
    )
    assert code == 0
    assert report["results"]["size"] == 32


def test_arc_build_n2_missing_i(capsys):
    code, _, err = run(capsys, "arc", "build", "--example", "n2", "--r", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--example", "n1", "--r", "3", "--i", "2"], "--i"),
        (["--example", "n3", "--q", "16", "--h-basis", "1,2"], "--h-basis"),
        (["--example", "n2", "--r", "5", "--i", "2", "--eta", "7"], "--eta"),
    ],
)
def test_arc_build_rejects_a_flag_its_example_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "arc", "build", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: example {argv[1]} does not read {flag}\n"


@pytest.mark.parametrize("command", [["arc", "verify"], ["blocking", "find"]])
@pytest.mark.parametrize("coordinate", [0.9, 2.9, True])
def test_non_integer_coordinate_is_exit_2(tmp_path, capsys, command, coordinate):
    # the standard frame of PG(2, 4), with (0, 0, 1) spelt [coordinate, 0, 1]:
    # truncated to an int, the file would read as a 4-arc
    bad = tmp_path / "arc.json"
    bad.write_text(json.dumps({
        "field": {"r": 2},
        "points": [[1, 0, 0], [0, 1, 0], [coordinate, 0, 1], [1, 1, 1]],
    }))
    code, out, err = run(capsys, *command, "--in", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "malformed coordinate" in err


@pytest.mark.parametrize("command", [["arc", "verify"], ["blocking", "find"]])
@pytest.mark.parametrize("repeat", [[1, 1, 1], [2, 2, 2]])
def test_repeated_point_is_exit_2(tmp_path, capsys, command, repeat):
    # the standard frame of PG(2, 4) with (1, 1, 1) listed again, literally
    # or as the multiple (2, 2, 2): merged, the file would read as a 4-arc
    bad = tmp_path / "arc.json"
    bad.write_text(json.dumps({
        "field": {"r": 2},
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], repeat],
    }))
    code, out, err = run(capsys, *command, "--in", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "listed twice" in err


# A 4-arc of PG(2, 8) as an arc file; each mutant below breaks the contract
ARC_FILE = {
    "field": {"r": 3, "poly": "0xb"},
    "points": [["0x1", "0x0", "0x0"], ["0x0", "0x1", "0x0"],
               ["0x0", "0x0", "0x1"], ["0x1", "0x1", "0x1"]],
}
ARC_MUTATIONS = (
    "repeat a point", "non-int coordinate", "out-of-range coordinate",
    "non-hex string", "non-hex spelling", "zero point", "bad point shape",
    "bad poly", "non-int r", "drop a key", "truncate",
)
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def mutate_arc_file(kind, data):
    """The text of ARC_FILE with one defect of the given kind, drawn from data."""
    obj = json.loads(json.dumps(ARC_FILE))
    points = obj["points"]
    i = data.draw(st.integers(0, len(points) - 1))
    c = data.draw(st.integers(0, 2))
    value = int(points[i][c], 16)
    if kind == "repeat a point":
        # the same projective point, literally or as a multiple: x -> x * s
        spec = field_make(3)
        s = data.draw(st.integers(1, spec.q - 1))
        twin = [f"0x{spec.mul(int(v, 16), s):x}" for v in points[i]]
        points.insert(data.draw(st.integers(0, len(points))), twin)
    elif kind == "non-int coordinate":
        points[i][c] = data.draw(st.sampled_from(
            [float(value), 0.5, True, False, None, [value], [], {}]))
    elif kind == "out-of-range coordinate":
        bad = data.draw(st.sampled_from([8, 9, 255, 2 ** 64, -1]))
        points[i][c] = data.draw(st.sampled_from([bad, hex(bad)]))
    elif kind == "non-hex string":
        points[i][c] = data.draw(st.sampled_from(["", "0x", "g", "0xg", "1.0", "x1", "0x1 0"]))
    elif kind == "non-hex spelling":
        # int(text, 16) reads each of these as the coordinate's value
        points[i][c] = data.draw(st.sampled_from([
            f"+{value:x}", f" 0x{value:x}", f"0x{value:x}\n", f"0x_{value:x}",
            f"{value:x}".translate(ARABIC_INDIC), f"0x0x{value:x}",
        ]))
    elif kind == "zero point":
        points[i] = data.draw(st.sampled_from([["0x0", "0x0", "0x0"], [0, 0, 0]]))
    elif kind == "bad point shape":
        points[i] = data.draw(st.sampled_from(
            [points[i][:2], points[i] + ["0x1"], "0x1", {"x": "0x1"}, None]))
    elif kind == "bad poly":
        obj["field"]["poly"] = data.draw(st.sampled_from(
            ["0x7", "0x9", "0x1b", "0xg", "", 11.0, True, [11], "+0xb", " 0xb", "0x_b"]))
    elif kind == "non-int r":
        obj["field"]["r"] = data.draw(st.sampled_from([3.0, "3", True, None, [3]]))
    elif kind == "drop a key":
        key = data.draw(st.sampled_from(["field", "points", "r"]))
        del (obj["field"] if key == "r" else obj)[key]
    text = json.dumps(obj)
    if kind == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    return text


def test_arc_file_is_valid_before_mutation(tmp_path, capsys):
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(ARC_FILE))
    for command in (["arc", "verify"], ["blocking", "find"]):
        code, report, err = run_json(capsys, *command, "--in", str(path))
        assert code == 0 and err == ""
    assert report["results"]["count"] == 1


@given(data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_arc_file_is_usage_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutant_arc.json"
    path.write_text(mutate_arc_file(data.draw(st.sampled_from(ARC_MUTATIONS)), data))
    for command in (["arc", "verify"], ["blocking", "find"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([*command, "--in", str(path)])
        assert (code, out.getvalue()) == (2, "")
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())


CATALOG_MUTATIONS = MUTATIONS + ("separator", "truncate")


def mutate_catalog_line(line, kind, data):
    """line with one defect of the given kind, drawn from data: the kinds of
    test_parse_catalog_rejects_mutants, another separator between two edges,
    or a cut before the end."""
    if kind == "separator":
        i = data.draw(st.sampled_from([i for i, ch in enumerate(line) if ch == " "]))
        return line[:i] + data.draw(st.sampled_from(["\t", ",", "  "])) + line[i + 1:]
    if kind == "truncate":
        return line[:data.draw(st.integers(1, len(line) - 1))]
    return mutate(line, kind, data)


def test_golden_catalogs_are_valid_before_mutation(capsys):
    for name in ("k6.txt", "k8.txt"):
        for command in (["onefact", "closure"], ["onefact", "embed", "--q", "4"]):
            code, _, err = run_json(capsys, *command, "--catalog", str(GOLDEN / name))
            assert code == 0 and err == ""


@given(data=st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_catalog_is_usage_error(tmp_path_factory, data):
    lines = (GOLDEN / data.draw(st.sampled_from(["k6.txt", "k8.txt"]))).read_text().splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    lines[n] = mutate_catalog_line(lines[n], data.draw(st.sampled_from(CATALOG_MUTATIONS)), data)
    path = tmp_path_factory.getbasetemp() / "mutant_catalog.txt"
    path.write_text("\n".join(lines) + "\n")
    for command in (["onefact", "closure"], ["onefact", "embed", "--q", "4"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([*command, "--catalog", str(path)])
        assert (code, out.getvalue()) == (2, "")
        assert re.fullmatch(
            f"error: bad catalog {re.escape(str(path))}: line {n + 1}: [^\n]*\n", err.getvalue())


@pytest.mark.parametrize("spelling", EDGE_WHITESPACE)
def test_catalog_line_with_edge_whitespace_is_usage_error(tmp_path, capsys, spelling):
    good = (GOLDEN / "k8.txt").read_text().split("\n")[0]
    bad = EDGE_WHITESPACE[spelling](good)
    path = tmp_path / "catalog.txt"
    path.write_bytes(f"{good}\n{bad}\n{good}\n".encode())
    code, out, err = run(capsys, "onefact", "closure", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert re.fullmatch(
        f"error: bad catalog {re.escape(str(path))}: line 2: [^\n]*\n", err)


def test_arc_complete(capsys):
    code, report, _ = run_json(capsys, "arc", "complete", "--r", "6", "--s", "3")
    assert code == 0
    assert report["verdicts"]["uncovered_empty"] is True
    assert report["verdicts"]["hyperoval"] == "NOT_CONTAINED"
    assert report["verdicts"]["subplane"] == "NOT_CONTAINED"
    cert = report["results"]["certificate"]
    assert cert["arc_size"] >= 16


def test_arc_complete_matches_benchmark_golden(capsys):
    code, out, _ = run(capsys, "arc", "complete", "--r", "6", "--s", "3")
    root = Path(__file__).resolve().parents[1]
    golden = (root / "perfbench" / "golden" / "arc_complete_r6_s3.json").read_text()
    assert code == 0
    assert re.sub(r'^\s*"duration_s": .*\n', "", out, flags=re.MULTILINE) == golden


# ---------------------------------------------------------------------------
# blocking / ghf


def test_blocking_find(tmp_path, capsys):
    arc_path = tmp_path / "arc.json"
    run(capsys, "arc", "build", "--example", "n1", "--r", "3",
        "--save", str(arc_path))
    code, report, _ = run_json(
        capsys, "blocking", "find", "--in", str(arc_path), "--all"
    )
    assert code == 0
    assert report["results"]["count"] >= 1
    first = report["results"]["blocking_sets"][0]
    assert first["linear"] is True  # translation arcs are hyperfocused


def test_ghf_build_q16(capsys):
    code, report, _ = run_json(capsys, "ghf", "build", "--q", "16")
    assert code == 0
    assert report["verdicts"]["constructed"] is True
    assert report["verdicts"]["non_linear"] is True
    assert report["results"]["blocking_set"]["linear"] is False


def test_ghf_build_q8_reports_nonexistence(capsys):
    code, report, _ = run_json(capsys, "ghf", "build", "--q", "8")
    assert code == 1
    assert report["verdicts"]["constructed"] is False
    assert "reason" in report["witnesses"]


def test_ghf_build_explicit_params(capsys):
    code, report, _ = run_json(
        capsys, "ghf", "build", "--q", "16",
        "--lambda", "0x2", "--a1", "0x4", "--a2", "0x8",
    )
    assert code == 0
    assert report["inputs"]["params"] == {"lam": 2, "a1": 4, "a2": 8}


# ---------------------------------------------------------------------------
# onefact


def test_onefact_enumerate_counts(capsys):
    code, report, _ = run_json(capsys, "onefact", "enumerate", "--n", "4")
    assert code == 0
    assert report["results"]["classes"] == 6


def test_onefact_catalog_closure_embed(tmp_path, capsys):
    catalog = tmp_path / "k8.txt"
    code, report, _ = run_json(
        capsys, "onefact", "enumerate", "--n", "4", "--out", str(catalog)
    )
    assert code == 0
    assert catalog.exists()

    code, report, _ = run_json(
        capsys, "onefact", "closure", "--catalog", str(catalog)
    )
    assert code == 0
    rows = report["results"]["closure"]
    assert len(rows) == 6
    assert sum(1 for r in rows if not r["contains_all"]) == 1

    code, report, _ = run_json(
        capsys, "onefact", "embed", "--catalog", str(catalog), "--q", "8",
        "--limit", "2",
    )
    assert code == 0
    rows = report["results"]["embed"]
    assert len(rows) == 6
    embeddable = [r["index"] for r in rows if r["embeddings"]]
    assert len(embeddable) == 2  # only the two named cases embed


def test_onefact_closure_csv(tmp_path, capsys):
    catalog = tmp_path / "k6.txt"
    run(capsys, "onefact", "enumerate", "--n", "3", "--out", str(catalog))
    code, out, _ = run(
        capsys, "--format", "csv", "onefact", "closure", "--catalog", str(catalog),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,contains_all,depth,family_size"
    assert len(lines) == 2


def test_onefact_bad_catalog_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1-2 3-4 5-6|1-3 2-5 4-9\n")
    code, _, err = run(capsys, "onefact", "closure", "--catalog", str(bad))
    assert code == 2
    assert "line 1" in err


# int() reads each as the canonical K4 line 1-2 3-4|1-3 2-4|1-4 2-3
@pytest.mark.parametrize("line", ["1-2 3-4|1-3 2-4|1-4 2-+3", "1-2\t3-4|1-3 2-4|1-4 2-3"])
def test_onefact_non_decimal_catalog_is_usage_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"1-2 3-4|1-3 2-4|1-4 2-3\n{line}\n")
    code, out, err = run(capsys, "onefact", "closure", "--catalog", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "line 2: " in err


@pytest.mark.parametrize(
    "argv", [["onefact", "closure"], ["onefact", "embed", "--q", "8"]]
)
def test_onefact_empty_catalog_is_usage_error(tmp_path, capsys, argv):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    code, out, err = run(capsys, *argv, "--catalog", str(empty))
    assert code == 2
    assert out == ""
    assert err == f"error: catalog {empty} holds no factorization\n"


def test_onefact_closure_past_vertex_cap_is_exit_2(tmp_path, capsys):
    from hyperarcs.onefact import OneFactorization, format_catalog

    # GK18: factor i pairs vertex 18 with i and i - j with i + j modulo 17
    gk18 = OneFactorization(18, tuple(
        ((i + 1, 18),)
        + tuple(((i - j) % 17 + 1, (i + j) % 17 + 1) for j in range(1, 9))
        for i in range(17)
    ))
    path = tmp_path / "gk18.txt"
    path.write_text(format_catalog([gk18]))
    code, out, err = run(capsys, "onefact", "closure", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: closure supports at most 16 vertices, got 18\n"


def test_external_catalog_ingestion_and_dedup(tmp_path, capsys):
    # an externally relabeled catalog parses, validates, and collapses to
    # the same classes under canonicalization
    import random

    from hyperarcs.onefact import (
        OneFactorization,
        canonical_form,
        enumerate_factorizations,
        format_catalog,
        parse_catalog,
    )

    rng = random.Random(5)
    originals = enumerate_factorizations(4)
    relabeled = []
    for fact in originals:
        perm = list(range(1, 9))
        rng.shuffle(perm)
        relabeled.append(
            OneFactorization(
                8,
                tuple(
                    tuple(sorted((perm[u - 1], perm[v - 1])) for u, v in f)
                    for f in fact.factors
                ),
            )
        )
    path = tmp_path / "external.txt"
    path.write_text(format_catalog(relabeled + originals))
    facts = parse_catalog(path.read_text())
    assert len(facts) == 12
    assert len({canonical_form(f) for f in facts}) == 6

    code, report, _ = run_json(
        capsys, "onefact", "closure", "--catalog", str(path)
    )
    assert code == 0
    assert len(report["results"]["closure"]) == 12


# ---------------------------------------------------------------------------
# classify (kept small via max-k)


def test_classify_small(capsys):
    code, report, _ = run_json(
        capsys, "classify", "--q", "8", "--max-k", "6"
    )
    assert code == 0
    body = report["results"]["classification"]
    assert body["nonlinear"] == {"ks": [], "projective_classes": 0}
    assert report["verdicts"]["exhaustive"] is True


def test_classify_budgeted_partial_catalog_does_not_match_example(capsys):
    # the budget stops the q = 32 search after 14 of the construction's 15
    # classes: every class found is a construction class, but not all are
    code, report, _ = run_json(
        capsys, "classify", "--q", "32", "--max-k", "8", "--budget", "300"
    )
    assert code == 0
    assert report["results"]["nonlinear_classes"] == 14
    assert report["verdicts"]["exhaustive"] is False
    assert report["verdicts"]["matches_known_eight_arc"] is False
    assert report["results"]["classification"]["matches_example"] is False


# ---------------------------------------------------------------------------
# report plumbing


def test_out_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(path), "field", "--r", "2")
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["results"]["q"] == 4
