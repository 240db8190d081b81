import json

import pytest

from hyperarcs.cli import dispatch


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


def test_unknown_command_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [[], ["arc"], ["blocking"], ["ghf"], ["onefact"]])
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
        ["arc", "build", "--example", "n1", "--r", "3", "--h-basis", "zz"],
        ["arc", "build", "--example", "n3", "--q", "16", "--eta", "zz", "--b", "1"],
        ["field", "--q", "0"],
        ["arc", "complete", "--r", "6", "--s", "0"],
        ["--out", "{missing}/x.json", "field", "--r", "4"],
        ["classify", "--q", "16", "--max-k", "12"],
        ["onefact", "enumerate", "--n", "6"],
    ],
)
def test_bad_input_is_exit_2_with_message(tmp_path, capsys, argv):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


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


def test_arc_complete(capsys):
    code, report, _ = run_json(capsys, "arc", "complete", "--r", "6", "--s", "3")
    assert code == 0
    assert report["verdicts"]["uncovered_empty"] is True
    assert report["verdicts"]["hyperoval"] == "NOT_CONTAINED"
    assert report["verdicts"]["subplane"] == "NOT_CONTAINED"
    cert = report["results"]["certificate"]
    assert cert["arc_size"] >= 16


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


# ---------------------------------------------------------------------------
# report plumbing


def test_out_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(path), "field", "--r", "2")
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["results"]["q"] == 4
