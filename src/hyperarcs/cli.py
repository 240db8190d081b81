"""Command-line front end: structured runs over the library.

Every subcommand emits one JSON report (stdout, or --out) echoing enough of
the invocation to re-run it byte-identically; --format csv emits the table
of a tabular report instead.  Exit codes: 0 when all verifications pass, 1
when a verification fails (the report carries a witness), 2 for usage and
configuration errors.  Each subcommand's parser names its handler, a
function of (args, report) that fills the report and returns the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time

from hyperarcs import projplane as pp
from hyperarcs.arcs import (
    ArcError,
    CollinearError,
    arc_from_json,
    build_complete_translation_arc,
    conic_translation_arc,
    frobenius_translation_arc,
    hyperfocused_lines,
    split_conic_arc,
)
from hyperarcs.blocking import BlockingError, ghf_eight, min_blocking_sets
from hyperarcs.classify import classify_ghf
from hyperarcs.gf2 import FieldError, FieldSpec, field_make, parse_hex
from hyperarcs.onefact import (
    FactorizationError,
    closure_survey,
    embed_search,
    enumerate_factorizations,
    format_catalog,
    parse_catalog,
)


class UsageError(Exception):
    pass


class RunReport:
    """What a subcommand did; every value is JSON-ready."""

    __slots__ = ("command", "field", "inputs", "verdicts", "witnesses", "results",
                 "duration_s")

    def __init__(self, command: list[str]):
        self.command = command
        self.field = None
        self.inputs = {}
        self.verdicts = {}
        self.witnesses = {}
        self.results = {}
        self.duration_s = 0.0

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _parse_field_value(text: str) -> int:
    """A field value: ASCII decimal digits, or base 16 after 0x or 0X as
    gf2.parse_hex reads it."""
    if re.fullmatch("[0-9]+", text):
        return int(text)
    if text[:2] in ("0x", "0X"):
        try:
            return parse_hex(text)
        except ValueError:
            pass
    raise UsageError(f"{text!r} is not a field value")


def _integer(text: str) -> int:
    """An integer flag: ASCII decimal digits after an optional minus sign."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _poly(text: str) -> int:
    try:
        return parse_hex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _budget(text: str) -> int:
    """A search budget or result limit: an integer, 0 or more."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    return value


def _field_from_args(args) -> FieldSpec:
    if args.q is None:
        return field_make(args.r, args.poly)
    if args.q < 1 or args.q & (args.q - 1):
        raise UsageError(f"q = {args.q} is not a power of two")
    return field_make(args.q.bit_length() - 1, args.poly)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _save_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers: each fills the report and returns the exit code


def _cmd_field(args, report: RunReport) -> int:
    spec = _field_from_args(args)
    report.field = spec.to_json()
    report.results["q"] = spec.q
    report.verdicts["irreducible"] = True  # construction re-checked it
    return 0


# the flags each arc build example reads, besides the field flags and --save
_EXAMPLE_FLAGS = {"n1": ("h_basis",), "n2": ("h_basis", "i"), "n3": ("eta", "b")}


def _cmd_arc_build(args, report: RunReport) -> int:
    for name in ("h_basis", "i", "eta", "b"):
        if getattr(args, name) is not None and name not in _EXAMPLE_FLAGS[args.example]:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"example {args.example} does not read {flag}")
    spec = _field_from_args(args)
    report.field = spec.to_json()
    basis = [1 << k for k in range(spec.r)]
    if args.h_basis:
        basis = [_parse_field_value(tok) for tok in args.h_basis.split(",")]
    report.inputs["example"] = args.example
    if args.example == "n1":
        arc = conic_translation_arc(spec, basis)
        report.inputs["h_basis"] = basis
    elif args.example == "n2":
        if args.i is None:
            raise UsageError("--i is required for example n2")
        arc = frobenius_translation_arc(spec, basis, args.i)
        report.inputs.update({"h_basis": basis, "i": args.i})
    elif args.example == "n3":
        eta = _parse_field_value(args.eta) if args.eta is not None else None
        b = _parse_field_value(args.b) if args.b is not None else None
        arc, eta, b = split_conic_arc(spec, eta, b)
        report.verdicts["pair_found"] = True
        report.inputs.update({"eta": eta, "b": b})
    report.results["arc"] = arc.to_json()
    report.results["size"] = len(arc)
    report.verdicts["is_arc"] = True
    if args.save:
        _save_json(args.save, arc.to_json())
    return 0


def _cmd_arc_complete(args, report: RunReport) -> int:
    rep = build_complete_translation_arc(args.r, args.s)
    report.field = rep.spec.to_json()
    report.inputs.update({"r": args.r, "s": args.s})
    report.results["certificate"] = rep.to_json()
    report.results["arc"] = rep.arc.to_json()
    report.verdicts["uncovered_empty"] = rep.uncovered_empty
    report.verdicts["hyperoval"] = rep.hyperoval_verdict
    report.verdicts["subplane"] = rep.subplane_verdict
    ok = (
        rep.uncovered_empty
        and rep.hyperoval_verdict == "NOT_CONTAINED"
        and rep.subplane_verdict == "NOT_CONTAINED"
    )
    if args.save:
        _save_json(args.save, rep.arc.to_json())
    return 0 if ok else 1


def _cmd_arc_verify(args, report: RunReport) -> int:
    try:
        arc = arc_from_json(_load_json(args.infile))
    except CollinearError as exc:
        report.field = exc.spec.to_json()
        report.verdicts["is_arc"] = False
        report.witnesses["collinear_triple"] = [
            pp.point_to_json(p) for p in exc.witness
        ]
        return 1
    except (ArcError, pp.GeometryError, FieldError) as exc:
        raise UsageError(f"malformed arc file {args.infile}: {exc}") from exc
    report.field = arc.spec.to_json()
    report.results["size"] = len(arc)
    report.verdicts["is_arc"] = True
    if args.hyperfocused:
        lines = hyperfocused_lines(arc)
        report.results["hyperfocused_lines"] = [pp.line_to_json(l) for l in lines]
        report.verdicts["hyperfocused"] = bool(lines)
    return 0


def _cmd_blocking_find(args, report: RunReport) -> int:
    try:
        arc = arc_from_json(_load_json(args.infile))
    except (ArcError, pp.GeometryError, FieldError) as exc:
        raise UsageError(f"malformed arc file {args.infile}: {exc}") from exc
    report.field = arc.spec.to_json()
    report.inputs["size"] = len(arc)
    sets = min_blocking_sets(arc)
    report.results["count"] = len(sets)
    shown = sets if args.all else sets[:1]
    report.results["blocking_sets"] = [b.to_json() for b in shown]
    report.verdicts["minimum_blocking_exists"] = bool(sets)
    return 0


def _cmd_ghf_build(args, report: RunReport) -> int:
    spec = _field_from_args(args)
    report.field = spec.to_json()
    given = [x is not None for x in (args.lam, args.a1, args.a2)]
    if any(given) and not all(given):
        raise UsageError("give all of --lambda, --a1 and --a2, or none")
    lam = _parse_field_value(args.lam) if args.lam is not None else None
    a1 = _parse_field_value(args.a1) if args.a1 is not None else None
    a2 = _parse_field_value(args.a2) if args.a2 is not None else None
    try:
        arc, bset, params = ghf_eight(spec, lam, a1, a2)
    except BlockingError as exc:
        report.verdicts["constructed"] = False
        report.witnesses["reason"] = str(exc)
        return 1
    report.verdicts["constructed"] = True
    report.verdicts["non_linear"] = not bset.linear
    report.inputs["params"] = {"lam": params[0], "a1": params[1], "a2": params[2]}
    report.results["arc"] = arc.to_json()
    report.results["blocking_set"] = bset.to_json()
    return 0


def _cmd_onefact_enumerate(args, report: RunReport) -> int:
    facts = enumerate_factorizations(args.n)
    report.inputs["n"] = args.n
    report.results["classes"] = len(facts)
    if args.catalog_out:
        _write_text(args.catalog_out, format_catalog(facts))
        report.results["catalog"] = args.catalog_out
    report.verdicts["enumerated"] = True
    return 0


def _cmd_onefact_closure(args, report: RunReport) -> int:
    facts = _catalog_from_args(args, report)
    rows = closure_survey(facts)
    report.results["closure"] = rows
    report.results["all_contain"] = all(r["contains_all"] for r in rows)
    report.results["max_depth"] = max((r["depth"] for r in rows), default=0)
    report.verdicts["verified"] = True
    return 0


def _cmd_onefact_embed(args, report: RunReport) -> int:
    facts = _catalog_from_args(args, report)
    spec = _field_from_args(args)
    report.field = spec.to_json()
    rows = []
    for idx, fact in enumerate(facts):
        embs, exhausted = embed_search(
            fact, spec, limit=args.limit, max_nodes=args.budget
        )
        for e in embs:
            e.validate()
        nonlinear = sum(1 for e in embs if not e.focus_collinear())
        rows.append(
            {
                "index": idx,
                "embeddings": len(embs),
                "nonlinear": nonlinear,
                "exhausted": exhausted,
            }
        )
    report.results["embed"] = rows
    report.verdicts["all_validated"] = True
    return 0


def _catalog_from_args(args, report: RunReport):
    try:
        with open(args.catalog, newline="") as fh:
            facts = parse_catalog(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read catalog {args.catalog}: {exc}") from exc
    except FactorizationError as exc:
        raise UsageError(f"bad catalog {args.catalog}: {exc}") from exc
    if not facts:
        raise UsageError(f"catalog {args.catalog} holds no factorization")
    report.inputs["catalog"] = args.catalog
    report.inputs["classes"] = len(facts)
    return facts


def _cmd_classify(args, report: RunReport) -> int:
    spec = _field_from_args(args)
    report.field = spec.to_json()
    report.inputs["max_k"] = args.max_k
    # read back from the report's JSON, which ran matches_example once
    found = classify_ghf(spec, max_k=args.max_k, embed_budget=args.budget).to_json()
    report.results["classification"] = found
    report.verdicts["exhaustive"] = found["exhaustive"]
    report.results["nonlinear_ks"] = list(found["nonlinear"]["ks"])
    report.results["nonlinear_classes"] = found["nonlinear"]["projective_classes"]
    if found["example_exists"]:
        report.verdicts["matches_known_eight_arc"] = found["matches_example"]
    return 0


# ---------------------------------------------------------------------------
# Dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperarcs",
        description="hyperfocused and generalized hyperfocused arcs in PG(2, 2^r)",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    # required subcommands make argparse itself reject a command group given
    # alone; dest only names the missing argument in that message
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name, handler, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(
            dest="subcommand", required=True
        )

    def add_field_args(p):
        field = p.add_mutually_exclusive_group(required=True)
        field.add_argument("--r", type=_integer)
        field.add_argument("--q", type=_integer)
        p.add_argument("--poly", type=_poly)

    p_field = leaf(sub, "field", _cmd_field, help="validate and describe a field")
    add_field_args(p_field)

    arc_sub = group("arc", "build, complete, verify arcs")
    p_build = leaf(arc_sub, "build", _cmd_arc_build)
    add_field_args(p_build)
    p_build.add_argument("--example", required=True, choices=("n1", "n2", "n3"))
    p_build.add_argument("--h-basis", dest="h_basis")
    p_build.add_argument("--i", type=_integer)
    p_build.add_argument("--eta")
    p_build.add_argument("--b")
    p_build.add_argument("--save", help="write the arc JSON here")
    p_complete = leaf(arc_sub, "complete", _cmd_arc_complete)
    p_complete.add_argument("--r", type=_integer, required=True)
    p_complete.add_argument("--s", type=_integer, required=True)
    p_complete.add_argument("--save", help="write the arc JSON here")
    p_verify = leaf(arc_sub, "verify", _cmd_arc_verify)
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--hyperfocused", action="store_true")

    blocking_sub = group("blocking", "blocking sets of secants")
    p_find = leaf(blocking_sub, "find", _cmd_blocking_find)
    p_find.add_argument("--in", dest="infile", required=True)
    p_find.add_argument("--all", action="store_true")

    ghf_sub = group("ghf", "generalized hyperfocused constructions")
    p_ghf_build = leaf(ghf_sub, "build", _cmd_ghf_build)
    add_field_args(p_ghf_build)
    p_ghf_build.add_argument("--lambda", dest="lam")
    p_ghf_build.add_argument("--a1")
    p_ghf_build.add_argument("--a2")

    onefact_sub = group("onefact", "1-factorizations of K_2n")
    p_enum = leaf(onefact_sub, "enumerate", _cmd_onefact_enumerate)
    p_enum.add_argument("--n", type=_integer, required=True)
    p_enum.add_argument("--out", dest="catalog_out", help="write the catalog here")
    p_closure = leaf(onefact_sub, "closure", _cmd_onefact_closure)
    p_closure.add_argument("--catalog", required=True)
    p_embed = leaf(onefact_sub, "embed", _cmd_onefact_embed)
    p_embed.add_argument("--catalog", required=True)
    add_field_args(p_embed)
    p_embed.add_argument("--limit", type=_budget)
    p_embed.add_argument("--budget", type=_budget)

    p_classify = leaf(sub, "classify", _cmd_classify, help="small GHF classification")
    add_field_args(p_classify)
    p_classify.add_argument("--max-k", type=_integer, default=10)
    p_classify.add_argument("--budget", type=_budget)

    return parser


def _emit(report: RunReport, args) -> None:
    if args.format == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _to_csv(report: RunReport) -> str:
    rows = None
    for key in ("closure", "embed"):
        if key in report.results:
            rows = report.results[key]
            break
    if rows is None and "classification" in report.results:
        rows = report.results["classification"]["classes"]
    if rows is None:
        raise UsageError("csv format is only available for tabular reports")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def dispatch(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    report = RunReport(command=["hyperarcs", *argv])
    start = time.monotonic()
    try:
        code = args.handler(args, report)
        report.duration_s = round(time.monotonic() - start, 6)
        _emit(report, args)
    except (UsageError, FieldError, ArcError, BlockingError, FactorizationError,
            pp.GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
