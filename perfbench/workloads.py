"""The benchmark workloads: inputs made from a seed, the checked work, and
the checks on its outputs.

Each workload is three functions.  ``prepare(rng)`` builds every input
before timing starts (field construction, catalog parsing, relabeling).
``run(inputs)`` is the timed work; it calls the library only through module
attributes (``onefact.enumerate_factorizations``, not a name imported from
it), so the traced run sees every call.  ``verify(inputs, result)`` checks
the outputs, raising ``CheckFailed``, and returns the workload's own counts.

A unit of work takes about 0.1 s (enumerate-k8) to 2 s on a 2-core Xeon VM.
Units are kept short because the reference timing in child.py tracks the
machine's speed only over a second or two, and a run of 35 s must hold many
of them.  So the full K10 enumeration (about 60 s cold) and the full q = 16
classification (about 100 s cold) are out: the enumeration stops at K8, the
classification runs under a fixed embedding-search budget, and the arcs
sweep checks seeded samples of its largest parts.
"""

from __future__ import annotations

import contextlib
import io
import random

from hyperarcs import arcs, blocking, classify, cli, onefact, projplane
from hyperarcs.gf2 import field_make

import golden


class CheckFailed(Exception):
    """An output of the library differs from the expected one."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def relabel(fact, rng: random.Random):
    """The same factorization under a random vertex permutation."""
    n2 = fact.n_vertices
    perm = list(range(1, n2 + 1))
    rng.shuffle(perm)
    return onefact.OneFactorization(
        n2,
        tuple(tuple((perm[u - 1], perm[v - 1]) for u, v in f) for f in fact.factors),
    )


# ---------------------------------------------------------------------------
# enumerate-k8: orderly generation of the K6 and K8 catalogs.  No field
# arithmetic, plane geometry or arc canonical forms run here.  The inputs are
# fixed by n, so the seed does not change them.


def prepare_enumerate(rng):
    return {n: golden.read_catalog(n) for n in (3, 4)}


def run_enumerate(expected):
    return {n: onefact.enumerate_factorizations(n) for n in expected}


def check_enumerate(expected, result):
    for n, text in expected.items():
        facts = result[n]
        check(len(facts) == golden.CLASS_COUNTS[n], f"K{2 * n}: {len(facts)} classes")
        check(
            onefact.format_catalog(facts) == text,
            f"K{2 * n} catalog differs from the stored one",
        )
    return {}


# ---------------------------------------------------------------------------
# classify-q16: classify_ghf over GF(16) on relabeled catalogs.  The K8 class
# whose closure stalls is searched under EMBED_BUDGET nodes, and each distinct
# non-linear arc found costs one arc canonical form, which dominates the run.
# K10_SAMPLE seeded K10 classes exercise the closure on K10.

EMBED_BUDGET = 60
K10_SAMPLE = 8


def prepare_classify(rng):
    catalogs = {n: onefact.parse_catalog(golden.read_catalog(n)) for n in (3, 4, 5)}
    picked = sorted(rng.sample(range(len(catalogs[5])), K10_SAMPLE))
    catalogs[5] = [catalogs[5][i] for i in picked]
    return {
        "spec": field_make(4),
        "catalogs": {n: [relabel(f, rng) for f in facts] for n, facts in catalogs.items()},
    }


def run_classify(inputs):
    return classify.classify_ghf(
        inputs["spec"], max_k=10, embed_budget=EMBED_BUDGET, catalogs=inputs["catalogs"]
    )


def check_classify(inputs, rep):
    check(rep.nonlinear_ks == (8,), f"non-linear sizes {rep.nonlinear_ks}")
    check(len(rep.nonlinear_forms) == 1, f"{len(rep.nonlinear_forms)} non-linear classes")
    check(rep.example_exists and rep.matches_example() is True, "class is not the example")
    check(not rep.exhaustive, "a budgeted search claims to be exhaustive")
    expected_rows = sum(len(facts) for facts in inputs["catalogs"].values())
    check(len(rep.rows) == expected_rows, f"{len(rep.rows)} rows")
    searched = [row for row in rep.rows if row.searched]
    check(len(searched) == 1 and searched[0].k == 8, "searched rows are not one K8 class")
    row = searched[0]
    check(not row.exhausted, "the K8 search ended inside its budget")
    check(
        0 < row.nonlinear_embeddings <= row.embeddings <= 1512,
        f"K8 row shows {row.embeddings}/{row.nonlinear_embeddings}",
    )
    check(len(set(row.nonlinear_arc_forms)) == 1, "K8 row holds several classes")
    for row in rep.rows:
        if row.k != 8:
            check(row.contains_all and not row.searched, f"K{row.k} class {row.index} not forced")
    return {}


# ---------------------------------------------------------------------------
# arcs-sweep: translation arcs over PG(2, 2^r) in five parts: a hyperfocus
# sweep over every arc group of dimension 2-4 at r = 2, 3 and of dimension 2
# at r = 4 (all enumerated and counted, a seeded sample checked), seeded
# random arcs through the table path (r = 5, 6) and the shift-and-xor path
# (r = 9, 10), exact cover on the small sweep arcs, and the (6, 3) completion
# certificate through the command line.

SWEEP = ((2, (2, 3, 4)), (3, (2, 3, 4)), (4, (2,)))
SWEEP_ARCS = {2: 30, 3: 1092, 4: 10200}
R4_CHECKED = 1000  # seeded sample of the r = 4 sweep checked for hyperfocus
EIGHT_ARCS = 504  # 8-arcs in the r = 3 sweep
EIGHT_ARCS_COVERED = 100  # seeded sample of them solved by exact cover
FOUR_ARCS = 618  # 4-arcs in the r <= 3 sweep, all solved by exact cover
SAMPLES = {5: {2: 20, 3: 20, 4: 20}, 6: {2: 20, 3: 20, 4: 20},
           9: {3: 3, 4: 3, 5: 2}, 10: {3: 3, 4: 3, 5: 2}}
MAX_ATTEMPTS = 4000


def prepare_arcs(rng):
    rs = sorted({r for r, _ in SWEEP} | set(SAMPLES))
    return {
        "specs": {r: field_make(r) for r in rs},
        "r4_checked": set(rng.sample(range(SWEEP_ARCS[4]), R4_CHECKED)),
        "eights_covered": sorted(rng.sample(range(EIGHT_ARCS), EIGHT_ARCS_COVERED)),
        "sample_seed": rng.getrandbits(64),
        "cli_report": golden.read_cli_report(),
    }


def _hyperfocus_checked(group):
    arc = arcs.translation_arc(group)
    check(len(arc) == group.order, "orbit size differs from the group order")
    check(
        arcs.is_hyperfocused_line(arc, projplane.LINE_AT_INFINITY),
        f"arc of order {group.order} not hyperfocused on the line at infinity",
    )
    check(len(arcs.secant_directions(group)) == group.order - 1, "direction count")
    return arc


def run_arcs(inputs):
    specs = inputs["specs"]
    out = {"swept": {}, "sampled": 0, "attempted": 0}

    fours, eights = [], []
    for r, dims in SWEEP:
        spec = specs[r]
        count = 0
        for basis in arcs.enumerate_arc_subgroups(spec, dims):
            count += 1
            if r == 4 and count - 1 not in inputs["r4_checked"]:
                continue
            group = arcs.subgroup_make(spec, basis)
            arc = _hyperfocus_checked(group)
            if r <= 3:
                (fours if len(arc) == 4 else eights).append((group, arc))
        out["swept"][r] = count

    covered = fours + [eights[i] for i in inputs["eights_covered"]]
    out["blocking"] = [(group, blocking.min_blocking_sets(arc)) for group, arc in covered]

    rng = random.Random(inputs["sample_seed"])
    for r, per_dim in SAMPLES.items():
        spec = specs[r]
        for dim, target in per_dim.items():
            accepted = attempts = 0
            while accepted < target:
                attempts += 1
                check(attempts <= MAX_ATTEMPTS, f"no {dim}-dim arc group found at r = {r}")
                basis = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(dim)]
                try:
                    group = arcs.subgroup_make(spec, basis)
                except arcs.ArcError:
                    continue
                if not arcs.is_translation_arc_group(group):
                    continue
                _hyperfocus_checked(group)
                accepted += 1
            out["sampled"] += accepted
            out["attempted"] += attempts

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out["cli_code"] = cli.dispatch(list(golden.CLI_ARGV))
    out["cli_report"] = buf.getvalue()
    return out


def check_arcs(inputs, out):
    check(out["swept"] == SWEEP_ARCS, f"sweep counts {out['swept']}")
    solutions = 0
    for group, sets in out["blocking"]:
        check(len(sets) == 1, f"{len(sets)} minimum blocking sets on a translation arc")
        check(sets[0].linear, "minimum blocking set of a translation arc is not linear")
        check(
            sets[0].points == arcs.secant_directions(group),
            "minimum blocking set differs from the secant directions",
        )
        solutions += len(sets)
    check(solutions == FOUR_ARCS + EIGHT_ARCS_COVERED, f"{solutions} exact-cover solutions")
    check(out["cli_code"] == 0, f"arc complete exited with {out['cli_code']}")
    check(
        golden.strip_duration(out["cli_report"]) == inputs["cli_report"],
        "arc complete report differs from the stored one",
    )
    return {"sample_attempted": out["attempted"], "sample_accepted": out["sampled"]}


WORKLOADS = {
    "enumerate-k8": (prepare_enumerate, run_enumerate, check_enumerate),
    "classify-q16": (prepare_classify, run_classify, check_classify),
    "arcs-sweep": (prepare_arcs, run_arcs, check_arcs),
}
