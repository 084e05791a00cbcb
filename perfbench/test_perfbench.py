"""Checks of the benchmark itself: determinism, tracing coverage and refusal.

Run from the repository root (about three minutes):

    python3 -m pytest perfbench -q

Each workload runs in fresh processes with ``--seconds 1``: once untraced
(one pass) and twice traced (one plain and one traced pass each).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
SEED = 3

# The boundaries each workload must reach, from the layer table in README.md.
REACHED = {
    "absorb": [
        "endo.apply", "endo.compose", "endo.compose_all", "endo.limit_compose",
        "path_algebra.potential_init", "path_algebra.canonicalize_rotation",
        "normalize.absorb_g_powers", "normalize.absorb_cycle", "normalize.zeta_step",
        "normalize.g_normal_form", "normalize.lengthen", "normalize.split",
        "surface.classify_cycle", "surface.check_conditions", "surface.build_quiver",
        "cli.run_command",
    ],
    "flip": [
        "endo.apply", "endo.compose", "path_algebra.potential_init",
        "path_algebra.canonicalize_rotation", "path_algebra.mul",
        "qp_mutation.premutate", "qp_mutation.reduce", "qp_mutation.verify_flip_compatibility",
        "surface.build_quiver", "cli.run_command", "cli.run_recheck", "cli.report_write",
    ],
    "jacobian": [
        "jacobian.quotient_dimension", "jacobian.pid", "jacobian.unrank", "jacobian.killed_pid",
        "jacobian.reduce_against", "path_algebra.cyclic_derivative",
        "path_algebra.potential_init", "surface.build_quiver", "cli.run_command",
    ],
}
COUNTED = {
    "absorb": ["endo.apply.terms_in", "endo.apply.terms_out", "endo.apply.rule_terms",
               "endo.limit_compose.factors", "normalize.reverify.calls"],
    "flip": ["endo.apply.terms_in", "cli.report_bytes"],
    "jacobian": ["jacobian.rows", "jacobian.pivots", "jacobian.kill_rules"],
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(OUT / ("%s-seed%d-trace%d.json" % (workload, SEED, trace))) as fh:
        return result, json.load(fh)


def verdicts(passes):
    return [[(c["label"], c["outcome"], c["digest"]) for c in p["cases"]] for p in passes]


def counts(passes):
    return [[(c["label"], c["counts"]) for c in p["cases"]] for p in passes]


@pytest.fixture(scope="module", params=sorted(REACHED))
def runs(request):
    workload = request.param
    return workload, run(workload, 0), run(workload, 1), run(workload, 1)


def test_runs_are_correct(runs):
    _, *results = runs
    for result, _ in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_runs_repeat_counts_and_digests(runs):
    _, _, (_, first), (_, second) = runs
    assert counts(first["traced_passes"]) == counts(second["traced_passes"])
    assert verdicts(first["traced_passes"]) == verdicts(second["traced_passes"])


def test_traced_and_untraced_runs_agree(runs):
    _, (_, plain), (_, traced), _ = runs
    want = verdicts(plain["plain_passes"])[0]
    assert verdicts(traced["plain_passes"]) == [want]
    assert verdicts(traced["traced_passes"]) == [want]


def test_every_listed_boundary_is_reached(runs):
    workload, _, (result, _), _ = runs
    metrics = result["metrics"]
    missed = [b for b in REACHED[workload] if metrics[b + ".calls"]["value"] <= 0]
    missed += [c for c in COUNTED[workload] if metrics[c]["value"] <= 0]
    assert not missed


def test_metric_names_match_benchmark_json(runs):
    _, (plain, _), (traced, _), _ = runs
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for group, result in (("end_to_end", plain), ("per_layer", traced)):
        for m in spec[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
