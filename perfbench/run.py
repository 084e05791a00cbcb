"""qpsurf benchmark: time to verdict on the absorb, flip and jacobian workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload absorb --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: one process, one thread,
each case started only after the previous verdict.  Every case goes through
``qpsurf.cli.run_command`` in-process, which is the ``qpsurf`` command
without interpreter start-up.  A pass runs the workload's cases once; the
run repeats passes while another one fits in ``--seconds`` and reports
medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
passes with passes that patch the layer boundaries (see ``tracer.py``) and
prints the per-layer metrics of the traced passes, plus the tracing overhead.
``--workload all`` runs every workload both ways, each in a fresh process.

Every case's verdict and witness entries are checked against known answers
outside its timed region.  An exception, an argparse exit or an ERROR
outcome counts as a failed case and the run moves on.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the per-case details (witness digests,
operation counts, spans) go to ``perfbench/_out/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "jacobian_dims.json"
OUT = HERE / "_out"

SETUP_REPS = 15

END_TO_END = [
    ("wall_s", "s"),
    ("max_case_s", "s"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

BOUNDARIES = [name for *_, name in tracer.SPANS + tracer.LEAVES] + ["cli.report_write"]
PER_LAYER = (
    [(b + suffix, unit) for b in BOUNDARIES for suffix, unit in ((".calls", "count"), (".s", "s"), (".self_s", "s"))]
    + [(c, "count") for c in tracer.COUNTS]
    + [("jacobian.pivot_yield", "ratio"), ("trace_overhead_s", "s")]
)


def setup(workload, seed, golden):
    """Import qpsurf, build quivers and draw the inputs; repeated, timed, median kept."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "qpsurf" or m.startswith("qpsurf.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        cli = importlib.import_module("qpsurf.cli")
        cases = workloads.make_cases(workload, cli, seed, golden)
        times.append(time.perf_counter() - t0)
    return sys.modules["qpsurf"], cases, times


def _plain(name, fn):
    return fn()


def run_case(cli, case, timed):
    """Run one case to its verdict: (seconds, report, recheck, error, report bytes)."""
    report = recheck = error = None
    nbytes = 0
    t0 = time.perf_counter()
    try:
        report = cli.run_command(case.argv)
        if case.recheck:
            path = OUT / "report.json"

            def write():
                with open(path, "w") as fh:
                    json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                    return fh.tell()

            nbytes = timed("cli.report_write", write)
            recheck = cli.run_recheck(str(path))
    except (Exception, SystemExit) as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0, report, recheck, error, nbytes


def run_pass(cli, cases, trace=None):
    """One pass over the cases; checks and digests happen between the timed cases."""
    timed = trace.timed if trace is not None else _plain
    gc.collect()
    t_pass = time.perf_counter()
    before_pass = trace.totals() if trace is not None else {}
    results = []
    for case in cases:
        before = trace.snapshot() if trace is not None else None
        seconds, report, recheck, error, nbytes = run_case(cli, case, timed)
        entry = {"label": case.label, "argv": case.argv, "seconds": seconds}
        if error is None and report.outcome != "ERROR":
            entry["outcome"] = report.outcome
            entry["ok"] = workloads.check(case, report, recheck)
            entry["digest"] = hashlib.sha256(
                json.dumps(report.witnesses, sort_keys=True).encode()
            ).hexdigest()
        else:
            entry["outcome"] = "ERROR"
            entry["ok"] = False
            entry["error"] = error or "; ".join(report.details)
        if trace is not None:
            trace.count("cli.report_bytes", nbytes)
            after = trace.snapshot()
            entry["counts"] = {k: v for k, v in _delta(before, after).items() if v}
        results.append(entry)
    return {
        "wall_s": sum(e["seconds"] for e in results),
        "largest_s": [e["seconds"] for e, c in zip(results, cases) if c.largest],
        "elapsed_s": time.perf_counter() - t_pass,
        "layers": _delta(before_pass, trace.totals()) if trace is not None else {},
        "cases": results,
    }


def _delta(before, after):
    return {k: v - before.get(k, 0) for k, v in after.items()}


def measure(package, cases, seconds, traced):
    """Run passes until another would overrun ``seconds``.

    Traced runs alternate plain and traced passes, starting plain, so the
    tracing overhead compares passes made under the same conditions; they
    make at least one of each.
    """
    cli = package.cli
    start = time.perf_counter()
    plain, traced_passes = [], []
    trace = tracer.Tracer() if traced else None
    while True:
        tracing = traced and len(traced_passes) < len(plain)
        if tracing:
            trace.install(package)
            traced_passes.append(run_pass(cli, cases, trace))
            trace.uninstall()
        else:
            plain.append(run_pass(cli, cases))
        longest = max(p["elapsed_s"] for p in plain + traced_passes)
        done = traced_passes or not traced
        if done and time.perf_counter() - start + longest > seconds:
            return plain, traced_passes, trace


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def verdicts_consistent(plain, traced):
    """Every pass reached the same outcomes and witness digests; traced ones the same counts."""
    verdicts = {
        json.dumps([(e["label"], e["outcome"], e.get("digest")) for e in p["cases"]])
        for p in plain + traced
    }
    counts = {json.dumps([e["counts"] for e in p["cases"]], sort_keys=True) for p in traced}
    return len(verdicts) == 1 and len(counts) <= 1


def per_layer_metrics(plain, traced):
    derived = ("jacobian.pivot_yield", "trace_overhead_s")
    layers = {
        name: statistics.median(p["layers"].get(name, 0) for p in traced)
        for name, _ in PER_LAYER
        if name not in derived
    }
    rows = layers["jacobian.rows"]
    layers["jacobian.pivot_yield"] = layers["jacobian.pivots"] / rows if rows else 0.0
    layers["trace_overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}


def run_workload(workload, seed, seconds, traced, golden):
    OUT.mkdir(exist_ok=True)
    package, cases, setup_times = setup(workload, seed, golden)
    plain, traced_passes, trace = measure(package, cases, seconds, traced)
    passes = plain + traced_passes
    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(not e["ok"] for p in passes for e in p["cases"])
    correct = failed == 0 and verdicts_consistent(plain, traced_passes)

    if traced:
        metrics = per_layer_metrics(plain, traced_passes)
    else:
        values = {
            "wall_s": _median(plain, "wall_s"),
            "max_case_s": statistics.median(t for p in plain for t in p["largest_s"]),
            "pass_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "setup_s": setup_times,
        "plain_passes": plain,
        "traced_passes": traced_passes,
        "spans": trace.spans if trace is not None else [],
    }
    with open(OUT / ("%s-seed%d-trace%d.json" % (workload, seed, int(traced))), "w") as fh:
        json.dump(detail, fh)

    print("workload=%s seed=%d trace=%d passes=%d cases/pass=%d"
          % (workload, seed, int(traced), len(passes), len(cases)))
    print("fail_ratio = %d/%d = %.4f" % (failed, attempted, failed / attempted))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    for p in passes:
        for e in p["cases"]:
            if not e["ok"]:
                print("FAILED %s: %s (%s)" % (e["label"], e["outcome"], e.get("error", "wrong answer")))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed, seconds):
    """Every workload untraced and traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit("%s --trace %d failed with exit code %d" % (workload, traced, proc.returncode))
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"]["%s.%s" % (workload, name)] = m
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qpsurf" / "__init__.py").is_file() or not GOLDEN.is_file():
        print("qpsurf sources not found under %s: run from a source checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
