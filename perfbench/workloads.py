"""The benchmark's workloads: seeded qpsurf command lines with known answers.

Every case is one ``qpsurf`` command line.  The program sees only that
argv; the benchmark draws x, the power coefficients and the absorption
coefficients from ``POOL`` with a generator seeded by the workload seed.
Each case pins the verdict it must reach and the witness entries it must
report, which ``check`` tests after the case's timed region.
"""

import random
from dataclasses import dataclass, field

# Negative values are written as --x=-1/3: "--x -1/3" makes argparse exit.
POOL = ("1", "2", "-1/3", "3/2", "-1", "1/2")

FLIP_N = range(1, 7)
JACOBIAN_TORUS_N = range(1, 6)


@dataclass
class Case:
    label: str
    argv: list
    outcome: str  # the verdict the case must reach
    witness: dict = field(default_factory=dict)  # witness entries it must report
    recheck: bool = False  # write the report, then run --recheck on it
    largest: bool = False  # one of the workload's largest cases, timed for max_case_s


def _x_pair(rng):
    return "--x=%s,%s" % (rng.choice(POOL), rng.choice(POOL))


def absorb_cases(cli, rng, golden):
    """Criterion 4 at D = 48: hub², rim² and rim² + c·hub³ on genus2p:1."""
    tq = cli.build_quiver(cli.load_triangulation("genus2p:1"))
    rim, hub = (p.pid for p in sorted(tq.punctures, key=lambda p: -p.valency))
    patterns = [
        ("hub^2", "%s:2=%s" % (hub, rng.choice(POOL)), False),
        ("rim^2", "%s:2=%s" % (rim, rng.choice(POOL)), False),
        (
            "rim^2+c*hub^3",
            "%s:2=%s,%s:3=%s" % (rim, rng.choice(POOL), hub, rng.choice(POOL)),
            True,
        ),
    ]
    return [
        Case(
            label,
            ["absorb", "--triangulation=genus2p:1", _x_pair(rng), "--powers=" + powers, "--degree=48"],
            "PASS",
            {"exact": True},
            largest=largest,
        )
        for label, powers, largest in patterns
    ]


def flip_cases(cli, rng, golden):
    """verify-flip on the torus, arcs 1-3 and n = 1..6, each rechecked from its report.

    Each n adds one --perturb negative control, whose known verdict is FAIL.
    The four cases at the largest n are equally large.
    """
    arcs = list(cli.load_triangulation("torus").arcs)
    cases = []
    for n in FLIP_N:
        for arc in arcs:
            cases.append(
                Case(
                    "n=%d arc=%d" % (n, arc),
                    ["verify-flip", "--triangulation=torus", "--arc=%d" % arc,
                     "--x=" + rng.choice(POOL), "--n=%d" % n],
                    "PASS",
                    {"degree": 12 * n + 6, "n": n},
                    recheck=True,
                    largest=(n == FLIP_N[-1]),
                )
            )
        arc = rng.choice(arcs)
        cases.append(
            Case(
                "n=%d arc=%d perturbed" % (n, arc),
                ["verify-flip", "--triangulation=torus", "--arc=%d" % arc,
                 "--x=" + rng.choice(POOL), "--n=%d" % n, "--perturb=" + rng.choice(POOL)],
                "FAIL",
                {"degree": 12 * n + 6, "n": n},
                recheck=True,
                largest=(n == FLIP_N[-1]),
            )
        )
    return cases


def jacobian_cases(cli, rng, golden):
    """Certified Jacobian dimensions: torus n = 1..5 at D = 6n+6, genus2p:1 at D = 13.

    genus2p:2 at D = 17 (dimension 320, L = 15) is left out: its 16 s
    alone would leave one pass per run, too few for a steady median.
    """
    cases = []
    for n in JACOBIAN_TORUS_N:
        want = {"dimension": 36 * n, "certificate_length": 6 * n - 1, "certified": True}
        want.update(golden.get("n=%d" % n, {}))
        cases.append(
            Case(
                "torus n=%d" % n,
                ["jacobian-dim", "--triangulation=torus", "--x=" + rng.choice(POOL),
                 "--n=%d" % n, "--degree=%d" % (6 * n + 6), "--certify"],
                "PASS",
                want,
            )
        )
    cases.append(
        Case(
            "genus2p:1 D=13",
            ["jacobian-dim", "--triangulation=genus2p:1", _x_pair(rng), "--degree=13", "--certify"],
            "PASS",
            {"dimension": 80, "certificate_length": 7, "certified": True},
            largest=True,
        )
    )
    return cases


WORKLOADS = {
    "absorb": absorb_cases,
    "flip": flip_cases,
    "jacobian": jacobian_cases,
}


def make_cases(workload, cli, seed, golden):
    rng = random.Random("%s/%d" % (workload, seed))
    return WORKLOADS[workload](cli, rng, golden)


def check(case, report, recheck):
    """Whether a case reached its known answer; ``recheck`` is None unless rechecked."""
    if report.outcome != case.outcome:
        return False
    if any(report.witnesses.get(k) != v for k, v in case.witness.items()):
        return False
    if case.recheck:
        return (
            recheck is not None
            and recheck.outcome == "PASS"
            and recheck.witnesses.get("fresh_outcome") == case.outcome
        )
    return True
