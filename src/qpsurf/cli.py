"""Command-line front end.

Every subcommand produces a ``RunReport``: an echo of the command, digests
of its inputs, a PASS/FAIL/ERROR outcome, human-readable detail lines, and
a witness payload.  Witnesses carry enough data (endomorphism rules,
potentials, renamings) that ``--recheck`` can re-run the verification from
scratch and compare, so a PASS is never just a stored boolean.

Exit status: 0 for PASS, 1 for FAIL, 2 for ERROR (bad input, violated
preconditions, unreadable files).  All arithmetic is exact; given the same
inputs and seed the report is bit-for-bit reproducible, which is what makes
the recheck comparison meaningful.
"""

import argparse
import functools
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .endo import REndomorphism
from .jacobian import g_path_independence_check, quotient_dimension
from .normalize import absorb_g_powers, g_normal_form
from .path_algebra import (
    Path,
    Potential,
    TruncatedElement,
    canonicalize_rotation,
    enumerate_cycle_classes,
)
from .qp_mutation import QP, is_two_acyclic, mutate, verify_flip_compatibility
from .surface import (
    Triangulation,
    build_quiver,
    classify_cycle,
    fg_witness_cycle,
    flip,
    once_punctured_torus,
    potential_S,
    potential_T,
    twice_punctured_genus,
)


@dataclass
class RunReport:
    """What a subcommand did, what it found, and how to check it again."""

    command: list
    inputs: dict
    outcome: str
    details: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return {"PASS": 0, "FAIL": 1, "ERROR": 2}[self.outcome]

    def to_json_dict(self):
        return {
            "command": list(self.command),
            "inputs": self.inputs,
            "outcome": self.outcome,
            "details": list(self.details),
            "witnesses": self.witnesses,
            "timings": self.timings,
        }

    @classmethod
    def from_json_dict(cls, data):
        if not (
            isinstance(data, dict)
            and isinstance(data.get("command"), list)
            and all(isinstance(tok, str) for tok in data["command"])
            and data.get("outcome") in ("PASS", "FAIL", "ERROR")
            and isinstance(data.get("witnesses", {}), dict)
        ):
            raise ValueError(
                "not a run report: needs a command list, a PASS/FAIL/ERROR "
                "outcome and a witnesses object"
            )
        return cls(
            command=list(data["command"]),
            inputs=data.get("inputs", {}),
            outcome=data["outcome"],
            details=list(data.get("details", [])),
            witnesses=data.get("witnesses", {}),
            timings=data.get("timings", {}),
        )


# ----------------------------------------------------------------------
# Input helpers
# ----------------------------------------------------------------------

def _digest_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_object(path, build):
    """Read a JSON input file and build an object from it.

    A top level that is not an object, JSON of the wrong shape (a number
    where a list belongs, say: ``TypeError`` or ``AttributeError``) and JSON
    without a key ``build`` reads (``KeyError``) each become a ``ValueError``
    naming the file (and the missing key), so they end in ERROR.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError("%s: malformed input: expected a JSON object" % path)
    try:
        return build(data)
    except KeyError as exc:
        missing = ", ".join(map(repr, exc.args))
        raise ValueError("%s: malformed input: missing %s" % (path, missing)) from None
    except (TypeError, AttributeError) as exc:
        raise ValueError("%s: malformed input: %s" % (path, exc)) from None


def _is_builtin(spec):
    """Whether a triangulation spec names a built-in surface rather than a file."""
    return spec == "torus" or spec.startswith("genus2p:")


def load_triangulation(spec):
    """Parse a triangulation spec: "torus", "genus2p:G", or a JSON file."""
    if spec is None:
        raise ValueError("no triangulation given: pass --triangulation (or --qp FILE)")
    if not _is_builtin(spec):
        return _load_object(spec, Triangulation.from_json_dict)
    if spec == "torus":
        return once_punctured_torus()
    return twice_punctured_genus(int(spec.split(":", 1)[1]))


def _surface(spec):
    """(τ, Q(τ)) for a triangulation spec."""
    tau = load_triangulation(spec)
    return tau, build_quiver(tau)


def _fraction(token, option):
    """One exact rational from the command line; errors name the option."""
    token = token.strip()
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError("%s: zero denominator in %r" % (option, token)) from None
    except ValueError:
        raise ValueError("%s: not a rational number: %r" % (option, token)) from None


def parse_x(text):
    """One fraction, or a comma-separated tuple in puncture order."""
    if text is None:
        return Fraction(1)
    parts = [_fraction(tok, "--x") for tok in text.split(",")]
    return parts[0] if len(parts) == 1 else parts


def _parse_arc(text):
    try:
        return int(text)
    except ValueError:
        return text


def _rebase_potential(quiver, degree, path):
    """Load a potential JSON file at a caller-chosen truncation degree."""
    pot = _load_object(path, lambda data: Potential.from_json_dict(quiver, data))
    if pot.max_length() > degree:
        raise ValueError(
            "potential has a term of length %d, beyond degree %d"
            % (pot.max_length(), degree)
        )
    return Potential(quiver, degree, pot.terms)


def random_cycle_potential(tq, degree, rng):
    """A seeded random potential on short cycles, avoiding triangle lengths.

    Picks one to three distinct cycle classes of length 4 to 6, and at most
    ``degree``, with small nonzero rational coefficients.  Every term is
    longer than a triangle cycle, so the result shares no rotation class
    with the triangle part of a surface potential.
    """
    classes = [
        p for p in enumerate_cycle_classes(tq.quiver, min(6, degree)) if len(p) >= 4
    ]
    if not classes:
        raise ValueError("no cycles in the requested length window")
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
            Fraction(-1, 3), Fraction(3)]
    chosen = rng.sample(classes, rng.randint(1, min(3, len(classes))))
    terms = {p: rng.choice(pool) for p in chosen}
    return Potential(tq.quiver, degree, terms)


def _x_inputs(x):
    if isinstance(x, list):
        return [str(c) for c in x]
    return str(x)


# ----------------------------------------------------------------------
# Subcommand handlers.  Each returns (outcome, details, witnesses, timings).
# ----------------------------------------------------------------------

def _reject_ignored(args, mode, names):
    """Raise if options that ``mode`` of the subcommand does not read were given.

    An option counts as given unless it holds None, or False for a flag.
    """
    given = [
        "--" + nm.replace("_", "-") for nm in names
        if getattr(args, nm) is not None and getattr(args, nm) is not False
    ]
    if given:
        raise ValueError("%s %s ignores %s" % (args.subcommand, mode, ", ".join(given)))


def cmd_build(args):
    tau, tq = _surface(args.triangulation)
    rep = tq.conditions
    details = [
        "arcs: %d" % len(tau.arcs),
        "triangles: %d" % len(tau.triangles),
        "punctures: %s" % ", ".join(
            "%s (valency %d)" % (p.pid, p.valency) for p in tq.punctures
        ),
        "arrows: %d" % len(tq.quiver.arrows),
        "genus: %d" % tau.genus,
    ]
    details.extend(_conditions_lines(rep))
    witnesses = {
        "triangulation": tau.to_json_dict(),
        "valencies": {p.pid: p.valency for p in tq.punctures},
        "conditions_ok": rep.ok,
    }
    return "PASS", details, witnesses, {}


def _conditions_lines(rep):
    """Informational lines about the valency and double-arrow conditions.

    Neither condition is needed to build a quiver or to mutate; they gate
    the cycle trichotomy and the normalization machinery, so a violation is
    reported but is not a failure by itself.
    """
    if rep.ok:
        return ["conditions: every valency >= 4, no double arrows"]
    lines = []
    if rep.low_valency_punctures:
        lines.append(
            "conditions: punctures of valency < 4: %s"
            % ", ".join(rep.low_valency_punctures)
        )
    if rep.double_arrow_pairs:
        lines.append(
            "conditions: double arrows between %s"
            % ", ".join("%s->%s" % pair for pair in rep.double_arrow_pairs)
        )
    lines.append("conditions: cycle classification and normalization unavailable")
    return lines


def cmd_flip(args):
    tau, tq1 = _surface(args.triangulation)
    k = _parse_arc(args.arc)
    sigma = flip(tau, k)
    tq2 = build_quiver(sigma)
    details = [
        "flip arc %r" % (k,),
        "before: %s" % (list(tau.triangles),),
        "after:  %s" % (list(sigma.triangles),),
        "valencies before: %s" % {p.pid: p.valency for p in tq1.punctures},
        "valencies after:  %s" % {p.pid: p.valency for p in tq2.punctures},
    ]
    witnesses = {
        "before": tau.to_json_dict(),
        "after": sigma.to_json_dict(),
        "valencies_after": {p.pid: p.valency for p in tq2.punctures},
    }
    return "PASS", details, witnesses, {}


def cmd_quiver(args):
    tau, tq = _surface(args.triangulation)
    rep = tq.conditions
    q = tq.quiver
    details = ["vertices: %s" % (list(q.vertices),)]
    for a in q.arrows:
        details.append("  %s: %r -> %r" % (a.name, a.tail, a.head))
    details.append("f: %s" % ", ".join("%s->%s" % (n, tq.f[n]) for n in sorted(tq.f, key=q.rank)))
    for p in tq.punctures:
        details.append("g-orbit %s (valency %d): %s" % (p.pid, p.valency, " ".join(p.arrows)))
    details.extend(_conditions_lines(rep))
    witnesses = {
        "quiver": q.to_json_dict(),
        "f": dict(tq.f),
        "g": dict(tq.g),
        "conditions_ok": rep.ok,
    }
    return "PASS", details, witnesses, {}


def cmd_potential(args):
    tau, tq = _surface(args.triangulation)
    x = parse_x(args.x)
    pot = potential_S(tq, x, args.degree, n=args.n)
    details = ["degree: %d" % pot.degree, "terms: %d" % len(pot.terms)]
    for p in sorted(pot.terms, key=lambda p: (len(p), p.arrows)):
        details.append("  %s * %s" % (pot.terms[p], ".".join(p.arrows)))
    witnesses = {"potential": pot.to_json_dict(), "x": _x_inputs(x)}
    return "PASS", details, witnesses, {}


def cmd_mutate(args):
    qp = _load_object(args.qp, QP.from_json_dict)
    k = _parse_arc(args.vertex)
    t0 = time.perf_counter()
    red, witness = mutate(qp, k)
    timings = {"mutate": time.perf_counter() - t0}
    # reduce raises unless its witness rechecks, so the recheck row is PASS.
    details = [
        "vertex: %r" % (k,),
        "premutated arrows: %d" % len(witness.premutated.quiver.arrows),
        "reduced arrows: %d" % len(red.quiver.arrows),
        "removed pairs: %s" % ", ".join(
            "(%s, %s)" % pair for pair in witness.reduction.pairs
        ),
        "reduced potential terms: %d" % len(red.potential.terms),
        "two-acyclic after mutation: %s" % is_two_acyclic(red.quiver),
        "PASS witness recheck",
    ]
    witnesses = {
        "vertex": k,
        "input": qp.to_json_dict(),
        "mutated": red.to_json_dict(),
        "premutated": witness.premutated.to_json_dict(),
        "reduction_factors": [f.to_json_dict() for f in witness.reduction.factors],
        "pairs": [list(p) for p in witness.reduction.pairs],
    }
    return "PASS", details, witnesses, timings


def cmd_verify_flip(args):
    tau = load_triangulation(args.triangulation)
    k = _parse_arc(args.arc)
    x = parse_x(args.x)
    n = args.n
    perturb = None if args.perturb is None else _fraction(args.perturb, "--perturb")
    t0 = time.perf_counter()
    report = verify_flip_compatibility(tau, k, x, n, args.degree, perturb=perturb)
    timings = {"verify": time.perf_counter() - t0}
    details = ["arc=%r x=%s n=%d D=%d" % (k, x, n, report.degree)]
    details.extend(report.summary_lines())
    if report.first_difference is not None:
        details.append("first difference: %s" % report.first_difference)
    witnesses = {
        "triangulation": tau.to_json_dict(),
        "arc": k,
        "x": str(x),
        "n": n,
        "degree": report.degree,
        "checks": [[name, ok, detail] for name, ok, detail in report.checks],
        "renaming": dict(report.renaming),
        "factors": [f.to_json_dict() for f in report.factors],
        "first_difference": report.first_difference,
    }
    return ("PASS" if report.ok else "FAIL"), details, witnesses, timings


def _chain_summary(factors):
    """The details text "N factors, min depth d" of a witness chain (inf when empty)."""
    depth = min((f.depth() for f in factors), default=float("inf"))
    return "%d factors, min depth %s" % (len(factors), depth)


def cmd_normalize(args):
    tau, tq = _surface(args.triangulation)
    q = tq.quiver
    degree = args.degree
    witnesses = {"triangulation": tau.to_json_dict(), "degree": degree}
    if args.x is not None:
        x = parse_x(args.x)
        z_pot = potential_S(tq, x, degree) - potential_T(tq, degree)
        witnesses["x"] = _x_inputs(x)
    else:
        z_pot = Potential.zero(q, degree)

    if args.potential is not None:
        _reject_ignored(args, "--potential", ("random", "seed"))
        us = [_rebase_potential(q, degree, args.potential)]
    else:
        seed = 0 if args.seed is None else args.seed
        count = 1 if args.random is None else args.random
        if count < 0:
            raise ValueError("normalize --random needs COUNT >= 0, got %d" % count)
        us = [random_cycle_potential(tq, degree, random.Random(seed + i)) for i in range(count)]
        witnesses.update(seed=seed, count=count)

    # g_normal_form raises unless it verified T+Z+U -> T+Z+W and W's shape.
    details = []
    runs = []
    t0 = time.perf_counter()
    for i, u_pot in enumerate(us):
        factors, w_pot = g_normal_form(tq, z_pot, u_pot)
        details.append(
            "PASS run %d: short(U)=%s -> short(W)=%s, %s"
            % (i, u_pot.short, w_pot.short, _chain_summary(factors))
        )
        runs.append(
            {
                "u": u_pot.to_json_dict(),
                "w": w_pot.to_json_dict(),
                "factors": [f.to_json_dict() for f in factors],
                "exact": True,
            }
        )
    timings = {"normalize": time.perf_counter() - t0}
    details.append("%d/%d runs normalized" % (len(us), len(us)))
    witnesses["runs"] = runs
    return "PASS", details, witnesses, timings


def _powers_potential(tq, degree, spec):
    """Parse "p0:2=1,p1:3=-2" into sum of coeff * (puncture cycle)^n; each pid:n once, nonzero."""
    terms = {}
    for chunk in spec.split(","):
        lhs, _, rhs = chunk.partition("=")
        pid, _, power = lhs.partition(":")
        try:
            word = tq.puncture_cycle(pid.strip()).arrows
        except KeyError:
            raise ValueError("--powers: unknown puncture %r" % pid.strip()) from None
        if not power.strip().isdecimal() or int(power) < 1:
            raise ValueError("--powers: not a positive integer power: %r" % power.strip())
        n = int(power)
        if n * len(word) > degree:
            raise ValueError(
                "--powers: term %r has length %d, beyond degree %d"
                % (chunk.strip(), n * len(word), degree)
            )
        p = Path(word * n)
        if p in terms:
            raise ValueError("--powers: %s:%d is given twice" % (pid.strip(), n))
        c = _fraction(rhs.strip() or "1", "--powers")
        if c == 0:
            raise ValueError("--powers: %s:%d has coefficient 0" % (pid.strip(), n))
        terms[p] = c
    return Potential(tq.quiver, degree, terms)


def cmd_absorb(args):
    tau, tq = _surface(args.triangulation)
    x = parse_x(args.x)
    degree = args.degree
    if args.potential is not None:
        _reject_ignored(args, "--potential", ("powers",))
        v_pot = _rebase_potential(tq.quiver, degree, args.potential)
    elif args.powers is not None:
        v_pot = _powers_potential(tq, degree, args.powers)
    else:
        raise ValueError("provide --potential or --powers")
    t0 = time.perf_counter()
    # absorb_g_powers raises unless its factors carry S+V to S exactly.
    factors = absorb_g_powers(tq, x, v_pot)
    timings = {"absorb": time.perf_counter() - t0}
    details = [
        "V terms: %d, short(V)=%s, D=%d" % (len(v_pot.terms), v_pot.short, degree),
        "witness: " + _chain_summary(factors),
        "PASS carries S+V to S exactly",
    ]
    witnesses = {
        "triangulation": tau.to_json_dict(),
        "x": _x_inputs(x),
        "degree": degree,
        "v": v_pot.to_json_dict(),
        "factors": [f.to_json_dict() for f in factors],
        "exact": True,
    }
    return "PASS", details, witnesses, timings


def _classify_one(tq, cycle):
    cls = classify_cycle(tq, cycle)
    if cls.kind == "F":
        rebuilt = tq.f_path(3 * cls.n, cls.base)
    elif cls.kind == "G":
        rebuilt = tq.g_path(cls.n * tq.m_of(cls.base), cls.base)
    else:
        rebuilt = fg_witness_cycle(tq, cls)
    ok = canonicalize_rotation(tq.quiver, rebuilt) == canonicalize_rotation(tq.quiver, cycle)
    return cls, ok


def cmd_classify(args):
    tau, tq = _surface(args.triangulation)
    details = []
    entries = []
    counts = {"F": 0, "G": 0, "FG": 0}
    bad = 0
    if args.cycle is not None:
        _reject_ignored(args, "--cycle", ("max_length",))
        cycles = [tq.quiver.path([s.strip() for s in args.cycle.split(",")])]
    else:
        max_length = 10 if args.max_length is None else args.max_length
        cycles = enumerate_cycle_classes(tq.quiver, max_length)
    t0 = time.perf_counter()
    for cyc in cycles:
        cls, ok = _classify_one(tq, cyc)
        counts[cls.kind] += 1
        bad += not ok
        if cls.kind in ("F", "G"):
            shape, extra = {"n": cls.n, "base": cls.base}, " n=%d base=%s" % (cls.n, cls.base)
        else:
            rest = cls.remainder.arrows
            shape = {"witness_arrow": cls.witness_arrow, "remainder": list(rest)}
            extra = " a=%s remainder=%s" % (cls.witness_arrow, ".".join(rest))
        entries.append(dict(shape, cycle=list(cyc.arrows), kind=cls.kind, witness_ok=ok))
        if args.cycle is not None or not ok:
            details.append(
                "%s %s: %s%s" % ("PASS" if ok else "FAIL", ".".join(cyc.arrows), cls.kind, extra)
            )
    timings = {"classify": time.perf_counter() - t0}
    details.append(
        "classified %d cycle classes: F=%d G=%d FG=%d, witness failures=%d"
        % (len(cycles), counts["F"], counts["G"], counts["FG"], bad)
    )
    witnesses = {
        "triangulation": tau.to_json_dict(),
        "counts": counts,
        "entries": entries,
    }
    return ("PASS" if bad == 0 else "FAIL"), details, witnesses, timings


def _quotient_entries(quot):
    """The witness entries that every Jacobian dimension report carries."""
    return {"degree": quot.degree, "dimension": quot.dimension,
            "per_degree": list(quot.per_degree), "certified": quot.certified}


def _jacobian_table(args):
    _reject_ignored(args, "--table", ("qp", "n", "certify"))
    if args.table < 1:
        raise ValueError("the dimension table needs N >= 1, got %d" % args.table)
    tau, tq = _surface(args.triangulation or "torus")
    x = parse_x(args.x)
    if len(tq.punctures) != 1:
        raise ValueError("the dimension table needs a once-punctured surface")
    m = tq.punctures[0].valency
    details = ["n   D    dim   certified   lower bound"]
    rows, timings, ok = [], {}, True
    for n in range(1, args.table + 1):
        qp = QP(tq.quiver, potential_S(tq, x, args.degree, n=n))
        t0 = time.perf_counter()
        quot, certified = quotient_dimension(qp, args.degree)
        timings["n=%d" % n] = time.perf_counter() - t0
        bound = n * m - 2
        row_ok = certified and quot.dimension >= bound
        row_ok = row_ok and (not rows or quot.dimension > rows[-1]["dimension"])
        ok = ok and row_ok
        rows.append(dict(_quotient_entries(quot), n=n, bound=bound))
        details.append(
            "%-3d %-4d %-5d %-11s %d %s"
            % (n, quot.degree, quot.dimension, certified, bound, "ok" if row_ok else "VIOLATED")
        )
    witnesses = {"rows": rows, "x": _x_inputs(x), "valency": m}
    return ("PASS" if ok else "FAIL"), details, witnesses, timings


def cmd_jacobian_dim(args):
    if args.table is not None:
        return _jacobian_table(args)
    if args.qp is not None:
        _reject_ignored(args, "--qp", ("triangulation", "x", "n"))
        qp = _load_object(args.qp, QP.from_json_dict)
        tq = n = None
        witnesses = {"qp": qp.to_json_dict()}
    else:
        tau, tq = _surface(args.triangulation)
        x = parse_x(args.x)
        n = 1 if args.n is None else args.n
        qp = QP(tq.quiver, potential_S(tq, x, args.degree, n=n))
        witnesses = {"triangulation": tau.to_json_dict(), "x": _x_inputs(x), "n": args.n}

    t0 = time.perf_counter()
    quot, certified = quotient_dimension(qp, args.degree)
    timings = {"dimension": time.perf_counter() - t0}
    details = [
        "degree: %d" % quot.degree,
        "per-degree dimensions: %s" % (list(quot.per_degree),),
        "elimination: %d rows installed, pivots per length %s"
        % (quot.rows, list(quot.pivots_per_length)),
    ]
    if certified:
        details.append(
            "dimension: %d (exact; every path of length %d reduces to shorter)"
            % (quot.dimension, quot.certificate_length)
        )
    else:
        details.append(
            "dimension: %d through degree %d (no certificate; raise --degree)"
            % (quot.dimension, quot.degree)
        )
    outcome = "PASS"
    if args.certify and not certified:
        details.append("FAIL certificate did not engage by degree %d" % quot.degree)
        outcome = "FAIL"
    if args.certify and tq is not None and len(tq.punctures) == 1 and certified:
        t0 = time.perf_counter()
        indep = g_path_independence_check(tq, quot, n)
        timings["independence"] = time.perf_counter() - t0
        details.append(
            "%s g-paths below cutoff are linearly independent" % ("PASS" if indep else "FAIL")
        )
        outcome = outcome if indep else "FAIL"
    witnesses.update(_quotient_entries(quot), certificate_length=quot.certificate_length)
    return outcome, details, witnesses, timings


# ----------------------------------------------------------------------
# Parser and dispatch
# ----------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Raises ``ValueError`` with argparse's message where argparse would
    print usage and exit 2, so a rejected command line ends in an ERROR
    report.  Subparsers inherit the class; ``--help`` still prints and exits.
    """

    def error(self, message):
        raise ValueError("%s: %s" % (self.prog, message))


class _BuildTarget(argparse.Action):
    """Stores ``build``'s words, torus | genus2p G | load FILE, as the spec they name."""

    def __call__(self, parser, namespace, words, option_string=None):
        usage = {"torus": "torus", "genus2p": "genus2p G", "load": "load FILE"}.get(words[0])
        if usage is None:
            raise ValueError("unknown build target %r" % (words[0],))
        if len(words) != len(usage.split()):
            raise ValueError("usage: build %s" % usage)
        namespace.triangulation = ":".join(words) if words[0] == "genus2p" else words[-1]


@functools.cache
def build_parser():
    """The command-line parser, built once per process.

    It does not know the global options: ``main`` takes them off the front
    of argv, so anywhere else they are unrecognized arguments.
    """
    p = _ArgumentParser(
        prog="qpsurf",
        usage="%(prog)s [--report FILE] (--recheck FILE | COMMAND ...)",
        description="Exact computations with potentials on triangulated surfaces.  "
        "The global options go before the command: --report FILE writes the run "
        "report as JSON; --recheck FILE re-runs a stored report and compares "
        "outcome and witnesses.",
    )
    sub = p.add_subparsers(dest="subcommand", prog="qpsurf", required=True)

    sp = sub.add_parser("build", help="construct a triangulation and its quiver")
    sp.add_argument("triangulation", nargs="+", metavar="TARGET", action=_BuildTarget,
                    help="torus | genus2p G | load FILE")

    sp = sub.add_parser("flip", help="flip an arc")
    sp.add_argument("--triangulation", required=True)
    sp.add_argument("--arc", required=True)

    sp = sub.add_parser("quiver", help="print arrows and the f/g permutations")
    sp.add_argument("--triangulation", required=True)

    sp = sub.add_parser("potential", help="print the weighted-cycle potential")
    sp.add_argument("--triangulation", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--degree", type=int)

    sp = sub.add_parser("mutate", help="mutate a QP at a vertex and reduce")
    sp.add_argument("--qp", required=True, metavar="FILE")
    sp.add_argument("--vertex", required=True)

    sp = sub.add_parser("verify-flip", help="check flip/mutation compatibility")
    sp.add_argument("--triangulation", default="torus")
    sp.add_argument("--arc", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--perturb", metavar="COEFF",
                    help="negative control: shift one expected coefficient")

    sp = sub.add_parser("normalize", help="push non-g terms to higher order")
    sp.add_argument("--triangulation", required=True)
    sp.add_argument("--x")
    sp.add_argument("--potential", metavar="FILE")
    sp.add_argument("--random", type=int, metavar="COUNT")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--degree", type=int, default=16)

    sp = sub.add_parser("absorb", help="absorb powers of puncture cycles")
    sp.add_argument("--triangulation", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--potential", metavar="FILE")
    sp.add_argument("--powers", metavar="SPEC",
                    help='e.g. "p0:2=1,p1:3=3" for coeff * (cycle)^power terms')
    sp.add_argument("--degree", type=int, default=56)

    sp = sub.add_parser("classify", help="sort cycles into the three shapes")
    sp.add_argument("--triangulation", required=True)
    sp.add_argument("--cycle", metavar="A,B,C")
    sp.add_argument("--max-length", type=int)

    sp = sub.add_parser("jacobian-dim", help="truncated quotient dimensions")
    sp.add_argument("--qp", metavar="FILE")
    sp.add_argument("--triangulation")
    sp.add_argument("--x")
    sp.add_argument("--n", type=int)
    sp.add_argument("--degree", type=int)
    sp.add_argument("--certify", action="store_true",
                    help="fail unless the dimension is certified exact")
    sp.add_argument("--table", type=int, metavar="N",
                    help="tabulate n = 1..N on a once-punctured surface")

    return p


_HANDLERS = {
    "build": cmd_build,
    "flip": cmd_flip,
    "quiver": cmd_quiver,
    "potential": cmd_potential,
    "mutate": cmd_mutate,
    "verify-flip": cmd_verify_flip,
    "normalize": cmd_normalize,
    "absorb": cmd_absorb,
    "classify": cmd_classify,
    "jacobian-dim": cmd_jacobian_dim,
}


def _input_digest(argv, args):
    """The argv plus a sha256 of every input file the parsed options name."""
    inputs = {"argv": list(argv)}
    spec = getattr(args, "triangulation", None)
    paths = [getattr(args, "qp", None), getattr(args, "potential", None)]
    if spec is not None and not _is_builtin(spec):
        paths.append(spec)
    files = {}
    for path in filter(None, paths):
        try:
            files[path] = _digest_file(path)
        except OSError:
            pass
    if files:
        inputs["files"] = files
    return inputs


# Bad input (malformed JSON included), unreadable files, failed internal
# contracts and exhausted memory all end in ERROR.
_ERRORS = (ValueError, OSError, KeyError, ZeroDivisionError, RuntimeError, MemoryError)


def _error_line(exc):
    """The ERROR detail line for a caught exception; a MemoryError has no message of its own."""
    return "ERROR: %s" % ("memory ran out (MemoryError)" if isinstance(exc, MemoryError) else exc,)


def _reject_global_options(argv):
    """A global option left in a command line is an ERROR that names it."""
    for arg in argv:
        if arg in ("--report", "--recheck"):
            raise ValueError("%s is a global option: it goes once, before the subcommand" % arg)


def run_command(argv):
    """Run one subcommand and return its RunReport.

    Never raises, except that ``--help`` prints help and exits as argparse
    does; a command line argparse rejects is an ERROR carrying its message,
    and one that names the global options ``main`` reads is an ERROR that
    names the option.
    """
    inputs = {"argv": list(argv)}
    start = time.perf_counter()
    try:
        _reject_global_options(argv)
        args = build_parser().parse_args(argv)
        inputs = _input_digest(argv, args)
        outcome, details, witnesses, timings = _HANDLERS[args.subcommand](args)
    except _ERRORS as exc:
        return RunReport(
            list(argv), inputs, "ERROR",
            [_error_line(exc)], {}, {"total": time.perf_counter() - start},
        )
    timings["total"] = time.perf_counter() - start
    return RunReport(list(argv), inputs, outcome, details, witnesses, timings)


def _normalized(value):
    return json.loads(json.dumps(value, sort_keys=True))


def run_recheck(path):
    """Re-run a stored report's command and compare the results.

    The fresh witnesses go through a JSON round trip so they compare as
    the stored ones read back; the stored side came from ``json.load``
    and is compared as read.
    """
    stored = RunReport.from_json_dict(_load_json(path))
    fresh = run_command(stored.command)
    lines = ["recheck of %s" % path, "command: %s" % " ".join(stored.command)]
    ok = True
    if fresh.outcome != stored.outcome:
        ok = False
        lines.append(
            "FAIL outcome changed: stored %s, fresh %s" % (stored.outcome, fresh.outcome)
        )
    else:
        lines.append("PASS outcome reproduced: %s" % fresh.outcome)
    fresh_witnesses = _normalized(fresh.witnesses)
    if fresh_witnesses != stored.witnesses:
        ok = False
        diff_keys = sorted(
            key
            for key in set(fresh_witnesses) | set(stored.witnesses)
            if fresh_witnesses.get(key) != stored.witnesses.get(key)
        )
        lines.append("FAIL witnesses diverge at: %s" % ", ".join(diff_keys))
    else:
        lines.append("PASS witnesses reproduced bit for bit")
    return RunReport(
        ["recheck", path], {"report": _digest_file(path)},
        "PASS" if ok else "FAIL", lines,
        {"stored_outcome": stored.outcome, "fresh_outcome": fresh.outcome},
        dict(fresh.timings),
    )


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    paths = {}
    # each global option once, from the front; the parser rejects the rest
    while argv[:1] in (["--report"], ["--recheck"]) and len(argv) > 1 and argv[0] not in paths:
        paths[argv[0]] = argv[1]
        del argv[:2]
    recheck_path = paths.get("--recheck")

    if recheck_path is not None:
        try:
            if argv:
                _reject_global_options(argv[:1])
                raise ValueError("--recheck takes no command, got: %s" % " ".join(argv))
            report = run_recheck(recheck_path)
        except _ERRORS as exc:
            report = RunReport(["recheck", recheck_path], {}, "ERROR", [_error_line(exc)])
    elif not argv:
        build_parser().print_usage()
        return 2
    else:
        report = run_command(argv)

    for line in report.details:
        print(line)
    print("OUTCOME: %s" % report.outcome)
    if "--report" in paths:
        with open(paths["--report"], "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
