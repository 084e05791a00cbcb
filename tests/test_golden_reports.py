"""Stored reports re-run bit for bit.

Each file in ``golden/reports`` is a ``qpsurf --report`` written by an
earlier version: the absorb, verify-flip and jacobian reports before the
substitution kernel took its current shape (length-ordered rule images,
re-canonicalization without re-validation, candidate-start rotation), the
normalize report before the absorption pipeline became one factor stream,
the potential (torus with n = 2, genus2p:1), ``jacobian-dim --table``,
quiver and build reports before the two weighted-cycle builders became one
and before ``build_quiver`` lost its arrow-name override, and the mutate
report (vertex 1 of S(τ, (1, 1)) on genus2p:1 at D = 12, whose reduction
witness comes from ``apply``) before ``apply`` became one expansion loop
over images in the arrow ideal; the normalize and mutate reports have
since been rewritten in the factor-chain form (see below).  ``--recheck``
re-runs its command and compares outcome and witnesses, so a change that
alters any witness fails here.  Stored commands name input files relative to the
repository root (``golden/inputs``), so the recheck runs there.

The mutate report at n = 2 (vertex 1 of S(torus, −1/3, 2) at D = 18, input
``golden/inputs/qp_torus_n2_d18.json``) was written when ``reduce`` came to
remove each term through a paired arrow once per elimination round.  Before
that change the same command ended in ERROR ("trivial-part elimination did
not stabilize"), so no older report of it exists.

The verify-flip report was rewritten when its witness became the four
factors (φ1, φ2, φ3, φ4) in place of their composite ``phi``; no other key
of it changed.  The report as it was, with ``phi``, is kept as
``golden/inputs/verify_flip_torus_arc2_n2.json``: its ``--recheck`` must end
in a FAIL naming the two witness keys, not in a traceback.

The absorb report was rewritten when its witness became the factor chain
(``factors``) in place of the composite ``endo``; of its witnesses only that
key changed.  The report as it was, with ``endo``, is kept as
``golden/inputs/absorb_genus2p1_d32.json``: its ``--recheck`` must end in a
FAIL naming the two witness keys.

The normalize and mutate reports were rewritten when every multi-step
witness became its factor chain: each normalize run stores ``factors`` in
place of its composite ``endo`` (and its details line names the chain), and
the mutate report stores ``reduction_factors`` in place of
``reduction_endo``.  The reports as they were are kept under
``golden/inputs`` with the same names; their ``--recheck`` must end in a
FAIL naming the diverging keys.  ``golden/chain_composite_digests.json``
pins the sha256 of each old composite, computed while the engine still
built it; composing the stored factors must reproduce each bit for bit.

The ``jacobian-dim --table`` report was rewritten when each row came to
certify at the lowest degree that does (L + 2, L the largest generator
length) in place of n·m + 6; of its witnesses only each row's ``degree``
and the length of its ``per_degree`` changed.  The report as it was is
kept as ``golden/inputs/jacobian_table2.json``: its ``--recheck`` must end
in a FAIL naming ``rows``.

``golden/absorb_endo_digests.json`` pins the sha256 of the composite
absorption witness (as the report stored it under ``endo``) for hub², rim²
and rim² + c·hub³ on genus2p:1 at D = 32, computed before ``compose_all``
became a right fold that reuses untouched rule images, and of the old
absorb report's ``endo``.  Composing the factors the report now carries
must reproduce each bit for bit.

``golden/flip_phi_digests.json`` pins the sha256 of the flip composite
φ4∘φ3∘φ2∘φ1 (as the report stored it under ``phi``) for torus arcs 1-3,
n = 1..3 and x in {1, -1/3}, and of the old report's ``phi``, computed
while the report still stored the composite.  Composing the factors that
``verify_flip_compatibility`` and the stored report now carry must
reproduce each bit for bit.
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from qpsurf.cli import main, run_command, run_recheck
from qpsurf.endo import REndomorphism, compose_all
from qpsurf.path_algebra import Potential
from qpsurf.qp_mutation import QP, is_two_acyclic, verify_flip_compatibility
from qpsurf.surface import (
    build_quiver,
    once_punctured_torus,
    potential_S,
    twice_punctured_genus,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = sorted((pathlib.Path(__file__).parent / "golden" / "reports").glob("*.json"))


def test_every_workload_kind_is_stored():
    commands = {path.stem.split("_")[0] for path in REPORTS}
    assert {
        "absorb", "verify", "jacobian", "normalize", "potential", "quiver", "build", "mutate"
    } <= commands


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.stem)
def test_recheck_reproduces_the_stored_report(path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    report = run_recheck(str(path))
    assert report.outcome == "PASS", report.details
    assert report.witnesses["fresh_outcome"] == "PASS"


def _sha256(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


ABSORB_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "absorb_endo_digests.json").read_text()
)


def _absorb_composite(witnesses):
    """The composite of a genus2p:1 absorb report's factor chain, as the report stored ``endo``."""
    tau = twice_punctured_genus(1)
    assert witnesses["triangulation"] == tau.to_json_dict()
    q = build_quiver(tau).quiver
    factors = [REndomorphism.from_json_dict(q, data) for data in witnesses["factors"]]
    return compose_all(factors, q, witnesses["degree"]).to_json_dict()


@pytest.mark.parametrize("label", sorted(ABSORB_DIGESTS["cases"]))
def test_absorption_witness_digest(label):
    entry = ABSORB_DIGESTS["cases"][label]
    report = run_command(entry["argv"])
    assert report.outcome == "PASS", report.details
    assert _sha256(_absorb_composite(report.witnesses)) == entry["endo_sha256"]


def test_stored_absorb_factors_compose_to_the_old_reports_endo():
    stored = ABSORB_DIGESTS["stored_report"]
    old = json.loads((REPO_ROOT / stored["path"]).read_text())
    new = json.loads((REPO_ROOT / "tests/golden/reports/absorb_genus2p1_d32.json").read_text())
    assert _sha256(old["witnesses"]["endo"]) == stored["endo_sha256"]
    assert old["command"] == new["command"]
    old_w, new_w = old["witnesses"], new["witnesses"]
    assert {k: v for k, v in old_w.items() if k != "endo"} == {
        k: v for k, v in new_w.items() if k != "factors"}
    assert _sha256(_absorb_composite(new_w)) == stored["endo_sha256"]


def test_old_format_absorb_report_rechecks_to_a_fail(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["--recheck", ABSORB_DIGESTS["stored_report"]["path"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL witnesses diverge at: endo, factors" in out
    assert out.rstrip().endswith("OUTCOME: FAIL")


CHAIN_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "chain_composite_digests.json").read_text()
)


def _stored_pair(kind):
    """(old witnesses, new witnesses) of a rewritten report, with its commands checked equal."""
    entry = CHAIN_DIGESTS[kind]
    old = json.loads((REPO_ROOT / entry["path"]).read_text())
    new = json.loads((REPO_ROOT / entry["report"]).read_text())
    assert old["command"] == new["command"]
    assert old["outcome"] == new["outcome"] == "PASS"
    return old["witnesses"], new["witnesses"]


def test_stored_normalize_factors_compose_to_the_old_reports_endo():
    old_w, new_w = _stored_pair("normalize")
    want = CHAIN_DIGESTS["normalize"]["endo_sha256"]
    assert [_sha256(run["endo"]) for run in old_w["runs"]] == want
    assert {k: v for k, v in old_w.items() if k != "runs"} == {
        k: v for k, v in new_w.items() if k != "runs"}
    tau = twice_punctured_genus(1)
    assert new_w["triangulation"] == tau.to_json_dict()
    q = build_quiver(tau).quiver
    assert len(new_w["runs"]) == len(want)
    for old_run, new_run, digest in zip(old_w["runs"], new_w["runs"], want):
        assert {k: v for k, v in old_run.items() if k != "endo"} == {
            k: v for k, v in new_run.items() if k != "factors"}
        factors = [REndomorphism.from_json_dict(q, data) for data in new_run["factors"]]
        assert factors
        assert _sha256(compose_all(factors, q, new_w["degree"]).to_json_dict()) == digest


def test_stored_reduction_factors_compose_to_the_old_reports_endo():
    old_w, new_w = _stored_pair("mutate")
    want = CHAIN_DIGESTS["mutate"]["reduction_endo_sha256"]
    assert _sha256(old_w["reduction_endo"]) == want
    assert {k: v for k, v in old_w.items() if k != "reduction_endo"} == {
        k: v for k, v in new_w.items() if k != "reduction_factors"}
    pre = QP.from_json_dict(new_w["premutated"])
    factors = [REndomorphism.from_json_dict(pre.quiver, data)
               for data in new_w["reduction_factors"]]
    assert len(factors) == 2
    assert _sha256(compose_all(factors, pre.quiver, pre.degree).to_json_dict()) == want


def test_stored_n2_mutation_factors_carry_the_premutated_potential():
    """The stored n = 2 reduction factors, applied in turn to the stored
    premutated potential, give its two 2-cycles plus the stored result."""
    stored = json.loads((REPO_ROOT / "tests/golden/reports/mutate_torus_n2_v1.json").read_text())
    w = stored["witnesses"]
    tq = build_quiver(once_punctured_torus())
    s = potential_S(tq, Fraction(-1, 3), 18, n=2)
    assert QP.from_json_dict(w["input"]) == QP(tq.quiver, s)
    pre = QP.from_json_dict(w["premutated"])
    mutated = QP.from_json_dict(w["mutated"])
    assert is_two_acyclic(mutated.quiver)
    got = pre.potential
    for data in w["reduction_factors"]:
        got = REndomorphism.from_json_dict(pre.quiver, data).apply(got)
    q = pre.quiver
    want = Potential(q, pre.degree, {q.path(pair): 1 for pair in w["pairs"]}) + Potential(
        q, pre.degree, {q.path(p.arrows): z for p, z in mutated.potential.terms.items()})
    assert got == want


@pytest.mark.parametrize("kind, keys", [
    ("normalize", "runs"),
    ("mutate", "reduction_endo, reduction_factors"),
])
def test_old_format_chain_reports_recheck_to_a_fail(monkeypatch, capsys, kind, keys):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["--recheck", CHAIN_DIGESTS[kind]["path"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL witnesses diverge at: %s\n" % keys in out
    assert out.rstrip().endswith("OUTCOME: FAIL")


FLIP_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "flip_phi_digests.json").read_text()
)


@pytest.mark.parametrize("label", sorted(FLIP_DIGESTS["composite_sha256"]))
def test_flip_factors_compose_to_the_old_composite(label):
    arc, n, x = (part.split("=")[1] for part in label.split())
    report = verify_flip_compatibility(once_punctured_torus(), int(arc), Fraction(x), int(n))
    assert report.ok
    assert len(report.factors) == 4
    phi = compose_all(report.factors, report.premutated.quiver, report.degree)
    assert _sha256(phi.to_json_dict()) == FLIP_DIGESTS["composite_sha256"][label]


def test_stored_flip_factors_compose_to_the_old_reports_phi():
    old = json.loads((REPO_ROOT / FLIP_DIGESTS["stored_report"]["path"]).read_text())
    new = json.loads((REPO_ROOT / "tests/golden/reports/verify_flip_torus_arc2_n2.json").read_text())
    want = FLIP_DIGESTS["stored_report"]["phi_sha256"]
    assert _sha256(old["witnesses"]["phi"]) == want
    old_w, new_w = old["witnesses"], new["witnesses"]
    assert {k: v for k, v in old_w.items() if k != "phi"} == {
        k: v for k, v in new_w.items() if k != "factors"}
    tau = once_punctured_torus()
    assert new_w["triangulation"] == tau.to_json_dict()
    report = verify_flip_compatibility(tau, new_w["arc"], Fraction(new_w["x"]), new_w["n"])
    q = report.premutated.quiver
    factors = [REndomorphism.from_json_dict(q, data) for data in new_w["factors"]]
    assert factors == list(report.factors)
    assert _sha256(compose_all(factors, q, new_w["degree"]).to_json_dict()) == want


def test_old_format_flip_report_rechecks_to_a_fail(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["--recheck", FLIP_DIGESTS["stored_report"]["path"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL witnesses diverge at: factors, phi" in out
    assert out.rstrip().endswith("OUTCOME: FAIL")


TABLE = "golden/reports/jacobian_table2.json"
OLD_TABLE = "golden/inputs/jacobian_table2.json"


def _table_rows(path):
    return json.loads((pathlib.Path(__file__).parent / path).read_text())["witnesses"]["rows"]


def test_stored_table_certifies_at_the_lowest_degree():
    new, old = _table_rows(TABLE), _table_rows(OLD_TABLE)
    assert [(r["n"], r["degree"], r["dimension"], r["certified"]) for r in new] == [
        (1, 7, 36, True), (2, 13, 72, True)]
    assert [r["degree"] for r in old] == [12, 18]
    # only the degree and the length of the per-degree list changed
    for o, n in zip(old, new):
        assert {k: v for k, v in o.items() if k not in ("degree", "per_degree")} == {
            k: v for k, v in n.items() if k not in ("degree", "per_degree")}
        assert o["per_degree"][:len(n["per_degree"])] == n["per_degree"]
        assert not any(o["per_degree"][len(n["per_degree"]):])


def test_old_degree_rule_table_rechecks_to_a_fail(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["--recheck", "tests/" + OLD_TABLE])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL witnesses diverge at: rows\n" in out
    assert out.rstrip().endswith("OUTCOME: FAIL")
