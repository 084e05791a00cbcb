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
witness comes from ``apply`` and ``compose``) before ``apply`` became one
expansion loop over images in the arrow ideal.  ``--recheck`` re-runs its
command and compares outcome and witnesses, so a change that alters any
witness fails here.  Stored commands name input files relative to the
repository root (``golden/inputs``), so the recheck runs there.

``golden/absorb_endo_digests.json`` pins the sha256 of the absorption
witness (the composite endomorphism, as its report stores it) for hub²,
rim² and rim² + c·hub³ on genus2p:1 at D = 32, computed before
``compose_all`` became a right fold that reuses untouched rule images, so a
change to how the composite is built must reproduce it bit for bit.
"""

import hashlib
import json
import pathlib

import pytest

from qpsurf.cli import run_command, run_recheck

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


ABSORB_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "absorb_endo_digests.json").read_text()
)


@pytest.mark.parametrize("label", sorted(ABSORB_DIGESTS))
def test_absorption_witness_digest(label):
    entry = ABSORB_DIGESTS[label]
    report = run_command(entry["argv"])
    assert report.outcome == "PASS", report.details
    endo = json.dumps(report.witnesses["endo"], sort_keys=True).encode()
    assert hashlib.sha256(endo).hexdigest() == entry["endo_sha256"]
