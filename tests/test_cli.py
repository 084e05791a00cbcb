"""End-to-end runs of the command-line interface, in process.

Each test drives ``main`` with an argv list and inspects the printed
report and exit status: 0 for PASS, 1 for FAIL, 2 for ERROR.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qpsurf import cli
from qpsurf.cli import main
from qpsurf.path_algebra import Path, Potential
from qpsurf.qp_mutation import QP
from qpsurf.surface import once_punctured_torus, potential_S


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _error_report(capsys, tmp_path, argv):
    """Run argv with --report; return its output after checking it is an ERROR."""
    rpt = tmp_path / "report.json"
    code, out = run(capsys, "--report", str(rpt), *argv)
    assert code == 2
    assert out.rstrip().endswith("OUTCOME: ERROR")
    assert json.loads(rpt.read_text())["outcome"] == "ERROR"
    return out


class TestBuild:
    def test_torus(self, capsys):
        code, out = run(capsys, "build", "torus")
        assert code == 0
        assert "arcs: 3" in out
        assert "p0 (valency 6)" in out
        assert "double arrows between" in out
        assert out.rstrip().endswith("OUTCOME: PASS")

    def test_family(self, capsys):
        code, out = run(capsys, "build", "genus2p", "2")
        assert code == 0
        assert "arcs: 12" in out
        assert "conditions: every valency >= 4, no double arrows" in out

    def test_genus_zero_is_an_error(self, capsys):
        code, out = run(capsys, "build", "genus2p", "0")
        assert code == 2
        assert "positive genus" in out
        assert "OUTCOME: ERROR" in out

    def test_unknown_target(self, capsys):
        code, out = run(capsys, "build", "icosahedron")
        assert code == 2

    def test_load_file(self, capsys, tmp_path):
        f = tmp_path / "tri.json"
        f.write_text(json.dumps(once_punctured_torus().to_json_dict()))
        code, out = run(capsys, "build", "load", str(f))
        assert code == 0
        assert "arcs: 3" in out

    @pytest.mark.parametrize("argv", [
        ["build", "load", "F"],
        ["quiver", "--triangulation", "F"],
        ["classify", "--triangulation", "F"],
        ["jacobian-dim", "--triangulation", "F", "--x", "1"],
    ])
    def test_empty_triangulation_is_an_error(self, capsys, tmp_path, argv):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"arcs": [], "triangles": []}))
        out = _error_report(capsys, tmp_path, [str(f) if tok == "F" else tok for tok in argv])
        assert "ERROR: a triangulation needs at least one triangle\n" in out

    def test_a_build_report_is_not_a_triangulation(self, capsys, tmp_path):
        rpt = tmp_path / "build.json"
        run(capsys, "--report", str(rpt), "build", "torus")
        code, out = run(capsys, "quiver", "--triangulation", str(rpt))
        assert code == 2
        assert "ERROR: %s: malformed input: missing 'arcs', 'triangles'\n" % rpt in out
        tri = tmp_path / "tri.json"
        tri.write_text(json.dumps(json.loads(rpt.read_text())["witnesses"]["triangulation"]))
        code, out = run(capsys, "quiver", "--triangulation", str(tri))
        assert code == 0

    @pytest.mark.parametrize("words, usage", [
        (["torus", "2"], "build torus"),
        (["genus2p"], "build genus2p G"),
        (["load", "a.json", "b.json"], "build load FILE"),
    ])
    def test_wrong_number_of_words(self, capsys, words, usage):
        code, out = run(capsys, "build", *words)
        assert code == 2
        assert "ERROR: usage: %s\n" % usage in out

    def test_load_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, "build", "load", str(tmp_path / "nope.json"))
        assert code == 2

    def test_no_subcommand_prints_usage(self, capsys):
        code, out = run(capsys)
        assert code == 2
        assert "usage" in out


class TestFlip:
    def test_torus_arc(self, capsys):
        code, out = run(capsys, "flip", "--triangulation", "torus", "--arc", "1")
        assert code == 0
        assert "after:  [(3, 2, 1), (3, 2, 1)]" in out

    def test_family_valency_change(self, capsys):
        code, out = run(capsys, "flip", "--triangulation", "genus2p:1", "--arc", "3")
        assert code == 0
        assert "valencies before: {'p0': 8, 'p1': 4}" in out
        assert "valencies after:  {'p0': 9, 'p1': 3}" in out

    def test_unknown_arc(self, capsys):
        code, out = run(capsys, "flip", "--triangulation", "torus", "--arc", "7")
        assert code == 2


class TestQuiverAndPotential:
    def test_quiver_listing(self, capsys):
        code, out = run(capsys, "quiver", "--triangulation", "genus2p:1")
        assert code == 0
        assert "g-orbit p0 (valency 8)" in out
        assert "g-orbit p1 (valency 4)" in out
        assert out.count(" -> ") == 12

    def test_powered_potential(self, capsys):
        code, out = run(
            capsys, "potential", "--triangulation", "torus", "--x=-1/3", "--n", "2"
        )
        assert code == 0
        assert "terms: 3" in out
        assert "-1/3 * " in out

    @pytest.mark.parametrize("argv", [
        ["potential", "--triangulation", "torus", "--x", "1,2", "--n", "2"],
        ["jacobian-dim", "--triangulation", "torus", "--x", "1,2", "--n", "1", "--degree", "12"],
        ["jacobian-dim", "--table", "2", "--x", "1,2"],
    ], ids=["potential", "jacobian-dim", "table"])
    def test_one_coefficient_per_puncture(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 2
        assert "ERROR: expected 1 puncture coefficients, got 2\n" in out

    @pytest.mark.parametrize("subcommand", ["potential", "jacobian-dim"])
    def test_degree_below_a_puncture_cycle(self, capsys, tmp_path, subcommand):
        # the rim cycle of genus2p:1 has length 8
        out = _error_report(capsys, tmp_path, [
            subcommand, "--triangulation", "genus2p:1", "--x", "1", "--degree", "7",
        ])
        assert "degree 7 is below the longest term of S(τ, x, n), of length 8" in out

    def test_zero_coefficient_rejected(self, capsys):
        code, out = run(capsys, "potential", "--triangulation", "torus", "--x", "0")
        assert code == 2
        assert "nonzero" in out

    def test_zero_denominator_is_an_error(self, capsys):
        code, out = run(capsys, "potential", "--triangulation", "torus", "--x", "1/0")
        assert code == 2
        assert "OUTCOME: ERROR" in out

    @pytest.mark.parametrize(
        "x, message",
        [
            ("1/0", "--x: zero denominator in '1/0'"),
            ("abc", "--x: not a rational number: 'abc'"),
            ("2, 3/0", "--x: zero denominator in '3/0'"),
        ],
    )
    def test_bad_fraction_names_option_and_token(self, capsys, x, message):
        code, out = run(capsys, "potential", "--triangulation", "torus", "--x", x)
        assert code == 2
        assert "ERROR: %s\n" % message in out


class TestMutate:
    @pytest.fixture()
    def qp_file(self, torus_tq, tmp_path):
        qp = QP(torus_tq.quiver, potential_S(torus_tq, 1, 12))
        f = tmp_path / "qp.json"
        f.write_text(json.dumps(qp.to_json_dict()))
        return str(f)

    def test_torus_vertex(self, capsys, qp_file):
        code, out = run(capsys, "mutate", "--qp", qp_file, "--vertex", "1")
        assert code == 0
        assert "reduced arrows: 6" in out
        assert "two-acyclic after mutation: True" in out
        assert "PASS witness recheck" in out

    def test_unknown_vertex(self, capsys, qp_file):
        code, out = run(capsys, "mutate", "--qp", qp_file, "--vertex", "9")
        assert code == 2

    def test_unreadable_qp(self, capsys, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("not json")
        code, out = run(capsys, "mutate", "--qp", str(f), "--vertex", "1")
        assert code == 2

    def test_term_beyond_its_own_degree(self, capsys, torus_tq, tmp_path):
        # The puncture cycle has length 6; a stored D of 5 must not drop it.
        data = QP(torus_tq.quiver, potential_S(torus_tq, 1, 12)).to_json_dict()
        data["potential"]["D"] = 5
        f = tmp_path / "qp.json"
        f.write_text(json.dumps(data))
        code, out = run(capsys, "mutate", "--qp", str(f), "--vertex", "1")
        assert code == 2
        assert "longer than the truncation degree 5" in out
        assert "OUTCOME: ERROR" in out


class TestVerifyFlip:
    def test_default_triangulation(self, capsys):
        code, out = run(capsys, "verify-flip", "--arc", "1", "--x", "1")
        assert code == 0
        assert "arc=1 x=1 n=1 D=18" in out
        assert "FAIL" not in out

    def test_fractional_x(self, capsys):
        code, out = run(
            capsys, "verify-flip", "--arc", "2", "--x=-1/3", "--degree", "12"
        )
        assert code == 0

    def test_perturbed_expectation_fails(self, capsys):
        code, out = run(
            capsys, "verify-flip", "--arc", "1", "--x", "1",
            "--degree", "12", "--perturb", "1/7",
        )
        assert code == 1
        assert "first difference" in out
        assert "OUTCOME: FAIL" in out


class TestNormalize:
    def test_seeded_runs(self, capsys):
        code, out = run(
            capsys, "normalize", "--triangulation", "genus2p:1",
            "--x", "1,1", "--random", "2", "--seed", "3", "--degree", "12",
        )
        assert code == 0
        assert "2/2 runs normalized" in out

    def test_zero_runs(self, capsys):
        code, out = run(
            capsys, "normalize", "--triangulation", "genus2p:1", "--random", "0"
        )
        assert code == 0
        assert "0/0 runs normalized" in out

    def test_negative_count_is_an_error(self, capsys, tmp_path):
        out = _error_report(
            capsys, tmp_path,
            ["normalize", "--triangulation", "genus2p:1", "--random", "-2", "--degree", "12"],
        )
        assert "--random needs COUNT >= 0, got -2" in out

    def test_explicit_potential_file(self, capsys, tmp_path, fig_tq):
        pot = Potential(fig_tq.quiver, 12, {Path(("b1", "c1", "b4", "c2")): 1})
        f = tmp_path / "u.json"
        f.write_text(json.dumps(pot.to_json_dict()))
        code, out = run(
            capsys, "normalize", "--triangulation", "genus2p:1",
            "--potential", str(f), "--degree", "12",
        )
        assert code == 0
        assert "1/1 runs normalized" in out

    def test_term_beyond_degree(self, capsys, tmp_path, fig_tq):
        hub = fig_tq.puncture_cycle("p1").arrows
        pot = Potential(fig_tq.quiver, 14, {Path(hub * 3): 1})
        f = tmp_path / "long.json"
        f.write_text(json.dumps(pot.to_json_dict()))
        code, out = run(
            capsys, "normalize", "--triangulation", "genus2p:1",
            "--potential", str(f), "--degree", "10",
        )
        assert code == 2
        assert "beyond degree" in out

    def test_torus_lacks_the_conditions(self, capsys):
        code, out = run(capsys, "normalize", "--triangulation", "torus")
        assert code == 2

    def test_random_draws_stay_within_the_degree(self, capsys):
        # every cycle of length 4..6 lies beyond degree 3: nothing to draw
        code, out = run(
            capsys, "normalize", "--triangulation", "genus2p:1",
            "--random", "1", "--degree", "3",
        )
        assert code == 2
        assert "no cycles in the requested length window" in out


class TestAbsorb:
    def test_hub_square(self, capsys):
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1",
            "--x", "1,1", "--powers", "p1:2=1", "--degree", "30",
        )
        assert code == 0
        assert "PASS carries S+V to S exactly" in out

    def test_first_power_rejected(self, capsys):
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1",
            "--x", "1,1", "--powers", "p0:1=1", "--degree", "20",
        )
        assert code == 2

    def test_zero_v_is_absorbed_by_the_identity(self, capsys, tmp_path):
        v = tmp_path / "v.json"
        v.write_text(json.dumps({"D": 20, "terms": []}))
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1",
            "--x", "1,1", "--potential", str(v), "--degree", "20",
        )
        assert code == 0
        assert "V terms: 0, short(V)=inf, D=20" in out
        assert "witness: 0 factors, min depth inf" in out
        assert "PASS carries S+V to S exactly" in out

    @pytest.mark.parametrize(
        "powers, message",
        [
            ("p0:2=1,p1:9=5", "--powers: term 'p1:9=5' has length 36, beyond degree 20"),
            ("p0:3=1", "--powers: term 'p0:3=1' has length 24, beyond degree 20"),
            ("p9:2=1", "--powers: unknown puncture 'p9'"),
            ("p0:x=1", "--powers: not a positive integer power: 'x'"),
            ("p0:0=1", "--powers: not a positive integer power: '0'"),
            # a zero term would silently make V = 0 and PASS on the identity
            ("p0:2=0", "--powers: p0:2 has coefficient 0"),
            ("p1:2=1,p0:2=0/5", "--powers: p0:2 has coefficient 0"),
        ],
    )
    def test_bad_power_is_an_error(self, capsys, powers, message):
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1",
            "--x", "1,1", "--powers", powers, "--degree", "20",
        )
        assert code == 2
        assert message in out

    def test_repeated_power_is_an_error(self, capsys):
        # summing the two terms would turn V into 0 and PASS on an input
        # nobody meant; the repeated term is named instead
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1",
            "--x", "1,1", "--powers", "p0:2=1,p0:2=-1", "--degree", "20",
        )
        assert code == 2
        assert "ERROR: --powers: p0:2 is given twice" in out
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1",
            "--x", "1,1", "--powers", "p1:2=1,p0:2=1, p1:02=3", "--degree", "20",
        )
        assert code == 2
        assert "ERROR: --powers: p1:2 is given twice" in out

    def test_blank_coefficient_means_one(self, fig_tq):
        blank = cli._powers_potential(fig_tq, 20, "p0:2= ,p1:3=")
        assert blank == cli._powers_potential(fig_tq, 20, "p0:2=1,p1:3=1")

    def test_needs_an_input(self, capsys):
        code, out = run(
            capsys, "absorb", "--triangulation", "genus2p:1", "--x", "1,1"
        )
        assert code == 2
        assert "provide --potential or --powers" in out


class TestClassify:
    def test_family_counts(self, capsys, tmp_path):
        rpt = tmp_path / "classify.json"
        code, out = run(
            capsys, "--report", str(rpt), "classify",
            "--triangulation", "genus2p:1", "--max-length", "6",
        )
        assert code == 0
        assert "classified 27 cycle classes: F=8 G=1 FG=18, witness failures=0" in out
        stored = json.loads(rpt.read_text())
        assert stored["witnesses"]["counts"] == {"F": 8, "G": 1, "FG": 18}

    def test_single_cycle(self, capsys):
        code, out = run(
            capsys, "classify", "--triangulation", "genus2p:1",
            "--cycle", "b1,c1,b4,c2",
        )
        assert code == 0
        assert "FG a=a1 remainder=c2" in out

    def test_non_composable_cycle(self, capsys):
        code, out = run(
            capsys, "classify", "--triangulation", "genus2p:1", "--cycle", "a1,a2"
        )
        assert code == 2

    def test_torus_lacks_the_conditions(self, capsys):
        code, out = run(capsys, "classify", "--triangulation", "torus")
        assert code == 2

    def test_nonpositive_max_length(self, capsys):
        code, out = run(
            capsys, "classify", "--triangulation", "torus", "--max-length", "0"
        )
        assert code == 2
        assert "cycle length bound must be at least 1" in out
        assert "OUTCOME: ERROR" in out


class TestJacobianDim:
    def test_certified_with_independence(self, capsys):
        code, out = run(
            capsys, "jacobian-dim", "--triangulation", "torus",
            "--x", "1", "--n", "1", "--degree", "12", "--certify",
        )
        assert code == 0
        assert "dimension: 36 (exact" in out
        assert "PASS g-paths below cutoff are linearly independent" in out
        assert "rows installed, pivots per length [0, 0, 0, 15, 42," in out

    @pytest.mark.parametrize("n", [[], ["--n", "1"]], ids=["default-n", "n=1"])
    def test_independence_check_on_the_default_n(self, capsys, n):
        code, out = run(
            capsys, "jacobian-dim", "--triangulation", "torus",
            "--x", "1", "--degree", "12", "--certify", *n,
        )
        assert code == 0
        assert "PASS g-paths below cutoff are linearly independent" in out

    def test_qp_file_mode(self, capsys, tmp_path, torus_tq):
        qp = QP(torus_tq.quiver, potential_S(torus_tq, 1, 12))
        f = tmp_path / "qp.json"
        f.write_text(json.dumps(qp.to_json_dict()))
        code, out = run(capsys, "jacobian-dim", "--qp", str(f))
        assert code == 0
        assert "dimension: 36 (exact" in out

    def test_qp_file_mode_searches_up_to_the_files_degree(self, tmp_path, torus_tq):
        # the file's potential is truncated at 12; the lowest degree that
        # certifies is L + 2 = 7, and an explicit degree is kept as given
        f = tmp_path / "qp.json"
        f.write_text(json.dumps(QP(torus_tq.quiver, potential_S(torus_tq, 1, 12)).to_json_dict()))
        for argv, degree in (([], 7), (["--degree", "12"], 12)):
            report = cli.run_command(["jacobian-dim", "--qp", str(f)] + argv)
            assert report.outcome == "PASS"
            assert (report.witnesses["degree"], report.witnesses["dimension"]) == (degree, 36)
            assert report.witnesses["certified"] is True

    @pytest.mark.parametrize(
        "argv,ignored",
        [
            (["--qp", "QP", "--triangulation", "genus2p:1"], "--triangulation"),
            (["--qp", "QP", "--x", "5"], "--x"),
            (["--qp", "QP", "--n", "3"], "--n"),
            (
                ["--qp", "QP", "--triangulation", "genus2p:1", "--x", "5", "--n", "3", "--certify"],
                "--triangulation, --x, --n",
            ),
            (["--table", "2", "--qp", "QP"], "--qp"),
            (["--table", "2", "--n", "2"], "--n"),
            (["--table", "2", "--qp", "QP", "--n", "2"], "--qp, --n"),
            (["--table", "1", "--x", "1", "--certify"], "--certify"),
        ],
    )
    def test_options_the_mode_ignores_are_an_error(
        self, capsys, tmp_path, torus_tq, argv, ignored
    ):
        f = tmp_path / "qp.json"
        f.write_text(json.dumps(QP(torus_tq.quiver, potential_S(torus_tq, 1, 12)).to_json_dict()))
        argv = [str(f) if a == "QP" else a for a in argv]
        out = _error_report(capsys, tmp_path, ["jacobian-dim"] + argv)
        mode = "--table" if "--table" in argv else "--qp"
        assert "jacobian-dim %s ignores %s" % (mode, ignored) in out

    def test_table(self, capsys):
        code, out = run(capsys, "jacobian-dim", "--table", "2", "--x", "1")
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2
        assert "36" in lines[0] and "72" in lines[1]

    def test_table_rows_certify_at_the_lowest_degree(self):
        report = cli.run_command(["jacobian-dim", "--table", "2", "--x=3/2"])
        assert report.outcome == "PASS"
        rows = [(r["degree"], r["dimension"], r["certified"]) for r in report.witnesses["rows"]]
        assert rows == [(7, 36, True), (13, 72, True)]
        assert report.details[1:] == ["1   7    36    True        4 ok",
                                      "2   13   72    True        10 ok"]

    def test_table_with_a_degree_keeps_it(self):
        report = cli.run_command(["jacobian-dim", "--table", "1", "--x", "1", "--degree", "12"])
        assert report.outcome == "PASS"
        assert [r["degree"] for r in report.witnesses["rows"]] == [12]

    def test_running_out_of_memory_is_an_error(self, capsys, tmp_path, monkeypatch):
        def out_of_memory(qp, degree=None):
            raise MemoryError

        monkeypatch.setattr(cli, "quotient_dimension", out_of_memory)
        out = _error_report(capsys, tmp_path, [
            "jacobian-dim", "--triangulation", "torus", "--x", "1", "--degree", "12",
        ])
        assert "ERROR: memory ran out (MemoryError)\n" in out

    def test_empty_table_is_an_error(self, capsys):
        code, out = run(capsys, "jacobian-dim", "--table", "0", "--x", "1")
        assert code == 2
        assert "OUTCOME: ERROR" in out

    @pytest.mark.parametrize(
        "spec,x,n,degree,dimension",
        [
            ("torus", "1", 1, 7, 36),
            ("torus", "1", 3, 19, 108),
            ("genus2p:1", "1,1", 1, 9, 80),
            ("genus2p:1", "1,1", 2, 17, 160),
            ("genus2p:2", "1,1", 1, 17, 320),
        ],
    )
    def test_lowest_certifying_degree_without_degree(self, spec, x, n, degree, dimension):
        # degrees from the largest generator length + 2 up to the
        # potential's default degree, 2·n·m + 6, are tried in turn; the
        # first that certifies is the one reported
        report = cli.run_command(
            ["jacobian-dim", "--triangulation", spec, "--x", x, "--n", str(n)]
        )
        assert report.outcome == "PASS"
        assert report.witnesses["degree"] == degree
        assert report.witnesses["dimension"] == dimension
        assert report.witnesses["certified"] is True
        assert "degree: %d" % degree in report.details

    def test_table_needs_one_puncture(self, capsys):
        code, out = run(
            capsys, "jacobian-dim", "--table", "2", "--triangulation", "genus2p:1"
        )
        assert code == 2


class TestIgnoredOptions:
    """An option the chosen mode of a subcommand would not read is an ERROR."""

    @pytest.mark.parametrize("argv, message", [
        (["absorb", "--triangulation", "genus2p:1", "--x", "1,1", "--degree", "20",
          "--potential", "V", "--powers", "p1:2=1"], "absorb --potential ignores --powers"),
        (["classify", "--triangulation", "genus2p:1", "--cycle", "b1,c1,b4,c2",
          "--max-length", "6"], "classify --cycle ignores --max-length"),
        (["normalize", "--triangulation", "genus2p:1", "--degree", "12",
          "--potential", "U", "--random", "2"], "normalize --potential ignores --random"),
        (["normalize", "--triangulation", "genus2p:1", "--degree", "12",
          "--potential", "U", "--random", "2", "--seed", "0"],
         "normalize --potential ignores --random, --seed"),
    ], ids=["absorb-powers", "classify-max-length", "normalize-random", "normalize-both"])
    def test_is_an_error(self, capsys, tmp_path, fig_tq, argv, message):
        hub = fig_tq.puncture_cycle("p1").arrows
        files = {
            "V": Potential(fig_tq.quiver, 20, {Path(hub * 2): 1}),
            "U": Potential(fig_tq.quiver, 12, {Path(("b1", "c1", "b4", "c2")): 1}),
        }
        for name, pot in files.items():
            (tmp_path / name).write_text(json.dumps(pot.to_json_dict()))
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        out = _error_report(capsys, tmp_path, argv)
        assert "ERROR: %s\n" % message in out


class TestGlobalOptions:
    """--report and --recheck are read by main, from the front of argv only."""

    @pytest.mark.parametrize("argv", [
        ["--recheck", "nope.json", "build", "torus"],
        ["--report", "r.json", "build", "torus"],
        ["build", "torus", "--report", "r.json"],
    ])
    def test_run_command_rejects_them(self, argv):
        report = cli.run_command(argv)
        assert report.outcome == "ERROR"
        option = next(a for a in argv if a.startswith("--"))
        assert report.details == [
            "ERROR: %s is a global option: it goes once, before the subcommand" % option
        ]

    def test_recheck_takes_no_command(self, capsys, tmp_path):
        rpt = tmp_path / "build.json"
        run(capsys, "--report", str(rpt), "build", "torus")
        code, out = run(capsys, "--recheck", str(rpt), "build", "torus")
        assert code == 2
        assert "ERROR: --recheck takes no command, got: build torus\n" in out

    def test_report_after_the_command(self, capsys, tmp_path):
        rpt = tmp_path / "build.json"
        code, out = run(capsys, "build", "torus", "--report", str(rpt))
        assert code == 2
        assert "ERROR: --report is a global option: it goes once, before the subcommand\n" in out
        assert not rpt.exists()

    def test_given_twice(self, capsys, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        code, out = run(capsys, "--report", str(first), "--report", str(second), "build", "torus")
        # main takes the first --report; the second is named, not its file
        assert code == 2
        assert "ERROR: --report is a global option: it goes once, before the subcommand\n" in out
        assert str(second) not in out
        assert json.loads(first.read_text())["outcome"] == "ERROR"
        assert not second.exists()

    def test_recheck_given_twice(self, capsys, tmp_path):
        rpt = tmp_path / "build.json"
        run(capsys, "--report", str(rpt), "build", "torus")
        code, out = run(capsys, "--recheck", str(rpt), "--recheck", str(rpt))
        assert code == 2
        assert "ERROR: --recheck is a global option: it goes once, before the subcommand\n" in out

    def test_help_lists_them(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--report FILE" in out and "--recheck FILE" in out

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestUsageErrors:
    """A command line argparse rejects ends in an ERROR report, not SystemExit."""

    def test_bad_option_value_writes_an_error_report(self, capsys, tmp_path):
        rpt = tmp_path / "r.json"
        code, out = run(
            capsys, "--report", str(rpt),
            "potential", "--triangulation", "torus", "--x", "1", "--n", "abc",
        )
        assert code == 2
        assert "ERROR: qpsurf potential: argument --n: invalid int value: 'abc'" in out
        assert "OUTCOME: ERROR" in out
        stored = json.loads(rpt.read_text())
        assert stored["outcome"] == "ERROR"
        assert stored["command"] == ["potential", "--triangulation", "torus",
                                     "--x", "1", "--n", "abc"]

    def test_missing_required_option(self, capsys):
        report = cli.run_command(["potential", "--x", "1"])
        assert report.outcome == "ERROR"
        assert "required: --triangulation" in report.details[0]

    def test_unknown_subcommand(self, capsys):
        code, out = run(capsys, "bogus")
        assert code == 2
        assert "invalid choice: 'bogus'" in out

    def test_bad_perturbation_names_the_option(self, capsys):
        code, out = run(capsys, "verify-flip", "--arc", "1", "--x", "1", "--perturb", "x")
        assert code == 2
        assert "ERROR: --perturb: not a rational number: 'x'" in out

    def test_help_still_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["potential", "--help"])
        assert exc.value.code == 0
        assert "--triangulation" in capsys.readouterr().out


_BAD_QP = {"quiver": {"vertices": 5, "arrows": []}, "potential": {"D": 3, "terms": []}}
_BAD_POTENTIAL = {"D": 12, "terms": [{"coeff": "1", "path": 5}]}


class TestMalformedInputFiles:
    """A JSON input file of the wrong shape ends in an ERROR naming the file."""

    @pytest.mark.parametrize("content, argv", [
        ({"arcs": 5, "triangles": []}, ["quiver", "--triangulation", "F"]),
        ({"arcs": [[1], 2, 3], "triangles": [[1, 2, 3], [1, 2, 3]]},
         ["quiver", "--triangulation", "F"]),
        (_BAD_QP, ["mutate", "--qp", "F", "--vertex", "1"]),
        (_BAD_QP, ["jacobian-dim", "--qp", "F"]),
        (_BAD_POTENTIAL, ["normalize", "--triangulation", "genus2p:1", "--potential", "F",
                          "--degree", "12"]),
        (_BAD_POTENTIAL, ["absorb", "--triangulation", "genus2p:1", "--x", "1",
                          "--potential", "F", "--degree", "12"]),
        ([1, 2], ["jacobian-dim", "--qp", "F"]),
        ([1, 2], ["normalize", "--triangulation", "genus2p:1", "--potential", "F",
                  "--degree", "12"]),
        ([1, 2], ["quiver", "--triangulation", "F"]),
    ], ids=["arcs-int", "arc-list", "mutate-qp", "jacobian-qp", "normalize-pot", "absorb-pot",
            "list-qp", "list-potential", "list-triangulation"])
    def test_wrong_shape_is_an_error(self, capsys, tmp_path, content, argv):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(content))
        out = _error_report(capsys, tmp_path, [str(f) if tok == "F" else tok for tok in argv])
        assert "ERROR: %s: malformed input: " % f in out

    @pytest.mark.parametrize("argv, message", [
        (["absorb", "--triangulation", "genus2p:1", "--x", "1", "--potential", "F",
          "--degree", "12"], "{f}: malformed input: missing 'D'"),
        (["jacobian-dim", "--qp", "F"], "{f}: malformed input: missing 'quiver'"),
        (["quiver", "--triangulation", "F"], "{f}: malformed input: missing 'arcs', 'triangles'"),
    ], ids=["potential", "qp", "triangulation"])
    def test_missing_key_is_named(self, capsys, tmp_path, argv, message):
        f = tmp_path / "input.json"
        f.write_text("{}")
        out = _error_report(capsys, tmp_path, [str(f) if tok == "F" else tok for tok in argv])
        assert "ERROR: %s\n" % message.format(f=f) in out

    @pytest.mark.parametrize("argv", [
        ["jacobian-dim", "--qp", "F"],
        ["mutate", "--qp", "F", "--vertex", "1"],
        ["absorb", "--triangulation", "genus2p:1", "--x", "1", "--potential", "F",
         "--degree", "12"],
        ["quiver", "--triangulation", "F"],
    ], ids=["qp", "mutate-qp", "potential", "triangulation"])
    def test_top_level_not_an_object_is_named(self, capsys, tmp_path, argv):
        f = tmp_path / "input.json"
        f.write_text("[1, 2]")
        out = _error_report(capsys, tmp_path, [str(f) if tok == "F" else tok for tok in argv])
        assert "ERROR: %s: malformed input: expected a JSON object\n" % f in out

    def test_float_coefficient_is_an_error(self, capsys, tmp_path, fig_tq):
        # a JSON number 0.1 is a binary float, not the rational 1/10
        cycle = list(fig_tq.triangle_cycle(0).arrows)
        f = tmp_path / "input.json"
        f.write_text(json.dumps({"D": 12, "terms": [{"coeff": 0.1, "path": cycle}]}))
        out = _error_report(capsys, tmp_path, [
            "normalize", "--triangulation", "genus2p:1", "--potential", str(f), "--degree", "12",
        ])
        assert "ERROR: %s: malformed input: float coefficient 0.1" % f in out


_SUBCOMMANDS = sorted(cli._HANDLERS)
_OPTION_VALUES = {
    "--triangulation": ["torus", "genus2p:1", "genus2p:0", "nope"],
    "--x": ["1", "-1/3", "3/2", "1/0", "0", "x", "1,2"],
    "--n": ["-1", "0", "1", "2", "two"],
    "--degree": ["-1", "0", "3", "6", "12", "d"],
    "--arc": ["0", "1", "3", "7", "a"],
    "--vertex": ["1", "9", "v"],
    "--perturb": ["1/7", "1/0", "z"],
    "--powers": ["p0:2=1", "p1:3=3", "p0:1", "p0:2=1/0", "q", ""],
    "--random": ["-1", "0", "1", "2"],
    "--seed": ["0", "5", "s"],
    "--max-length": ["0", "4", "8"],
    "--cycle": ["a1,b1,c1", "a1", ","],
    "--table": ["0", "1", "2"],
    "--qp": ["missing.json"],
    "--potential": ["missing.json"],
    "--recheck": ["missing.json"],
}
_JUNK = ["", "-", "--", "--bogus", "--certify", "torus", "genus2p", "1", "2",
         "load", "missing.json", "1/0", "\u00e9"]
# Subcommands whose default degree is too large for a quick draw.
_DEGREE_DEFAULTED = {"absorb", "normalize", "verify-flip"}

_option_pair = st.sampled_from(sorted(_OPTION_VALUES)).flatmap(
    lambda opt: st.sampled_from(_OPTION_VALUES[opt]).map(lambda v: [opt, v])
)
_token_runs = st.lists(
    st.one_of(_option_pair, st.sampled_from(_JUNK).map(lambda t: [t])), max_size=6
)


@st.composite
def _argvs(draw):
    argv = list(draw(st.sampled_from([[]] + [[s] for s in _SUBCOMMANDS])))
    for run_ in draw(_token_runs):
        argv.extend(run_)
    if argv and argv[0] in _DEGREE_DEFAULTED and "--degree" not in argv:
        argv += ["--degree", draw(st.sampled_from(["3", "6", "12"]))]
    return argv


class TestArgvFuzz:
    """Any command line over a small vocabulary ends in an exit code."""

    @settings(max_examples=120, deadline=None)
    @given(_argvs())
    def test_every_command_line_ends_in_a_verdict(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)


class TestReports:
    def test_report_then_recheck(self, capsys, tmp_path):
        rpt = tmp_path / "vf.json"
        code, _ = run(
            capsys, "--report", str(rpt), "verify-flip",
            "--arc", "1", "--x", "1", "--degree", "12",
        )
        assert code == 0
        stored = json.loads(rpt.read_text())
        assert stored["outcome"] == "PASS"
        assert stored["command"][0] == "verify-flip"

        code, out = run(capsys, "--recheck", str(rpt))
        assert code == 0
        assert "PASS outcome reproduced: PASS" in out
        assert "PASS witnesses reproduced bit for bit" in out

    def test_recheck_detects_tampering(self, capsys, tmp_path):
        rpt = tmp_path / "build.json"
        run(capsys, "--report", str(rpt), "build", "torus")
        stored = json.loads(rpt.read_text())
        stored["witnesses"]["valencies"]["p0"] = 7
        rpt.write_text(json.dumps(stored))
        code, out = run(capsys, "--recheck", str(rpt))
        assert code == 1
        assert "FAIL witnesses diverge at: valencies" in out

    def test_recheck_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, "--recheck", str(tmp_path / "gone.json"))
        assert code == 2

    @pytest.mark.parametrize("stored", [
        [1],
        {"command": 5, "outcome": "PASS"},
        {"command": ["build", "torus"], "outcome": "MAYBE"},
        {"command": ["build", "torus"], "outcome": "PASS", "witnesses": None},
    ])
    def test_recheck_of_a_malformed_report_is_an_error(self, capsys, tmp_path, stored):
        rpt = tmp_path / "bad.json"
        rpt.write_text(json.dumps(stored))
        code, out = run(capsys, "--recheck", str(rpt))
        assert code == 2
        assert "ERROR: not a run report" in out


def _spelled(joined, option, value):
    return [option + "=" + value] if joined else [option, value]


class TestInputDigests:
    @pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
    def test_every_named_file_is_digested(self, tmp_path, torus_tq, fig_tq, joined):
        tri = tmp_path / "tri.json"
        tri.write_text(json.dumps(once_punctured_torus().to_json_dict()))
        qp = tmp_path / "qp.json"
        qp.write_text(json.dumps(QP(torus_tq.quiver, potential_S(torus_tq, 1, 12)).to_json_dict()))
        u = tmp_path / "u.json"
        u.write_text(json.dumps(
            cli.random_cycle_potential(fig_tq, 12, random.Random(0)).to_json_dict()
        ))
        runs = [
            (["quiver"] + _spelled(joined, "--triangulation", str(tri)), tri),
            (["mutate", "--vertex", "1"] + _spelled(joined, "--qp", str(qp)), qp),
            (["normalize", "--triangulation", "genus2p:1", "--degree", "12"]
             + _spelled(joined, "--potential", str(u)), u),
            (["build", "load", str(tri)], tri),
        ]
        for argv, path in runs:
            report = cli.run_command(argv)
            assert report.outcome == "PASS", report.details
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert report.inputs["files"] == {str(path): digest}

    def test_built_in_specs_are_not_files(self):
        for argv in (["quiver", "--triangulation=torus"], ["build", "load", "genus2p:1"]):
            assert cli.run_command(argv).inputs == {"argv": argv}


class TestSeededPotentials:
    def test_reproducible(self, fig_tq):
        a = cli.random_cycle_potential(fig_tq, 16, random.Random(7))
        b = cli.random_cycle_potential(fig_tq, 16, random.Random(7))
        assert a == b

    def test_shape(self, fig_tq):
        for seed in range(20):
            pot = cli.random_cycle_potential(fig_tq, 16, random.Random(seed))
            assert 1 <= len(pot.terms) <= 3
            for p, c in pot.terms.items():
                assert 4 <= len(p.arrows) <= 6
                assert c != 0

    def test_draws_no_term_beyond_the_degree(self, fig_tq):
        for seed in range(20):
            pot = cli.random_cycle_potential(fig_tq, 5, random.Random(seed))
            assert pot.terms
            assert all(4 <= len(p.arrows) <= 5 for p in pot.terms)
