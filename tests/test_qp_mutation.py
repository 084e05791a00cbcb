"""Premutation, reduction, mutation, and the flip-compatibility check.

The torus at n = 1 is small enough to freeze the whole premutated quiver
by hand, which pins down the naming conventions (composites "[ba]",
reversed arrows "a*") as well as the arithmetic.
"""

import dataclasses
import json
import pathlib
import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qpsurf import qp_mutation
from qpsurf.cli import random_cycle_potential
from qpsurf.endo import REndomorphism, compose_all
from qpsurf.path_algebra import (
    Path,
    Potential,
    Quiver,
    TruncatedElement,
    is_cyclically_equivalent,
)
from qpsurf.qp_mutation import (
    QP,
    is_two_acyclic,
    mutate,
    premutate,
    reduce,
    verify_flip_compatibility,
)
from qpsurf.surface import (
    build_quiver,
    flip,
    once_punctured_torus,
    potential_S,
    twice_punctured_genus,
)


GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"
GOLDEN_QP = GOLDEN_INPUTS / "qp_genus2p1_d12.json"


def torus_qp(x=1, n=1, degree=None):
    tq = build_quiver(once_punctured_torus())
    return QP(tq.quiver, potential_S(tq, x, degree, n=n))


class TestTwoAcyclic:
    def test_detects_two_cycles(self):
        good = Quiver(["u", "v"], [("x", "u", "v")])
        bad = Quiver(["u", "v"], [("x", "u", "v"), ("y", "v", "u")])
        loop = Quiver(["u"], [("z", "u", "u")])
        assert is_two_acyclic(good)
        assert not is_two_acyclic(bad)
        assert is_two_acyclic(loop)  # loops are not 2-cycles


class TestPremutate:
    def test_torus_arrow_inventory(self):
        pre = premutate(torus_qp(), 1)
        got = {(a.name, a.tail, a.head) for a in pre.quiver.arrows}
        assert got == {
            ("b1", 2, 3), ("b2", 2, 3),
            ("[a1c1]", 3, 2), ("[a1c2]", 3, 2), ("[a2c1]", 3, 2), ("[a2c2]", 3, 2),
            ("c1*", 1, 3), ("c2*", 1, 3), ("a1*", 2, 1), ("a2*", 2, 1),
        }
        assert not is_two_acyclic(pre.quiver)

    def test_torus_potential_terms(self):
        x = Fraction(2)
        pre = premutate(torus_qp(x=x), 1)
        q = pre.quiver
        pot = pre.potential
        # triangle terms collapse to 2-cycles through the composites
        assert pot.coefficient(q.path(("b1", "[a1c1]"))) == 1
        assert pot.coefficient(q.path(("b2", "[a2c2]"))) == 1
        # the puncture cycle shortens to a length-4 cycle
        assert pot.coefficient(q.path(("b1", "[a2c1]", "b2", "[a1c2]"))) == x
        # one cubic star term per composite
        for a_star, c_star, comp in (
            ("a1*", "c1*", "[a1c1]"), ("a1*", "c2*", "[a1c2]"),
            ("a2*", "c1*", "[a2c1]"), ("a2*", "c2*", "[a2c2]"),
        ):
            assert pot.coefficient(q.path((c_star, a_star, comp))) == 1
        assert len(pot.terms) == 7

    def test_loop_at_vertex_rejected(self):
        q = Quiver(["u", "v"], [("z", "u", "u"), ("x", "u", "v"), ("y", "v", "u")])
        pot = Potential(q, 8, {q.path(("z", "z")): 1})
        with pytest.raises(ValueError, match="loop"):
            premutate(QP(q, pot), "u")

    def test_two_cycle_through_vertex_rejected(self):
        q = Quiver(["u", "v"], [("x", "u", "v"), ("y", "v", "u")])
        qp = QP(q, Potential.zero(q, 8))
        with pytest.raises(ValueError, match="2-cycle"):
            premutate(qp, "v")

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            premutate(torus_qp(), 9)


class TestReduce:
    def test_torus_premutation_reduces_to_markov_shape(self):
        pre = premutate(torus_qp(), 1)
        red, witness = reduce(pre)
        assert witness.pairs == (("b1", "[a1c1]"), ("b2", "[a2c2]"))
        assert witness.removed == ("b1", "b2", "[a1c1]", "[a2c2]")
        assert witness.recheck(pre)
        assert is_two_acyclic(red.quiver)
        got = {(a.name, a.tail, a.head) for a in red.quiver.arrows}
        assert got == {
            ("[a1c2]", 3, 2), ("[a2c1]", 3, 2),
            ("c1*", 1, 3), ("c2*", 1, 3), ("a1*", 2, 1), ("a2*", 2, 1),
        }

    def test_trivial_part_has_unit_coefficients(self):
        pre = premutate(torus_qp(x=Fraction(-1, 3)), 2)
        red, witness = reduce(pre)
        for w0, w1 in witness.pairs:
            assert witness.trivial.coefficient(pre.quiver.path((w0, w1))) == 1
        assert witness.recheck(pre)
        total = witness.trivial + witness.embedded_reduced
        got = pre.potential
        for phi in witness.factors:
            got = phi.apply(got)
        assert is_cyclically_equivalent(got, total)

    def test_already_reduced_is_untouched(self):
        qp = torus_qp()
        red, witness = reduce(qp)
        assert witness.pairs == ()
        assert witness.factors == ()
        assert red.quiver == qp.quiver
        assert red.potential == qp.potential

    def test_square_of_loop_is_not_splittable(self):
        q = Quiver(["u"], [("z", "u", "u")])
        qp = QP(q, Potential(q, 6, {q.path(("z", "z")): 1}))
        with pytest.raises(ValueError, match="square of loop"):
            reduce(qp)

    def test_repeated_arrow_class_is_not_splittable(self):
        q = Quiver(
            ["u", "v", "w"],
            [("x", "u", "v"), ("y", "v", "u"), ("z", "w", "w")],
        )
        pot = Potential(q, 6, {q.path(("x", "y")): 1, q.path(("z", "z")): 1})
        with pytest.raises(ValueError, match="repeated-arrow class"):
            reduce(QP(q, pot))


    def test_repeated_pair_is_removed_once_per_round(self):
        # (x·y)² holds the pair four times: each round removes it once, so
        # x·y + (x·y)² reduces to x·y alone rather than alternating in sign
        q = Quiver(["u", "v"], [("x", "u", "v"), ("y", "v", "u")])
        xy = q.path(("x", "y"))
        pot = Potential(q, 12, {xy: 1, q.path(("x", "y", "x", "y")): 1})
        red, witness = reduce(QP(q, pot))
        assert witness.pairs == (("x", "y"),)
        assert witness.trivial == Potential(q, 12, {xy: 1})
        assert witness.embedded_reduced.is_zero and red.potential.is_zero
        assert witness.recheck(QP(q, pot))

    def test_a_paired_arrow_left_behind_is_named(self, monkeypatch):
        # without the elimination rounds the torus premutation keeps its
        # puncture term b1·[a2c1]·b2·[a1c2] through both pairs
        honest = qp_mutation._pair_rules

        def clean_up_only(rest, w0, w1):
            if all(len(p) == 2 for p in rest.terms):
                return honest(rest, w0, w1)
            return {}

        monkeypatch.setattr(qp_mutation, "_pair_rules", clean_up_only)
        with pytest.raises(RuntimeError, match=r"term through a paired arrow: Path\(b1 "):
            reduce(premutate(torus_qp(), 1))

    @pytest.mark.parametrize("linked", [False, True], ids=["rescaled", "cross-linked"])
    def test_many_two_cycles_at_a_low_degree_reduce(self, linked):
        # the clean-up is bounded by its quadratic candidates alone: 31
        # 2-cycles at D = 3, each rescaled, or each linked to the next by
        # xi·y(i+1) so that its pair rules clean a row too, all reduce
        m, d = 31, 3
        q = Quiver(["u", "v"], [("x%d" % i, "u", "v") for i in range(m)]
                   + [("y%d" % i, "v", "u") for i in range(m)])
        terms = {q.path(("x%d" % i, "y%d" % i)): 2 for i in range(m)}
        if linked:
            terms.update({q.path(("x%d" % i, "y%d" % (i + 1))): 1 for i in range(m - 1)})
        red, witness = reduce(QP(q, Potential(q, d, terms)))
        assert len(witness.pairs) == m
        assert len(witness.factors) == (2 * m - 1 if linked else m)
        assert not red.quiver.arrows and red.potential.is_zero
        assert witness.recheck(QP(q, Potential(q, d, terms)))


@pytest.mark.parametrize("name", ["qp_genus2p1_d12.json", "qp_torus_n2_d18.json"])
def test_each_factor_is_applied_once(applied, name):
    # reduce applies its chain once and checks its contract on that image
    qp = QP.from_json_dict(json.loads((GOLDEN_INPUTS / name).read_text()))
    _, witness = mutate(qp, 1)
    assert witness.reduction.factors
    assert [id(phi) for phi in applied] == [id(phi) for phi in witness.reduction.factors]


class TestReductionChain:
    """The reduction witness is its factor chain; a broken chain fails both rechecks."""

    @pytest.fixture
    def mutated(self):
        qp = QP.from_json_dict(json.loads(GOLDEN_QP.read_text()))
        red, witness = mutate(qp, 1)
        assert len(witness.reduction.factors) == 2
        assert witness.recheck(qp, 1)
        assert witness.reduction.recheck(witness.premutated)
        return qp, witness

    @staticmethod
    def with_factors(witness, factors):
        reduction = dataclasses.replace(witness.reduction, factors=tuple(factors))
        return dataclasses.replace(witness, reduction=reduction)

    @pytest.mark.parametrize("i", [0, 1])
    def test_dropping_a_factor_fails(self, mutated, i):
        qp, witness = mutated
        factors = list(witness.reduction.factors)
        del factors[i]
        broken = self.with_factors(witness, factors)
        assert not broken.reduction.recheck(witness.premutated)
        assert not broken.recheck(qp, 1)

    @pytest.mark.parametrize("i", [0, 1])
    def test_doubling_a_correction_fails(self, mutated, i):
        qp, witness = mutated
        factors = list(witness.reduction.factors)
        phi = factors[i]
        factors[i] = REndomorphism(phi.quiver, phi.degree, {
            name: img + img - TruncatedElement.from_arrow(phi.quiver, phi.degree, name)
            for name, img in phi.rules.items()
        })
        broken = self.with_factors(witness, factors)
        assert not broken.reduction.recheck(witness.premutated)
        assert not broken.recheck(qp, 1)


class TestMutate:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_torus_mutation_lands_on_markov_shape(self, k):
        qp = torus_qp()
        red, witness = mutate(qp, k)
        assert witness.recheck(qp, k)
        assert is_two_acyclic(red.quiver)
        # still two arrows between each pair of vertices, one 3-cycle flow
        shape = sorted((a.tail, a.head) for a in red.quiver.arrows)
        assert len(shape) == 6
        assert all(shape.count(e) == 2 for e in set(shape))

    def test_double_mutation_restores_the_torus_quiver(self):
        qp = torus_qp(degree=12)
        for k in (1, 2, 3):
            once, _ = mutate(qp, k)
            twice, _ = mutate(once, k)
            assert twice.quiver.vertices == qp.quiver.vertices
            assert sorted((a.tail, a.head) for a in twice.quiver.arrows) == (
                sorted((a.tail, a.head) for a in qp.quiver.arrows)
            )

    def test_double_mutation_restores_the_family_quiver(self, fig_tq):
        pot = potential_S(fig_tq, (1, 1), 12)
        qp = QP(fig_tq.quiver, pot)
        for k in (1, 4):
            once, _ = mutate(qp, k)
            twice, _ = mutate(once, k)
            assert sorted((a.tail, a.head) for a in twice.quiver.arrows) == (
                sorted((a.tail, a.head) for a in qp.quiver.arrows)
            )

    def test_witness_exposes_the_premutated_stage(self):
        qp = torus_qp()
        red, witness = mutate(qp, 2)
        assert not is_two_acyclic(witness.premutated.quiver)
        assert witness.reduction.recheck(witness.premutated)


SURFACES = {"torus": (once_punctured_torus, Fraction(-1, 3)),
            "genus2p:1": (lambda: twice_punctured_genus(1), (Fraction(-1, 3), 2))}


class TestMutateHigherPowers:
    """Generic mutation of S(τ, x, n) for n ≥ 2, where a term can hold a
    paired arrow more than once: the elimination stabilizes, the result is
    2-acyclic and the witness rechecks."""

    @pytest.mark.parametrize("spec, degree, k", [
        *(("torus", 18, k) for k in (1, 2, 3)),
        *(("genus2p:1", 22, k) for k in range(1, 7)),
    ])
    def test_n2_mutation_is_reduced_and_rechecks(self, spec, degree, k):
        surface, x = SURFACES[spec]
        tq = build_quiver(surface())
        qp = QP(tq.quiver, potential_S(tq, x, degree, n=2))
        red, witness = mutate(qp, k)
        assert is_two_acyclic(red.quiver)
        assert len(witness.reduction.pairs) == 2
        assert witness.recheck(qp, k)
        reduction = witness.reduction
        assert oracles.apply_in_turn(reduction.factors, witness.premutated.potential) == (
            oracles.element_words(reduction.trivial + reduction.embedded_reduced)
        )
        # a correction has length ≤ D − 1, so no factor reaches depth D
        assert max(phi.depth() for phi in reduction.factors) <= degree - 2

    @settings(max_examples=25, deadline=timedelta(seconds=60), derandomize=True)
    @given(
        spec=st.sampled_from(sorted(SURFACES)),
        n=st.sampled_from([1, 2]),
        extra=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        pick=st.integers(0, 5),
    )
    def test_random_extra_terms_reduce_and_recheck(self, spec, n, extra, seed, pick):
        surface, x = SURFACES[spec]
        tau = surface()
        tq = build_quiver(tau)
        degree = n * max(p.valency for p in tq.punctures) + 6
        pot = potential_S(tq, x, degree, n=n)
        if extra:
            pot = pot + random_cycle_potential(tq, degree, random.Random(seed))
        k = tau.arcs[pick % len(tau.arcs)]
        qp = QP(tq.quiver, pot)
        red, witness = mutate(qp, k)
        assert witness.recheck(qp, k)


class TestFlipRouteAgainstGenericRoute:
    """The φ chain of ``verify_flip_compatibility`` and generic ``mutate``
    reach the same potential: renamed by the report's forced arc matching,
    the generic result is the flipped potential exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("x", [Fraction(-1, 3), Fraction(2)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_renamed_generic_mutation_is_the_flipped_potential(self, torus_tq, k, x, n):
        report = verify_flip_compatibility(torus_tq.tau, k, x, n)
        assert report.ok
        red, _ = mutate(QP(torus_tq.quiver, potential_S(torus_tq, x, n=n)), k)
        q = report.expected.quiver
        assert {(report.renaming[a.name], a.tail, a.head) for a in red.quiver.arrows} == {
            (a.name, a.tail, a.head) for a in q.arrows}
        renamed = Potential(q, red.degree, {
            q.path(tuple(report.renaming[nm] for nm in p.arrows)): z
            for p, z in red.potential.terms.items()
        })
        assert renamed == report.expected


class TestQPSerialization:
    def test_round_trip(self):
        qp = torus_qp(x=Fraction(5, 3))
        assert QP.from_json_dict(qp.to_json_dict()) == qp

    def test_mismatched_quiver_rejected(self, fig_tq, torus_tq):
        pot = potential_S(fig_tq, (1, 1))
        with pytest.raises(ValueError):
            QP(torus_tq.quiver, pot)


class TestFlipCompatibility:
    def test_torus_arc_passes(self):
        tau = once_punctured_torus()
        report = verify_flip_compatibility(tau, 1, Fraction(1), 1, 18)
        assert report.ok
        assert all(ok for _, ok, _ in report.checks)
        assert report.first_difference is None
        assert report.transported == report.expected
        for line in report.summary_lines():
            assert line.startswith("PASS")

    def test_fractional_coefficient_passes(self):
        tau = once_punctured_torus()
        report = verify_flip_compatibility(tau, 2, Fraction(-1, 3), 1, 18)
        assert report.ok

    def test_symmetric_from_the_flipped_side(self):
        tau = flip(once_punctured_torus(), 3)
        report = verify_flip_compatibility(tau, 3, Fraction(1), 1, 18)
        assert report.ok

    def test_two_punctures_are_rejected(self):
        with pytest.raises(ValueError, match="needs exactly one puncture; quiver has 2"):
            verify_flip_compatibility(twice_punctured_genus(1), 1, 1, 1)

    def test_perturbed_expectation_fails(self):
        tau = once_punctured_torus()
        report = verify_flip_compatibility(tau, 1, Fraction(1), 1, 18, perturb=Fraction(1, 7))
        assert not report.ok
        assert report.first_difference is not None
        assert any(not ok for _, ok, _ in report.checks)


class TestFlipWitness:
    """The report's factors φ1, …, φ4, applied in turn, carry the premutated
    potential to what the reduction consumed, and so does their composite,
    which the check itself never builds."""

    @pytest.mark.parametrize("x", [Fraction(1), Fraction(-1, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_composite_witness_rechecks(self, n, x):
        tau = once_punctured_torus()
        for arc in (1, 2, 3):
            report = verify_flip_compatibility(tau, arc, x, n)
            assert report.ok
            assert report.degree == 12 * n + 6
            pre = report.premutated
            assert [f.quiver for f in report.factors] == [pre.quiver] * 4
            pot = pre.potential
            for factor in report.factors:
                pot = factor.apply(pot)
            assert report.reduction.recheck(QP(pre.quiver, pot))
            phi = compose_all(report.factors, pre.quiver, report.degree)
            assert phi.apply(pre.potential) == pot
