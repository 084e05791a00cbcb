"""Truncated Jacobian quotients: generators, dimensions, certificates,
reduction access.  The whole engine is checked against a brute-force
row-elimination oracle at small degrees, and the standard dimensions are
pinned by the golden file."""

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qpsurf.jacobian import (
    TruncatedQuotient,
    _Kills,
    _PathIndex,
    _rank_modulo,
    _residue,
    _Shifts,
    g_path_independence_check,
    jacobian_generators,
    quotient_dimension,
)
from qpsurf.path_algebra import Path, Potential, Quiver, TruncatedElement
from qpsurf.qp_mutation import QP
from qpsurf.surface import (
    build_quiver,
    flip,
    once_punctured_torus,
    potential_S,
    potential_T,
    twice_punctured_genus,
)
from test_surface import flip_walk

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "jacobian_dims.json").read_text())
# S(τ, (1, 1)) on the two-puncture family genus2p:G, G = 1, 2, 3
GOLDEN_2P = json.loads((GOLDEN_DIR / "jacobian_genus2p.json").read_text())
# Per golden entry above, and per benchmark torus case (n = 4, 5 at
# D = 6n + 6): sha256 of the sorted pivot leads, rows installed and pivots
# per length, so that a change to how the window is built must span the
# same window with the same work, not merely count the same dimensions.  A
# separate file: the benchmark compares the torus entries of
# jacobian_dims.json key by key with its witnesses.
WORK = json.loads((GOLDEN_DIR / "jacobian_leads.json").read_text())

TWO_LOOPS = Quiver(["u"], [("l", "u", "u"), ("m", "u", "u")])


def torus_qp(tq, n, degree):
    return QP(tq.quiver, potential_S(tq, 1, degree, n=n))


def assert_pinned_work(quo, pinned):
    leads = hashlib.sha256(json.dumps(sorted(quo._pivots)).encode()).hexdigest()
    assert leads == pinned["leads"]
    assert quo.rows == pinned["rows"]
    assert list(quo.pivots_per_length) == pinned["pivots_per_length"]


class TestGenerators:
    def test_torus_shape(self, torus_tq):
        x = Fraction(3, 2)
        qp = QP(torus_tq.quiver, potential_S(torus_tq, x, 12))
        gens = jacobian_generators(qp)
        assert len(gens) == 6
        q = torus_tq.quiver
        for a, gen in zip(q.arrows, gens):
            corner = Path((torus_tq.f_of(a.name, 2), torus_tq.f_of(a.name)))
            tail = torus_tq.g_path(5, torus_tq.g[a.name])
            assert gen == TruncatedElement.from_path(q, 11, corner) + (
                TruncatedElement.from_path(q, 11, tail, x)
            )

    def test_family_hub_generator(self, fig_tq):
        xq = Fraction(7)
        qp = QP(fig_tq.quiver, potential_S(fig_tq, (1, xq), 22))
        gens = jacobian_generators(qp)
        by_name = dict(zip((a.name for a in fig_tq.quiver.arrows), gens))
        gen = by_name["a1"]
        lengths = sorted(len(p.arrows) for p in gen.terms)
        assert lengths == [2, 3]  # triangle corner + short hub g-path
        assert gen.coefficient(Path(("a2", "a3", "a4"))) == xq

    def test_matches_cyclic_derivatives_orderwise(self, torus_tq):
        qp = torus_qp(torus_tq, 1, 12)
        gens = jacobian_generators(qp)
        from qpsurf.path_algebra import cyclic_derivative

        for a, gen in zip(torus_tq.quiver.arrows, gens):
            assert gen == cyclic_derivative(qp.potential, a.name)


class TestPathIndex:
    @pytest.mark.parametrize(
        "fixture,bound", [("torus_tq", 9), ("fig_tq", 8), ("fig_g2_tq", 6)]
    )
    def test_matches_brute_force_order(self, request, fixture, bound):
        q = request.getfixturevalue(fixture).quiver
        index = _PathIndex(q, bound)
        want = oracles.graded_lex_paths(q, bound)
        assert index.offsets[-1] == len(want)
        for i, p in enumerate(want):
            assert index.unrank(i) == p
            assert index.pid(p.arrows, p.at) == i
            assert index.length_of(i) == len(p.arrows)
        with pytest.raises(IndexError):
            index.unrank(index.offsets[bound + 1])
        with pytest.raises(IndexError):
            index.unrank(-1)


SHIFT_SURFACES = {
    "torus": once_punctured_torus,
    "genus2p:1": lambda: twice_punctured_genus(1),
    "genus2p:2": lambda: twice_punctured_genus(2),
}


class TestShifts:
    """Shifted paths are ranked and kill-tested from the path they shift."""

    @settings(max_examples=40, deadline=None)
    @given(
        surface=st.sampled_from(sorted(SHIFT_SURFACES)),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(0, 4),
        length=st.integers(0, 24),
    )
    def test_match_ranking_and_kill_rules(self, surface, seed, steps, length):
        rng = random.Random(seed)
        tau = SHIFT_SURFACES[surface]()
        for _, _, tau in flip_walk(tau, rng, steps):
            pass
        tq = build_quiver(tau)
        q = tq.quiver
        # the lowest admissible degree: generators are at most m − 1 long
        degree = max(p.valency for p in tq.punctures) + 1
        quo, _ = quotient_dimension(QP(q, potential_S(tq, 1, degree)), degree)
        index, kills = quo._index, quo._kills
        assert kills.rules
        # a random path of length < degree, grown on the right
        length = min(length, degree - 1)
        at = rng.choice(q.vertices)
        word = (rng.choice(q.arrows).name,) if length else ()
        while len(word) < length:
            word += (rng.choice(q.arrows_in[q.tail(word[-1])]).name,)
        shifts = _Shifts(index, kills)
        pid = shifts.add(word, at)
        assert pid == index.pid(word, at)
        head = q.head(word[0]) if word else at
        tail = q.tail(word[-1]) if word else at
        shifted = [((b.name,) + word, shifts.left, b.name) for b in q.arrows_out[head]]
        shifted += [(word + (b.name,), shifts.right, b.name) for b in q.arrows_in[tail]]
        for longer, shift, b in shifted:
            [new] = shift([(pid, 7)], b)
            assert shift([(pid, 1)], b) == {new: 1}  # found again, recorded or memoised
            assert new == index.pid(longer)
            assert shifts.state[new][1] == kills.threshold(longer)
            assert kills.memo[new] == kills.killed_word(longer)
            assert kills.memo[new] == oracles.killed_by_rules(longer, kills.rules)


class TestGoldenDimensions:
    @pytest.mark.parametrize("key", ["n=1", "n=2", "n=3"])
    def test_standard_weighted_cycles(self, torus_tq, key):
        entry = GOLDEN[key]
        n = int(key.split("=")[1])
        qp = torus_qp(torus_tq, n, entry["degree"])
        quo, certified = quotient_dimension(qp, entry["degree"])
        assert certified
        assert quo.dimension == entry["dimension"]
        assert quo.certificate_length == entry["certificate_length"]
        assert list(quo.per_degree) == entry["per_degree"]
        assert_pinned_work(quo, WORK["torus"][key])
        assert sum(quo.pivots_per_length) == len(quo._pivots) <= quo.rows

    @pytest.mark.parametrize("n", [4, 5])
    def test_benchmark_torus_cases(self, torus_tq, n):
        degree = 6 * n + 6
        quo, certified = quotient_dimension(torus_qp(torus_tq, n, degree), degree)
        assert certified
        assert (quo.dimension, quo.certificate_length) == (36 * n, 6 * n - 1)
        assert_pinned_work(quo, WORK["torus"]["n=%d" % n])

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_two_puncture_family(self, genus):
        entry = GOLDEN_2P["g=%d" % genus]
        tq = build_quiver(twice_punctured_genus(genus))
        qp = QP(tq.quiver, potential_S(tq, (1, 1), entry["degree"]))
        quo, certified = quotient_dimension(qp, entry["degree"])
        assert certified
        assert quo.dimension == entry["dimension"]
        assert quo.certificate_length == entry["certificate_length"]
        assert list(quo.per_degree) == entry["per_degree"]
        assert_pinned_work(quo, WORK["genus2p"]["g=%d" % genus])

    def test_lower_bound_and_strict_growth(self, torus_tq):
        dims = {}
        for n in (1, 2):
            entry = GOLDEN["n=%d" % n]
            dims[n] = entry["dimension"]
            assert dims[n] >= 6 * n - 2
        assert dims[2] > dims[1]


class TestAgainstBruteForce:
    def test_torus_small_degree(self, torus_tq):
        qp = torus_qp(torus_tq, 1, 12)
        quo, certified = quotient_dimension(qp, 8)
        want = oracles.brute_quotient_dims(
            torus_tq.quiver, qp.potential, 8, jacobian_generators(qp)
        )
        assert certified
        assert list(quo.per_degree) == want

    def test_family_small_degree(self, fig_tq):
        qp = QP(fig_tq.quiver, potential_S(fig_tq, (1, 1), 22))
        quo, certified = quotient_dimension(qp, 9)
        want = oracles.brute_quotient_dims(
            fig_tq.quiver, qp.potential, 9, jacobian_generators(qp)
        )
        assert certified
        assert list(quo.per_degree) == want

    def test_fractional_coefficients(self, torus_tq):
        qp = QP(torus_tq.quiver, potential_S(torus_tq, Fraction(-1, 3), 12))
        quo, _ = quotient_dimension(qp, 8)
        want = oracles.brute_quotient_dims(
            torus_tq.quiver, qp.potential, 8, jacobian_generators(qp)
        )
        assert list(quo.per_degree) == want

    @pytest.mark.parametrize(
        "terms,dims",
        [
            # ∂_l W = e_u: a row whose lead is a lazy path
            ({("l",): 1, ("m", "m", "m"): 1}, [0] * 9),
            ({("l", "m"): 1, ("l", "l", "l"): 1}, [1] + [0] * 8),
        ],
    )
    def test_two_loops(self, terms, dims):
        pot = Potential(TWO_LOOPS, 8, {Path(w): c for w, c in terms.items()})
        qp = QP(TWO_LOOPS, pot)
        quo, certified = quotient_dimension(qp, 8)
        assert certified
        assert list(quo.per_degree) == dims
        assert oracles.brute_quotient_dims(TWO_LOOPS, pot, 8, jacobian_generators(qp)) == dims

    @settings(max_examples=100, deadline=None)
    @given(
        which=st.sampled_from(["fig", "torus", "two loops"]),
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(4, 7),
    )
    def test_random_potentials(self, fig_tq, torus_tq, which, seed, degree):
        q = {"fig": fig_tq.quiver, "torus": torus_tq.quiver, "two loops": TWO_LOOPS}[which]
        # cycles shorter than the degree keep generators within the degree − 2 bound
        pot = oracles.random_potential(q, degree, random.Random(seed), max_len=degree - 1)
        qp = QP(q, pot)
        quo, certified = quotient_dimension(qp, degree)
        want = oracles.brute_quotient_dims(q, pot, degree, jacobian_generators(qp))
        upto = quo.certificate_length if certified else degree + 1
        assert list(quo.per_degree[:upto]) == want[:upto]


class TestCertificate:
    def test_monotone_under_degree_increase(self, torus_tq):
        qp = torus_qp(torus_tq, 1, 14)
        a, _ = quotient_dimension(qp, 12)
        b, _ = quotient_dimension(qp, 13)
        c, _ = quotient_dimension(qp, 14)
        assert a.certified and b.certified and c.certified
        assert (a.dimension, a.certificate_length) == (36, 5)
        assert a.dimension == b.dimension == c.dimension
        assert a.certificate_length == b.certificate_length == c.certificate_length
        assert list(a.per_degree) == list(b.per_degree)[:13]
        assert list(b.per_degree) == list(c.per_degree)[:14]

    def test_family_stable_at_two_higher_degrees(self, fig_tq):
        for d in (13, 14, 15):
            qp = QP(fig_tq.quiver, potential_S(fig_tq, (1, Fraction(-1, 3)), d))
            quo, certified = quotient_dimension(qp, d)
            assert certified
            assert (quo.dimension, quo.certificate_length) == (80, 7)

    def test_zero_potential_on_an_acyclic_quiver(self):
        q = Quiver(["u", "v"], [("x", "u", "v")])
        qp = QP(q, Potential.zero(q, 6))
        quo, certified = quotient_dimension(qp, 4)
        assert certified
        assert quo.dimension == 3  # two lazy paths and the arrow itself
        assert quo.certificate_length == 2
        assert list(quo.per_degree) == [2, 1, 0, 0, 0]

    def test_zero_potential_on_a_cyclic_quiver_never_certifies(self, torus_tq):
        q = torus_tq.quiver
        qp = QP(q, Potential.zero(q, 8))
        quo, certified = quotient_dimension(qp, 6)
        assert not certified
        assert quo.certificate_length is None
        # nothing is killed: every path survives the window
        assert list(quo.per_degree) == [3] + [3 * 2 ** l for l in range(1, 7)]

    def test_degree_guards(self, torus_tq):
        qp = torus_qp(torus_tq, 1, 12)
        with pytest.raises(ValueError, match="truncated at"):
            quotient_dimension(qp, 13)
        with pytest.raises(ValueError, match="below max generator"):
            quotient_dimension(qp, 6)


def walked_qp(spec, x, n, flips=0, seed=0, above=7):
    """QP(S(τ, x, n)) after a seeded flip walk from a built-in surface,
    truncated at L + ``above``, L = n·m − 1 the largest generator length (m
    the largest valency); ``jacobian-dim`` truncates at the potential's
    default degree, 2·n·m + 6."""
    tau = SHIFT_SURFACES[spec]()
    for _, _, tau in flip_walk(tau, random.Random(seed), flips):
        pass
    tq = build_quiver(tau)
    L = n * max(p.valency for p in tq.punctures) - 1
    return QP(tq.quiver, potential_S(tq, x, L + above, n=n))


class TestLowestCertifyingDegree:
    """Without a degree, the first of L + 2, L + 3, … up to the potential's
    own degree that certifies is the one returned."""

    @pytest.mark.parametrize(
        "spec,x,n,degree,dimension",
        [
            ("torus", 1, 1, 7, 36),
            ("torus", 1, 3, 19, 108),
            ("genus2p:1", (1, 1), 1, 9, 80),
            ("genus2p:1", (1, 1), 2, 17, 160),
            ("genus2p:2", (1, 1), 1, 17, 320),
        ],
    )
    def test_matches_the_cli_cases(self, spec, x, n, degree, dimension):
        quo, certified = quotient_dimension(walked_qp(spec, x, n))
        assert certified and quo.certified
        assert (quo.degree, quo.dimension) == (degree, dimension)
        assert quo.degree == quo.max_generator_length + 2

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from([("torus", 1), ("torus", 2), ("torus", 3), ("genus2p:1", 1)]),
        flips=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        x=st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(3, 2)]),
    )
    def test_agrees_with_two_higher_degrees(self, case, flips, seed, x):
        spec, n = case
        x = x if spec == "torus" else (x, 1)
        qp = walked_qp(spec, x, n, flips, seed, above=4)
        low, certified = quotient_dimension(qp)
        assert certified
        assert low.degree + 2 <= qp.degree == low.max_generator_length + 4
        for d in (low.degree + 1, low.degree + 2):
            quo, certified = quotient_dimension(qp, d)
            assert certified
            assert (quo.dimension, quo.certificate_length, quo.max_generator_length) == (
                low.dimension, low.certificate_length, low.max_generator_length)

    def test_never_certifying_returns_the_potentials_degree(self, torus_tq):
        q = torus_tq.quiver
        quo, certified = quotient_dimension(QP(q, Potential.zero(q, 8)))
        assert not certified and not quo.certified
        assert quo.degree == 8
        assert list(quo.per_degree) == [3] + [3 * 2 ** l for l in range(1, 9)]

    def test_a_potential_truncated_below_L_plus_2_is_an_error(self, torus_tq):
        # L = 5 for n = 1; the one degree left to try is the potential's own
        with pytest.raises(ValueError, match="below max generator"):
            quotient_dimension(torus_qp(torus_tq, 1, 6))


class TestKills:
    @pytest.mark.parametrize("spec,x,above", [("torus", 1, 7), ("genus2p:1", (1, 1), 2)])
    def test_counts_match_brute_force(self, spec, x, above):
        # torus n = 1 at D = 12; genus2p:1 at its lowest admissible degree, L + 2
        qp = walked_qp(spec, x, 1, above=above)
        quo, _ = quotient_dimension(qp, qp.degree)
        kills, q = quo._kills, qp.quiver
        assert kills.rules
        want = [0] * (qp.degree + 1)
        for p in oracles.graded_lex_paths(q, qp.degree):
            want[len(p.arrows)] += oracles.killed_by_rules(p.arrows, kills.rules)
        assert kills.counts(q, quo._index.totals, qp.degree) == want
        assert any(want)

    def test_memo_holds_only_true_kill_states(self, torus_tq):
        # Every index the elimination recorded, including the shifts of
        # one-term pivots, has its true kill state; killed shifts of those
        # pivots are not recorded, so reduction unranks them.
        quo, _ = quotient_dimension(torus_qp(torus_tq, 1, 12), 12)
        index, kills = quo._index, quo._kills
        for pid, hit in kills.memo.items():
            assert hit == kills.killed_word(index.unrank(pid).arrows)
        outside = [
            p for i, p in enumerate(oracles.graded_lex_paths(torus_tq.quiver, quo.degree))
            if i not in kills.memo
        ]
        killed = [p for p in outside if kills.killed_word(p.arrows)]
        assert killed and len(killed) < len(outside)
        for p in outside[::7]:
            pid = index.pid(p.arrows, p.at)
            want = pid not in quo._pivots and not kills.killed_word(p.arrows)
            assert quo.is_basis_path(p) == want
        for p in killed[::7]:
            assert quo.reduce_path(p) == {}
        assert all(kills.memo[index.pid(p.arrows)] for p in killed[::7])

    def test_g_path_check_unranks_outside_the_memo(self, torus_tq):
        quo, _ = quotient_dimension(torus_qp(torus_tq, 2, 18), 18)
        quo._kills.memo.clear()
        assert g_path_independence_check(torus_tq, quo, 2)
        assert quo._kills.memo
        for pid, hit in quo._kills.memo.items():
            assert hit == quo._kills.killed_word(quo._index.unrank(pid).arrows)


class TestWindowClosure:
    """Every one-term pivot's composable shifts inside the window are leads
    or killed: the span of the pivots and the killed paths is closed under
    arrows on both sides, whichever side each pivot was shifted on."""

    @pytest.mark.parametrize("flips", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "spec,x,n,above",
        [("torus", 1, 1, 7), ("torus", Fraction(-1, 3), 2, 7), ("torus", 1, 3, 7),
         ("genus2p:1", (1, Fraction(3, 2)), 1, 6)],
    )
    def test_one_term_pivots_shift_into_the_span(self, spec, x, n, above, flips):
        # torus at D = 6n + 6, genus2p:1 at D = 13 (L + 6), then seeded flips
        qp = walked_qp(spec, x, n, flips, seed=flips, above=above)
        quo, certified = quotient_dimension(qp, qp.degree)
        assert certified
        q, index, kills, pivots = qp.quiver, quo._index, quo._kills, quo._pivots
        singles = 0
        for lead, row in pivots.items():
            p = index.unrank(lead)
            if len(row) > 1 or len(p.arrows) >= quo.degree:
                continue
            singles += 1
            head = q.head(p.arrows[0]) if p.arrows else p.at
            tail = q.tail(p.arrows[-1]) if p.arrows else p.at
            shifted = [(b.name,) + p.arrows for b in q.arrows_out[head]]
            shifted += [p.arrows + (b.name,) for b in q.arrows_in[tail]]
            for word in shifted:
                assert index.pid(word) in pivots or kills.killed_word(word), word
        assert singles


@pytest.fixture(scope="module")
def quo(torus_tq):
    qp = torus_qp(torus_tq, 1, 12)
    quotient, certified = quotient_dimension(qp, 12)
    assert certified
    return quotient


class TestReduction:
    def test_basis_matches_per_degree(self, quo):
        hist = {}
        for p in quo.basis:
            hist[len(p.arrows)] = hist.get(len(p.arrows), 0) + 1
        want = {l: c for l, c in enumerate(quo.per_degree) if c}
        assert hist == want

    def test_basis_size_is_the_dimension(self, torus_tq, fig_tq):
        # Both count the paths below the cutoff that are neither pivot leads
        # nor killed; T + hub cycle on genus2p:1 at D = 7 stays uncertified,
        # the other cases certify.
        cases = [(torus_qp(torus_tq, 1, 12), 12), (torus_qp(torus_tq, 2, 18), 18)]
        hub = Potential(fig_tq.quiver, 7, {fig_tq.puncture_cycle("p1"): 1})
        cases += [(QP(fig_tq.quiver, potential_T(fig_tq, 7) + hub), 7)]
        cases += [(QP(fig_tq.quiver, potential_S(fig_tq, 1, d)), d) for d in (9, 10, 11, 12)]
        for qp, d in cases:
            quotient, certified = quotient_dimension(qp, d)
            assert certified == (d != 7)
            assert len(quotient.basis) == quotient.dimension

    def test_basis_paths_reduce_to_themselves(self, quo):
        for p in quo.basis:
            assert quo.is_basis_path(p)
            assert quo.reduce_path(p) == {p: Fraction(1)}

    def test_non_composable_word_rejected(self, quo):
        # a1: 1 -> 2 and b1: 2 -> 3, so b1 then a1 does not compose.
        with pytest.raises(ValueError, match="not composable"):
            quo.reduce_path(("a1", "b1"))
        with pytest.raises(ValueError, match="not composable"):
            quo.is_basis_path(Path(("a1", "a2")))

    def test_unknown_arrow_rejected(self, quo):
        with pytest.raises(ValueError, match="unknown arrow"):
            quo.reduce_path(("zz",))

    def test_path_beyond_the_degree_rejected(self, quo, torus_tq):
        tri = torus_tq.triangle_cycle(0).arrows
        long = Path((tri * 5)[: quo.degree + 1])
        with pytest.raises(ValueError, match="beyond degree"):
            quo.reduce_path(long)

    def test_long_paths_collapse_onto_the_basis(self, quo, torus_tq):
        q = torus_tq.quiver
        basis = set(quo.basis)
        tri = torus_tq.triangle_cycle(0)
        for seed in (tri.arrows * 2, tri.arrows * 3):
            residue = quo.reduce_path(Path(seed))
            for p, c in residue.items():
                assert p in basis
                assert len(p.arrows) < quo.certificate_length

    def test_every_path_reduces_onto_the_basis(self, quo, torus_tq):
        basis = set(quo.basis)
        residues = {
            p: quo.reduce_path(p) for p in oracles.graded_lex_paths(torus_tq.quiver, quo.degree)
        }
        assert all(set(r) <= basis for r in residues.values())
        # Every pivot row is congruent to zero, so the residues of its terms cancel.
        for row in quo._pivots.values():
            total = {}
            for pid, c in row.items():
                for p, d in residues[quo._index.unrank(pid)].items():
                    total[p] = total.get(p, 0) + c * d
            assert not any(total.values())

    def test_relation_rewrites_corner_into_g_path(self, torus_tq):
        # β·f²(α)·f(α) is congruent to −x·n·β·(the long g-path of ∂_α)
        for n, d in ((1, 12), (2, 18)):
            x = Fraction(1)
            qp = QP(torus_tq.quiver, potential_S(torus_tq, x, d, n=n))
            quo, certified = quotient_dimension(qp, d)
            assert certified
            q = torus_tq.quiver
            pairs = 0
            for a in q.arrows:
                head2 = torus_tq.f_of(a.name, 2)
                for beta in q.arrows_out[q.head(head2)]:
                    left = Path(
                        (beta.name, head2, torus_tq.f_of(a.name))
                    )
                    q.check_path(left)
                    right = Path(
                        (beta.name,) + torus_tq.g_path(6 * n - 1, torus_tq.g[a.name]).arrows
                    )
                    got = quo.reduce_path(left)
                    want = {p: -x * n * c for p, c in quo.reduce_path(right).items()}
                    assert got == want
                    pairs += 1
            assert pairs == 12


class TestSyntheticPivots:
    """Pivots built in this order: 5 ≡ 4 − 2, then 2 ≡ 0; so 5 ≡ 4.  The
    first pivot's lower term 2 became a lead after it was installed."""

    PIVOTS = {5: {5: 1, 4: -1, 2: 1}, 2: {2: 1}}

    @pytest.fixture
    def kills(self):
        return _Kills(_PathIndex(TWO_LOOPS, 3))  # no rules: nothing is killed

    def test_residue_reduces_every_term(self, kills):
        assert _residue(self.PIVOTS, {5: 1}, kills) == {4: 1}
        assert _residue(self.PIVOTS, {4: 1}, kills) == {4: 1}
        assert _residue(self.PIVOTS, {5: 1, 4: -1}, kills) == {}

    def test_rank_counts_congruent_rows_once(self, kills):
        pivots = {k: dict(v) for k, v in self.PIVOTS.items()}
        assert _rank_modulo(pivots, [{5: 1}, {4: 1}], kills) == 1
        assert _rank_modulo(pivots, [{5: 1}, {3: 1}, {4: 1}], kills) == 2
        assert pivots == self.PIVOTS


class TestGPathIndependence:
    @pytest.mark.parametrize("n,degree", [(1, 12), (2, 18)])
    def test_torus_standard_cases(self, torus_tq, n, degree):
        quo, certified = quotient_dimension(torus_qp(torus_tq, n, degree), degree)
        assert certified
        assert g_path_independence_check(torus_tq, quo, n)

    def test_two_punctures_rejected(self, fig_tq):
        qp = QP(fig_tq.quiver, potential_S(fig_tq, 1, 9))
        quo, certified = quotient_dimension(qp, 9)
        assert certified
        with pytest.raises(ValueError):
            g_path_independence_check(fig_tq, quo, 1)

    def test_quotient_of_another_quiver_rejected(self, torus_tq):
        flipped = build_quiver(flip(once_punctured_torus(), 1))
        quo, certified = quotient_dimension(torus_qp(flipped, 1, 12), 12)
        assert certified
        with pytest.raises(ValueError, match="different quiver"):
            g_path_independence_check(torus_tq, quo, 1)

    def test_uncertified_quotient_rejected(self, torus_tq):
        # Without the puncture term the Jacobian algebra is infinite.
        quo, certified = quotient_dimension(QP(torus_tq.quiver, potential_T(torus_tq, 8)), 8)
        assert not certified
        with pytest.raises(ValueError, match="certificate"):
            g_path_independence_check(torus_tq, quo, 1)
