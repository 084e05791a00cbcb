"""Triangulations, flips, the arrow permutations f and g, puncture data,
the standard potentials, and the cycle trichotomy.

Structural facts (orbit tables, valencies) are frozen by hand below and
double-checked against the dart tracer in oracles.py, which reads them
off the triangle combinatorics without touching the quiver code.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qpsurf.path_algebra import (
    Path,
    Potential,
    canonicalize_rotation,
    cyclic_derivative,
    TruncatedElement,
    enumerate_cycle_classes,
)
from qpsurf.surface import (
    ConditionsReport,
    Triangulation,
    build_quiver,
    check_conditions,
    classify_cycle,
    default_degree,
    fg_witness_cycle,
    flip,
    once_punctured_torus,
    potential_S,
    potential_T,
    twice_punctured_genus,
)

# one puncture of valency 6; f cycles the triangles, g circles the puncture
TORUS_F = {"a1": "b1", "b1": "c1", "c1": "a1", "a2": "b2", "b2": "c2", "c2": "a2"}
TORUS_G = {"a1": "b2", "b2": "c1", "c1": "a2", "a2": "b1", "b1": "c2", "c2": "a1"}

# the two-puncture genus-1 quiver: 12 arrows on 6 vertices
FIG_ENDPOINTS = {
    "b1": (1, 3), "a1": (3, 6), "c1": (6, 1),
    "b2": (2, 4), "a2": (4, 3), "c2": (3, 2),
    "b3": (1, 5), "a3": (5, 4), "c3": (4, 1),
    "b4": (2, 6), "a4": (6, 5), "c4": (5, 2),
}
FIG_RIM_ORBIT = ("b1", "c2", "b4", "c1", "b3", "c4", "b2", "c3")
FIG_HUB_ORBIT = ("a1", "a4", "a3", "a2")

SURFACES = {
    "torus": once_punctured_torus,
    "genus2p:1": lambda: twice_punctured_genus(1),
    "genus2p:2": lambda: twice_punctured_genus(2),
    "genus2p:3": lambda: twice_punctured_genus(3),
}


def flip_walk(tau, rng, steps):
    """Yield (τ, k, flip(τ, k)) along a seeded walk, skipping self-folded flips."""
    for _ in range(steps):
        arcs = list(tau.arcs)
        rng.shuffle(arcs)
        for k in arcs:
            try:
                sigma = flip(tau, k)
            except ValueError:
                continue
            yield tau, k, sigma
            tau = sigma
            break


class TestTriangulation:
    def test_every_arc_must_appear_twice(self):
        with pytest.raises(ValueError):
            Triangulation([1, 2, 3], [(1, 2, 3)])
        with pytest.raises(ValueError):
            Triangulation([1, 2], [(1, 1, 2), (1, 2, 2)])

    def test_no_triangles_rejected(self):
        for arcs in ([], [1, 2, 3]):
            with pytest.raises(ValueError, match="at least one triangle"):
                Triangulation(arcs, [])

    def test_equality_ignores_rotation_and_order(self):
        a = Triangulation([1, 2, 3], [(1, 2, 3), (1, 2, 3)])
        b = Triangulation([1, 2, 3], [(2, 3, 1), (3, 1, 2)])
        assert a == b

    def test_reflection_is_a_different_triangulation(self):
        a = Triangulation([1, 2, 3], [(1, 2, 3), (1, 2, 3)])
        c = Triangulation([1, 2, 3], [(1, 3, 2), (1, 2, 3)])
        assert a != c

    def test_json_round_trip(self):
        tau = twice_punctured_genus(2)
        back = Triangulation.from_json_dict(tau.to_json_dict())
        assert back == tau

    def test_json_carries_no_arrow_names(self):
        # The builder's b/a/c labels are not stored, so a reload gets the
        # default names: triangle 1's arrows are a1, b1, c1 again.
        tau = twice_punctured_genus(1)
        names = [a.name for a in build_quiver(tau).quiver.arrows[:3]]
        back = build_quiver(Triangulation.from_json_dict(tau.to_json_dict()))
        assert names == ["b1", "a1", "c1"]
        assert [a.name for a in back.quiver.arrows[:3]] == ["a1", "b1", "c1"]

    @pytest.mark.parametrize("data, missing", [
        ({"command": ["build", "torus"], "witnesses": {}}, "'arcs', 'triangles'"),
        ({"arcs": [1, 2, 3]}, "'triangles'"),
        ([1, 2, 3], "'arcs', 'triangles'"),
    ])
    def test_json_that_is_not_a_triangulation(self, data, missing):
        with pytest.raises(KeyError) as exc:
            Triangulation.from_json_dict(data)
        assert ", ".join(map(repr, exc.value.args)) == missing

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_corner_orbits_match_dart_tracer(self, g):
        tau = twice_punctured_genus(g)
        assert sorted(len(o) for o in tau.corner_orbits()) == (
            oracles.dart_orbit_valencies(tau)
        )

    def test_torus_invariants(self):
        tau = once_punctured_torus()
        assert tau.puncture_count == 1
        assert tau.genus == 1
        assert tau.euler_consistent()
        assert oracles.dart_orbit_valencies(tau) == [6]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_family_invariants(self, g):
        tau = twice_punctured_genus(g)
        assert tau.puncture_count == 2
        assert tau.genus == g
        assert tau.euler_consistent()
        assert len(tau.triangles) == 4 * g
        assert oracles.dart_orbit_valencies(tau) == [4 * g, 8 * g]

    def test_nonpositive_genus_rejected(self):
        with pytest.raises(ValueError, match="positive genus"):
            twice_punctured_genus(0)
        with pytest.raises(ValueError, match="positive genus"):
            twice_punctured_genus(-2)


class TestFlip:
    def test_torus_flip_gives_the_reflected_gluing(self):
        out = flip(once_punctured_torus(), 1)
        assert out.triangles == ((3, 2, 1), (3, 2, 1))

    def test_unknown_arc(self):
        with pytest.raises(ValueError):
            flip(once_punctured_torus(), 9)

    def test_self_folded_result_rejected(self):
        tau = Triangulation([1, 2, 3], [(1, 2, 3), (1, 3, 2)])
        with pytest.raises(ValueError, match="self-folded"):
            flip(tau, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_torus_double_flip_returns(self, k):
        tau = once_punctured_torus()
        assert flip(flip(tau, k), k) == tau

    def test_family_double_flips_return(self):
        tau = twice_punctured_genus(1)
        for k in tau.arcs:
            assert flip(flip(tau, k), k) == tau
        rng = random.Random(601)
        tau2 = twice_punctured_genus(2)
        for _ in range(20):
            k = rng.choice(tau2.arcs)
            assert flip(flip(tau2, k), k) == tau2

    def test_flip_moves_valencies(self):
        # flipping a rim edge balances the punctures, flipping a spoke
        # starves one of them down to a triangle
        tau = twice_punctured_genus(1)
        for k in tau.arcs:
            got = oracles.dart_orbit_valencies(flip(tau, k))
            assert got == ([6, 6] if k <= 2 else [3, 9])
            assert sorted(p.valency for p in build_quiver(flip(tau, k)).punctures) == got


class TestFlipKeepsArrowNames:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_untouched_triangles_keep_their_arrows(self, g):
        rng = random.Random(1700 + g)
        for tau, k, sigma in flip_walk(twice_punctured_genus(g), rng, 60):
            before, after = build_quiver(tau), build_quiver(sigma)
            touched = {i for i, tri in enumerate(tau.triangles) if k in tri}
            assert len(touched) == 2
            for (i, j), nm in before.corners.items():
                if i in touched:
                    continue
                assert after.corners[(i, j)] == nm
                assert after.quiver.arrow(nm) == before.quiver.arrow(nm)


class TestCornerMapAlongFlips:
    """The corner map and everything derived from it, on triangulations reached by flips."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SURFACES)), st.integers(0, 2**32 - 1), st.integers(0, 20))
    def test_f_g_and_punctures_from_the_corners(self, surface, seed, steps):
        tau = SURFACES[surface]()
        taus = [tau] + [sigma for _, _, sigma in flip_walk(tau, random.Random(seed), steps)]
        for tau in taus:
            tq = build_quiver(tau)
            q = tq.quiver
            assert sorted(tq.corners.values()) == sorted(a.name for a in q.arrows)
            for (i, j), nm in tq.corners.items():
                tri = tau.triangles[i]
                assert (q.tail(nm), q.head(nm)) == (tri[j], tri[(j + 1) % 3])
            for a in q.arrows:
                # g(α) is the other arrow leaving head(α)
                others = [b.name for b in q.arrows_out[a.head] if b.name != tq.f[a.name]]
                assert others == [tq.g[a.name]]
            assert sorted(p.valency for p in tq.punctures) == oracles.dart_orbit_valencies(tau)
            firsts = [min(q.rank(nm) for nm in p.arrows) for p in tq.punctures]
            assert firsts == sorted(firsts)
            for n, p in enumerate(tq.punctures):
                assert p.pid == "p%d" % n
                assert q.rank(p.arrows[0]) == firsts[n]
                assert all(tq.m_of(nm) == p.valency for nm in p.arrows)
            for i in range(len(tau.triangles)):
                alpha = q.arrows[3 * i].name
                assert tq.triangle_cycle(i) == tq.f_path(3, alpha)


class TestQuiverStructure:
    @pytest.fixture(params=["torus", "g1", "g2", "g3"])
    def tq(self, request, torus_tq, fig_tq, fig_g2_tq):
        if request.param == "torus":
            return torus_tq
        if request.param == "g1":
            return fig_tq
        if request.param == "g2":
            return fig_g2_tq
        return build_quiver(twice_punctured_genus(3))

    def test_f_cubes_to_identity(self, tq):
        for a in tq.quiver.arrows:
            assert tq.f_of(a.name, 3) == a.name
            assert tq.f_of(tq.f_of(a.name, -1)) == a.name

    def test_f_orbits_are_the_triangles(self, tq):
        for a in tq.quiver.arrows:
            orbit = {a.name, tq.f[a.name], tq.f_of(a.name, 2)}
            assert len(orbit) == 3
            assert {tq.triangle_index[nm] for nm in orbit} == {
                tq.triangle_index[a.name]
            }

    def test_f_and_g_are_the_two_continuations(self, tq):
        q = tq.quiver
        for a in q.arrows:
            outgoing = {b.name for b in q.arrows_out[a.head]}
            assert outgoing == {tq.f[a.name], tq.g[a.name]}
            assert tq.f[a.name] != tq.g[a.name]

    def test_g_orbits_partition_the_arrows(self, tq):
        seen = []
        for p in tq.punctures:
            assert p.valency == len(p.arrows)
            seen.extend(p.arrows)
            for nm in p.arrows:
                assert tq.puncture_of(nm) == p.pid
                assert tq.m_of(nm) == p.valency
            # orbit order follows g
            for i, nm in enumerate(p.arrows):
                assert tq.g[nm] == p.arrows[(i + 1) % p.valency]
        assert sorted(seen) == sorted(a.name for a in tq.quiver.arrows)

    def test_inverse_tables(self, tq):
        for a in tq.quiver.arrows:
            assert tq.f_inv[tq.f[a.name]] == a.name
            assert tq.g_inv[tq.g[a.name]] == a.name
            assert tq.g_of(tq.g_of(a.name, 2), -2) == a.name

    def test_puncture_lookup(self, tq):
        for p in tq.punctures:
            assert tq.puncture(p.pid) is p
        with pytest.raises(KeyError):
            tq.puncture("p99")


class TestFrozenTables:
    def test_torus_permutations(self, torus_tq):
        assert torus_tq.f == TORUS_F
        assert torus_tq.g == TORUS_G
        (p,) = torus_tq.punctures
        assert p.valency == 6
        assert torus_tq.puncture_cycle(p.pid).arrows == (
            "c2", "b1", "a2", "c1", "b2", "a1"
        )

    def test_torus_corners_are_read_only(self, torus_tq):
        assert dict(torus_tq.corners) == {
            (i, j): "abc"[j] + str(i + 1) for i in range(2) for j in range(3)
        }
        with pytest.raises(TypeError):
            torus_tq.corners[(0, 0)] = "a2"

    def test_torus_triangle_cycles(self, torus_tq):
        assert torus_tq.triangle_cycle(0).arrows == ("c1", "b1", "a1")
        assert torus_tq.triangle_cycle(1).arrows == ("c2", "b2", "a2")

    def test_fig_endpoints(self, fig_tq):
        q = fig_tq.quiver
        assert set(q.vertices) == set(range(1, 7))
        got = {a.name: (a.tail, a.head) for a in q.arrows}
        assert got == FIG_ENDPOINTS

    def test_fig_f_follows_the_triangle_labels(self, fig_tq):
        for j in range(1, 5):
            assert fig_tq.f["b%d" % j] == "a%d" % j
            assert fig_tq.f["a%d" % j] == "c%d" % j
            assert fig_tq.f["c%d" % j] == "b%d" % j

    def test_fig_g_orbits(self, fig_tq):
        rim, hub = fig_tq.punctures
        assert rim.arrows == FIG_RIM_ORBIT and rim.valency == 8
        assert hub.arrows == FIG_HUB_ORBIT and hub.valency == 4


class TestDistinguishedPaths:
    def test_g_path_written_order(self, fig_tq):
        p = fig_tq.g_path(3, "b1")
        assert p.arrows == ("b4", "c2", "b1")
        fig_tq.quiver.check_path(p)

    def test_g_path_edge_cases(self, torus_tq):
        lazy = torus_tq.g_path(0, "a1")
        assert lazy.arrows == () and lazy.at == torus_tq.quiver.tail("a1")
        assert torus_tq.g_path(1, "a1").arrows == ("a1",)
        with pytest.raises(ValueError):
            torus_tq.g_path(-1, "a1")

    def test_g_path_composable_at_any_length(self, fig_g2_tq):
        rng = random.Random(602)
        names = [a.name for a in fig_g2_tq.quiver.arrows]
        for _ in range(30):
            beta = rng.choice(names)
            r = rng.randint(1, 12)
            fig_g2_tq.quiver.check_path(fig_g2_tq.g_path(r, beta))

    def test_f_path_wraps_the_triangle(self, torus_tq):
        assert torus_tq.f_path(3, "a1").arrows == ("c1", "b1", "a1")
        assert torus_tq.f_path(4, "a1").arrows == ("a1", "c1", "b1", "a1")

    def test_puncture_cycle_accepts_member_arrow(self, fig_tq):
        assert fig_tq.puncture_cycle("a3") == fig_tq.g_path(4, "a3")


class TestConditions:
    def test_torus_has_double_arrows(self, torus_tq):
        rep = check_conditions(torus_tq)
        assert isinstance(rep, ConditionsReport)
        assert rep.valency_ok
        assert not rep.no_double_arrows
        assert not rep.ok
        assert set(rep.double_arrow_pairs) == {(1, 2), (2, 3), (3, 1)}

    @pytest.mark.parametrize("g", [1, 2])
    def test_family_is_clean(self, g):
        rep = check_conditions(build_quiver(twice_punctured_genus(g)))
        assert rep.ok
        assert rep.low_valency_punctures == ()
        assert rep.double_arrow_pairs == ()

    def test_spoke_flip_breaks_the_valency_condition(self):
        tq = build_quiver(flip(twice_punctured_genus(1), 3))
        rep = check_conditions(tq)
        assert not rep.valency_ok
        assert len(rep.low_valency_punctures) == 1


class TestPotentials:
    def test_triangle_potential_torus(self, torus_tq):
        pot = potential_T(torus_tq)
        assert pot.degree == default_degree(3) == 12
        want = Potential(
            torus_tq.quiver,
            12,
            {Path(("c1", "b1", "a1")): 1, Path(("c2", "b2", "a2")): 1},
        )
        assert pot == want

    def test_weighted_potential_fig(self, fig_tq):
        xp, xq = Fraction(2), Fraction(-1, 3)
        pot = potential_S(fig_tq, (xp, xq))
        rim = Path(("b4", "c2", "b1", "c3", "b2", "c4", "b3", "c1"))
        hub = Path(("a1", "a2", "a3", "a4"))
        want = potential_T(fig_tq, pot.degree) + Potential(
            fig_tq.quiver, pot.degree, {rim: xp, hub: xq}
        )
        assert pot == want
        assert pot.coefficient(rim) == xp
        assert pot.coefficient(hub) == xq

    def test_scalar_and_dict_coefficients_agree(self, fig_tq):
        by_list = potential_S(fig_tq, (1, 1))
        assert potential_S(fig_tq, 1) == by_list
        assert potential_S(fig_tq, {"p0": 1, "p1": 1}) == by_list

    def test_coefficient_validation(self, fig_tq):
        with pytest.raises(ValueError):
            potential_S(fig_tq, (1,))
        with pytest.raises(ValueError):
            potential_S(fig_tq, (0, 1))

    def test_powered_potential_torus(self, torus_tq):
        x = Fraction(-1, 3)
        pot = potential_S(torus_tq, x, n=2)
        assert pot.degree == default_degree(12) == 30
        cyc = torus_tq.puncture_cycle("p0").arrows
        assert pot.coefficient(Path(cyc * 2)) == x
        assert pot.coefficient(Path(("c1", "b1", "a1"))) == 1
        assert len(pot.terms) == 3

    def test_powered_potential_guards(self, torus_tq):
        with pytest.raises(ValueError):
            potential_S(torus_tq, 1, n=0)
        with pytest.raises(ValueError):
            potential_S(torus_tq, 0)
        with pytest.raises(ValueError, match="expected 1 puncture coefficients, got 2"):
            potential_S(torus_tq, (1, 2), n=2)
        # the puncture cycle squared has length 12: a lower degree would drop it
        with pytest.raises(ValueError, match="below the longest term"):
            potential_S(torus_tq, 1, 11, n=2)
        assert len(potential_S(torus_tq, 1, 12, n=2).terms) == 3

    @pytest.mark.parametrize("n", [1, 2])
    def test_powered_potential_derivatives(self, torus_tq, n):
        # every arrow sees its triangle corner plus n·x times the long
        # g-path that completes the puncture cycle power
        q = torus_tq.quiver
        x = Fraction(5, 7)
        pot = potential_S(torus_tq, x, n=n)
        for a in q.arrows:
            d = pot.degree - 1
            corner = Path((torus_tq.f_of(a.name, 2), torus_tq.f_of(a.name)))
            tail = torus_tq.g_path(6 * n - 1, torus_tq.g[a.name])
            want = TruncatedElement.from_path(q, d, corner) + (
                TruncatedElement.from_path(q, d, tail, x * n)
            )
            assert cyclic_derivative(pot, a.name) == want


class TestClassification:
    def test_exhaustive_small_cycles_match_reference(self, fig_tq):
        classes = enumerate_cycle_classes(fig_tq.quiver, 8)
        assert classes
        for p in classes:
            cls = classify_cycle(fig_tq, p)
            kind, data = oracles.classify_by_steps(fig_tq, p)
            assert cls.kind == kind
            if kind in ("F", "G"):
                assert cls.n == data
            else:
                w = fg_witness_cycle(fig_tq, cls)
                assert canonicalize_rotation(fig_tq.quiver, w) == p

    def test_triangle_and_puncture_cycles(self, fig_tq):
        tri = fig_tq.triangle_cycle(0)
        cls = classify_cycle(fig_tq, tri)
        assert (cls.kind, cls.n) == ("F", 1)
        double = Path(tri.arrows * 2)
        assert classify_cycle(fig_tq, double).n == 2
        hub = fig_tq.puncture_cycle("p1")
        cls = classify_cycle(fig_tq, hub)
        assert (cls.kind, cls.n) == ("G", 1)

    def test_fg_witness_structure(self, fig_tq):
        # one triangle corner glued into the rim: a single f-step, then g's
        w = Path(("b1", "c1", "b4", "c2"))
        fig_tq.quiver.check_path(w)
        cls = classify_cycle(fig_tq, w)
        assert cls.kind == "FG"
        assert cls.witness_arrow == "a1"  # f(a1) = c1 sits at the pinch
        assert cls.remainder.arrows == ("c2",)
        assert fg_witness_cycle(fig_tq, cls).arrows == w.arrows

    def test_conditions_are_required(self, torus_tq):
        with pytest.raises(ValueError, match="standing conditions"):
            classify_cycle(torus_tq, Path(("c1", "b1", "a1")))

    def test_non_cycle_rejected(self, fig_tq):
        with pytest.raises(ValueError):
            classify_cycle(fig_tq, Path(("a1", "b1")))


class TestClassificationMemo:
    """classify_cycle remembers each word's class per quiver, and only classes."""

    def test_every_rotation_matches_the_reference_warm_and_fresh(self, fig_tq):
        fresh = build_quiver(twice_punctured_genus(1))
        for word in oracles.all_cycle_classes(fig_tq.quiver, 10):
            for i in range(len(word)):
                p = Path(word[i:] + word[:i])
                kind, data = oracles.classify_by_steps(fig_tq, p)
                got = [classify_cycle(tq, p) for tq in (fig_tq, fresh, fig_tq, fresh)]
                assert got[0] == got[1] and got[2] is got[0] and got[3] is got[1]
                cls = got[0]
                assert cls.kind == kind
                if kind in ("F", "G"):
                    assert cls.n == data
                else:
                    # the witness reads the word from one of its pinch points
                    w = p.arrows
                    rotations = {w[j:] + w[:j] for j in data}
                    assert fg_witness_cycle(fig_tq, cls).arrows in rotations

    def test_failures_are_not_remembered(self):
        tq = build_quiver(twice_punctured_genus(1))
        bad = Path(("a1", "b1"))
        for _ in range(3):
            with pytest.raises(ValueError, match="not a cycle"):
                classify_cycle(tq, bad)
        assert tq._cycle_classes == {}

    def test_quivers_do_not_share_entries(self):
        one = build_quiver(twice_punctured_genus(1))
        two = build_quiver(twice_punctured_genus(1))
        tri = one.triangle_cycle(0)
        assert classify_cycle(one, tri) == classify_cycle(two, tri)
        classify_cycle(one, one.puncture_cycle("p1"))
        assert list(one._cycle_classes) == [tri, one.puncture_cycle("p1")]
        assert list(two._cycle_classes) == [tri]

    def test_triangle_cycles_are_canonical_and_built_once(self, fig_tq):
        tri = fig_tq.triangle_cycles
        assert tri is fig_tq.triangle_cycles
        assert sorted(tri.values()) == [0, 1, 2, 3]
        for cyc, i in tri.items():
            assert cyc == canonicalize_rotation(fig_tq.quiver, fig_tq.triangle_cycle(i))
        with pytest.raises(TypeError):
            tri[cyc] = 9
