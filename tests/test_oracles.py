"""Checks of the test oracles themselves: a helper that hangs or lies would
make every property test that draws from it worthless."""

import random

import pytest

import oracles
from qpsurf.path_algebra import Quiver


class TestRandomCycleWord:
    def test_shortest_cycle_length(self, torus_tq, fig_tq):
        assert oracles.shortest_cycle_length(torus_tq.quiver) == 3
        assert oracles.shortest_cycle_length(fig_tq.quiver) == 3
        acyclic = Quiver(["u", "v"], [("x", "u", "v")])
        assert oracles.shortest_cycle_length(acyclic) is None

    def test_no_cycle_short_enough_is_an_error(self, fig_tq):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="no cycle of length <= 2"):
            oracles.random_cycle_word(fig_tq.quiver, rng, max_len=2)
        with pytest.raises(ValueError, match="no cycle"):
            oracles.random_potential(fig_tq.quiver, 1, rng)
        acyclic = Quiver(["u", "v"], [("x", "u", "v")])
        with pytest.raises(ValueError, match="no cycle"):
            oracles.random_cycle_word(acyclic, rng)

    def test_bound_at_the_shortest_cycle(self, fig_tq):
        q = fig_tq.quiver
        rng = random.Random(1)
        for _ in range(20):
            w = oracles.random_cycle_word(q, rng, max_len=3)
            assert len(w) == 3
            assert q.is_cycle(q.path(w))
