import pytest

from qpsurf.endo import REndomorphism
from qpsurf.path_algebra import Potential
from qpsurf.surface import build_quiver, once_punctured_torus, twice_punctured_genus


@pytest.fixture(scope="session")
def torus_tq():
    return build_quiver(once_punctured_torus())


@pytest.fixture(scope="session")
def fig_tq():
    return build_quiver(twice_punctured_genus(1))


@pytest.fixture(scope="session")
def fig_g2_tq():
    return build_quiver(twice_punctured_genus(2))


@pytest.fixture
def applied(monkeypatch):
    """Every endomorphism applied to a potential, in order."""
    record = []
    apply = REndomorphism.apply

    def recorded(phi, x):
        if isinstance(x, Potential):
            record.append(phi)
        return apply(phi, x)

    monkeypatch.setattr(REndomorphism, "apply", recorded)
    return record
