from __future__ import annotations

import pytest

import speclimit as sl


@pytest.fixture(scope="session")
def box():
    return sl.box(mass=1.0, width=1.0)


@pytest.fixture(scope="session")
def osc():
    return sl.harmonic(mass=1.0, stiffness=1.0)


@pytest.fixture(scope="session")
def hyd():
    return sl.get_preset("hydrogen-atomic")


@pytest.fixture(scope="session")
def morse_h2():
    return sl.get_preset("morse-h2")


@pytest.fixture
def placed_levels(monkeypatch):
    """Counter, by n, of the levels ``semiclassical._place`` is asked for while the patch holds."""
    from collections import Counter

    from speclimit import semiclassical

    counts, place = Counter(), semiclassical._place

    def counted(model, ns, *args, **kwargs):
        ns = list(ns)
        counts.update(ns)
        return place(model, ns, *args, **kwargs)

    monkeypatch.setattr(semiclassical, "_place", counted)
    return counts


@pytest.fixture
def newton_searches(monkeypatch):
    """Counter, by (well profile id, target action), of the ``semiclassical._newton`` searches started."""
    from collections import Counter

    from speclimit import semiclassical

    counts, newton = Counter(), semiclassical._newton

    def counted(profile, target):
        counts[id(profile), target] += 1
        return newton(profile, target)

    monkeypatch.setattr(semiclassical, "_newton", counted)
    return counts
