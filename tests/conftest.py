"""Fixtures that count what rotkrein._radial evaluates."""

import pytest

import rotkrein._radial


@pytest.fixture
def recurrence_arguments(monkeypatch):
    """The arguments w r of the 3D degree recurrences, [J, H]: those passed
    to _radial._sph_j and to _radial._sph_h, a cost that does not drift
    with the host's speed."""
    count = [0, 0]
    sph_j, sph_h = rotkrein._radial._sph_j, rotkrein._radial._sph_h

    def counted_j(x, top):
        count[0] += x.size
        return sph_j(x, top)

    def counted_h(x, *args):
        count[1] += x.size
        return sph_h(x, *args)

    monkeypatch.setattr(rotkrein._radial, "_sph_j", counted_j)
    monkeypatch.setattr(rotkrein._radial, "_sph_h", counted_h)
    return count
