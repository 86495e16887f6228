"""Fixtures that choose the Bessel evaluation path of rotkrein._radial, or
count what it evaluates."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import rotkrein._radial


@pytest.fixture
def serial_bessel(monkeypatch):
    """Every Bessel batch evaluated in one call on the calling thread."""
    monkeypatch.setattr(rotkrein._radial, "_SPLIT_MIN", sys.maxsize)


@pytest.fixture
def split_bessel(monkeypatch):
    """Every Bessel batch cut in two halves, one on the helper thread, on any
    number of CPUs: a one-CPU process is given an executor for the test."""
    monkeypatch.setattr(rotkrein._radial, "_SPLIT_MIN", 0)
    if rotkrein._radial._pool is not None:
        yield rotkrein._radial._pool
        return
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rotkrein-bessel")
    monkeypatch.setattr(rotkrein._radial, "_pool", pool)
    try:
        yield pool
    finally:
        pool.shutdown()


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

    def counted_h(x, n_deg):
        count[1] += x.size
        return sph_h(x, n_deg)

    monkeypatch.setattr(rotkrein._radial, "_sph_j", counted_j)
    monkeypatch.setattr(rotkrein._radial, "_sph_h", counted_h)
    return count
