"""Fixtures that choose the Bessel evaluation path of rotkrein._radial."""

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
