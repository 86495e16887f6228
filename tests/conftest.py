"""Fixtures that choose the Bessel evaluation path of rotkrein._radial."""

import sys

import pytest

import rotkrein._radial


@pytest.fixture
def serial_bessel(monkeypatch):
    """Every Bessel batch evaluated in one call on the calling thread."""
    monkeypatch.setattr(rotkrein._radial, "_SPLIT_MIN", sys.maxsize)


@pytest.fixture
def split_bessel(monkeypatch):
    """Every Bessel batch with two or more orders or radii cut in two halves,
    one on the helper thread, on any number of CPUs."""
    monkeypatch.setattr(rotkrein._radial, "_SECOND_CPU", True)
    monkeypatch.setattr(rotkrein._radial, "_SPLIT_MIN", 0)
