"""Shared configuration for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and checks
the *shape* criteria from DESIGN.md (who wins, monotone directions,
where crossovers fall) — absolute numbers differ from the authors'
testbed by construction. Rendered tables are printed so ``pytest
benchmarks/ --ignore=benchmarks/e2e -s`` shows the reproduced
artifacts.

Scale knobs: set MP5_BENCH_SCALE=small for quicker smoke runs.
"""

import os

import pytest

SCALE = os.environ.get("MP5_BENCH_SCALE", "full")


def bench_params():
    if SCALE == "small":
        return dict(num_packets=2000, seeds=(0,))
    return dict(num_packets=5000, seeds=(0, 1))


def micro_params():
    if SCALE == "small":
        return dict(num_packets=2000, seeds=(0, 1))
    return dict(num_packets=5000, seeds=tuple(range(10)))


@pytest.fixture
def show():
    """Print a rendered table under -s and attach nothing otherwise."""

    def _show(text: str) -> None:
        print("\n" + text)

    return _show
