"""Shared fixtures for the benchmark harness.

Every benchmark prints the table/figure it regenerates (run pytest with
``-s`` to see them) and asserts the qualitative shape reported in the paper.
``REPRO_IDCT_ROWS`` (default 2) scales the IDCT workload: 8 reproduces the
full 8x8 row pass of the paper's experiment at a correspondingly longer run
time.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.lib import tsmc90_library  # noqa: E402


def idct_rows() -> int:
    """Number of 8-point row transforms per IDCT design (env-configurable)."""
    return int(os.environ.get("REPRO_IDCT_ROWS", "2"))


@pytest.fixture(scope="session")
def library():
    return tsmc90_library()


@pytest.fixture
def cold_caches():
    """Empty the process-wide analysis cache before the test.

    It owns every process-wide memo (the delta-seed caches live on its
    cached graphs), so a timed run starts as cold as a fresh process
    whatever ran before it.
    """
    from repro.core.analysis_cache import default_cache

    default_cache().clear()
