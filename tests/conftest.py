"""Shared fixtures: small named spaces, a graph-to-space builder, a
king-lattice builder, an in-process CLI runner, and the
acceptance-criteria summary lines."""

import io
import itertools
import os
import re
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sievecluster import FiniteMetricSpace

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_criterion_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_PATTERN.search(report.nodeid)
    if match:
        _criterion_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    from test_acceptance import CRITERIA

    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_outcomes):
        verdict = "PASS" if _criterion_outcomes[num] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {num}: {verdict} — {CRITERIA.get(num, '')}"
        )


def graph_space(n, edges, delta=1.0, labels=None):
    """Space with distance delta on edges and 2*delta otherwise; its
    threshold graph at delta is exactly the given edge set."""
    if labels is None:
        labels = [f"v{i}" for i in range(n)]
    d = np.full((n, n), 2.0 * delta)
    np.fill_diagonal(d, 0.0)
    for i, j in edges:
        d[i, j] = d[j, i] = delta
    return FiniteMetricSpace(labels, d)


def king_lattice(rows, cols):
    """Adjacency masks of the king-move graph on a rows x cols lattice,
    vertex r * cols + c at (r, c)."""
    adj = [0] * (rows * cols)
    for r, c in itertools.product(range(rows), range(cols)):
        for dr, dc in itertools.product((-1, 0, 1), repeat=2):
            if (dr or dc) and 0 <= r + dr < rows and 0 <= c + dc < cols:
                adj[r * cols + c] |= 1 << ((r + dr) * cols + c + dc)
    return adj


class CliRunner:
    """Runs a CLI entry point in this process with stdout and stderr
    captured and the environment patched for the call."""

    def invoke(self, cli, args, env=None):
        streams = sys.stdout, sys.stderr
        out = sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        code, exception = 0, None
        try:
            with mock.patch.dict(os.environ, env or {}):
                cli(args, prog_name="sievecluster")
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = streams
        out.flush()
        err.flush()
        stdout = out.buffer.getvalue()
        return SimpleNamespace(
            exit_code=code,
            output=(stdout + err.buffer.getvalue()).decode("utf-8"),
            stdout_bytes=stdout,
            exception=exception,
        )


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def x3():
    """Three points on a line at unit steps: the smallest space where
    single and maximal linkage differ."""
    return FiniteMetricSpace(
        ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )


@pytest.fixture
def bowtie():
    """Two unit triangles sharing one vertex (labeled 3)."""
    return graph_space(
        5,
        [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
        labels=["1", "2", "3", "4", "5"],
    )


@pytest.fixture
def four_cycle():
    """Unit 4-cycle a-b-c-d with 2.0 across the diagonals."""
    return graph_space(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=list("abcd"))
