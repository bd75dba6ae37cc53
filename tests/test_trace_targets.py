"""The benchmark's traced run wraps package functions by name, and a name
that no longer resolves reads 0 in every metric built on it. This guard
resolves each traced name as ``bench/worker.py``'s ``install`` does,
reading the list from the file without importing it."""

import ast
from pathlib import Path

import pytest

import sncoint

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"

# Spans whose functions the package no longer has; ROADMAP lists what to trace instead.
DEAD = {
    "selfnorm.conditional_lrv_from_ols",
    "bootstrap.select_order",
    "bootstrap.replication",
    "montecarlo.replication",
}


def trace_targets():
    for node in ast.parse(WORKER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACE_TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_TARGETS assignment in {WORKER}")


def resolves(path):
    """Whether ``path``, dotted from the ``sncoint`` namespace, names an attribute its owner defines."""
    owner = sncoint
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        owner.__dict__[attr]
    except (AttributeError, KeyError):
        return False
    return True


@pytest.mark.skipif(not WORKER.exists(), reason="no bench/ beside the tests")
def test_only_known_dead_spans_unresolved():
    targets = trace_targets()
    unresolved = {span for span, path in targets if not resolves(path)}
    assert len(targets) > len(DEAD)
    assert unresolved <= DEAD, sorted(unresolved - DEAD)
