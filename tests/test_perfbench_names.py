"""The benchmark's tracer names functions of the package by string.

`perfbench/tracing.py` wraps each (module, function) pair in its `WRAPPED`
table, and a traced run fails when one is missing.  Reading the table here,
without importing or running the tracer, makes a rename fail this suite
rather than the traced benchmark.  A wrapped function must also stay on its
workload's path, or its spans read zero: the scalar workload reaches
`multiparty.chain_chsh` only through its multibob requests, and the audit
workload each audit only through `run_all_audits`' call of its `audit`
module binding.  Spans
recorded in an audit's pool workers are lost, so the audit workload's
`bell.singular_values_batch` span must come from the calling process.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import bellrecycle
from bellrecycle import audit, bell, multiparty

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def wrapped_table():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_every_wrapped_function_exists():
    table = wrapped_table()
    assert table
    missing = [f"{module}.{func}" for module, func, _ in table
               if not callable(getattr(importlib.import_module(f"bellrecycle.{module}"), func, None))]
    assert missing == []


def test_scalar_multibob_request_calls_chain_chsh(monkeypatch):
    # the tracer rebinds module attributes as this monkeypatch does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    calls = []
    chain_chsh = multiparty.chain_chsh

    def counting(*args, **kwargs):
        calls.append(args)
        return chain_chsh(*args, **kwargs)

    monkeypatch.setattr(multiparty, "chain_chsh", counting)
    rng = np.random.default_rng(0)
    request = workloads._scalar_request(rng, workloads.MULTIBOB_EVERY - 1)
    assert request["type"] == "multibob"
    workloads.multibob_request(bellrecycle, request)
    assert len(calls) > 0


def test_run_all_audits_calls_each_audit_by_its_module_binding(monkeypatch):
    # the audit workload's per-audit spans wrap these four module attributes
    names = ["audit_orthogonal_monogamy", "audit_equal_strength_monogamy", "audit_tradeoff_chain",
             "audit_conjecture"]
    calls = []

    def counting(name):
        func = getattr(audit, name)

        def call(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(audit, name, counting(name))
    reports = audit.run_all_audits(2_000, 1)
    assert calls == names
    assert [r.samples for r in reports] == [2_001, 2_001, 2_003, 2_001]


@pytest.mark.parametrize("samples", [2_000, 3 * audit._CHUNK + 5], ids=["one-chunk", "two-blocks"])
def test_audit_calls_singular_values_batch_in_the_calling_process(monkeypatch, samples):
    # with two workers the second block runs in a pool worker, whose calls
    # land in its own copy of `calls`
    calls = []
    singular_values_batch = bell.singular_values_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return singular_values_batch(*args, **kwargs)

    monkeypatch.setattr(bell, "singular_values_batch", counting)
    monkeypatch.setattr(audit, "_usable_cpus", lambda: 2)
    audit.run_all_audits(samples, 1)
    assert len(calls) > 0
