"""The benchmark's tracer names functions of the package by string.

`perfbench/tracing.py` wraps each (module, function) pair in its `WRAPPED`
table, and a traced run fails when one is missing.  Reading the table here,
without importing or running the tracer, makes a rename fail this suite
rather than the traced benchmark.  A wrapped function must also stay on its
workload's path, or its spans read zero: the scalar workload reaches
`multiparty.chain_chsh` only through its multibob requests, and the audit
workload each audit only through `run_all_audits`' call of its `audit`
module binding, and the curve workload the optimizer's names only through
the bindings the tracer rebinds.  Spans recorded in pool workers are lost,
so the audit workload's `bell.singular_values_batch` span must come from
the calling process, which also runs its own block of curve points.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import bellrecycle
from bellrecycle import audit, bell, cli, multiparty, optimizer

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
    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
    audit.run_all_audits(samples, 1)
    assert len(calls) > 0


def rebind(monkeypatch, module, name, calls):
    """Replace every package binding of `module.name` with a wrapper that records
    `name`, as the tracer does."""
    original = getattr(module, name)

    def call(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name == "bellrecycle" or module_name.startswith("bellrecycle."):
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, attr, call)


def test_curve_reaches_the_optimizer_by_its_module_bindings(monkeypatch, tmp_path):
    # the curve workload's optimizer spans wrap these three functions
    calls = []
    for name in ("boundary_curve", "boundary_point", "make_batch_evaluator"):
        rebind(monkeypatch, optimizer, name, calls)
    out = tmp_path / "curve.json"
    assert cli.main(["curve", "--grid", "1.0", "--budget", "10000", "--threads", "1",
                     "--format", "json", "--out", str(out)]) == 0
    assert calls == ["boundary_curve", "boundary_point", "make_batch_evaluator"]


def test_curve_calls_boundary_point_in_the_calling_process(monkeypatch):
    # with two workers the second block runs in a pool worker, whose calls
    # land in its own copy of `calls`
    calls = []
    boundary_point = optimizer.boundary_point

    def counting(s, *args, **kwargs):
        calls.append(s)
        return boundary_point(s, *args, **kwargs)

    monkeypatch.setattr(optimizer, "boundary_point", counting)
    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
    optimizer.boundary_curve([1.0, 1.1], budget=10_000, workers=2)
    assert calls == [1.0]
