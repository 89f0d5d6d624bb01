"""Span tracing of bellrecycle from outside the package.

`Tracer.install` replaces module-level functions with wrappers that record
a span (name, start, end, parent, rows) per call.  The package's modules
import names directly (`from .bell import singular_values_batch` in both
`audit` and `optimizer`), so every binding of the original object in every
loaded `bellrecycle` module is replaced, not just the defining one.  Spans
stay in memory and are written out once the traced run is over.
"""

from __future__ import annotations

import gzip
import sys
import time

#: (module, function, workloads that must record at least one span for it).
#: `make_batch_evaluator` is not timed itself; the evaluator it returns is,
#: as `optimizer.evaluate` with the number of rows in the call.
WRAPPED = (
    ("optimizer", "make_batch_evaluator", ("curve",)),
    ("optimizer", "boundary_point", ("curve",)),
    ("optimizer", "boundary_curve", ("curve",)),
    ("bell", "singular_values_batch", ("curve", "audit")),
    ("bell", "svd3", ("scalar",)),
    ("bell", "chsh_value", ("scalar",)),
    ("bell", "horodecki_sstar", ("scalar",)),
    ("audit", "run_all_audits", ("audit",)),
    ("audit", "audit_orthogonal_monogamy", ("audit",)),
    ("audit", "audit_equal_strength_monogamy", ("audit",)),
    ("audit", "audit_conjecture", ("audit",)),
    ("audit", "audit_tradeoff_chain", ("audit",)),
    ("monogamy", "evaluate_scenario", ("scalar",)),
    ("monogamy", "check_orthogonal_monogamy", ("scalar",)),
    ("monogamy", "check_equal_strength_monogamy", ("scalar",)),
    ("multiparty", "plan_multibob", ("scalar",)),
    ("multiparty", "chain_chsh", ("scalar",)),
    ("multiparty", "multipair_scenario", ("scalar",)),
    ("instruments", "setting_channel", ("scalar",)),
    ("observables", "make_observable", ("scalar",)),
    ("states", "make_state", ("scalar",)),
    ("cli", "main", ("curve", "audit")),
)

EVALUATE = "optimizer.evaluate"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, rows]
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _timed(self, name: str, fn, rows_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    rows_of(args) if rows_of else 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _evaluator_factory(self, factory):
        def make(*args, **kwargs):
            return self._timed(EVALUATE, factory(*args, **kwargs), _rows)

        return make

    def install(self) -> None:
        """Wrap every function in WRAPPED and rebind each reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bellrecycle" or n.startswith("bellrecycle."))]
        for module_name, func, _ in WRAPPED:
            original = getattr(sys.modules[f"bellrecycle.{module_name}"], func)
            if func == "make_batch_evaluator":
                wrapper = self._evaluator_factory(original)
            else:
                wrapper = self._timed(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the spans as gzip TSV: index, name, start, end, parent, rows."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\trows\n")
            for i, (name, t0, t1, parent, rows) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{rows}\n")


def _rows(args) -> int:
    shape = getattr(args[0], "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


class Summary:
    """Per-name calls, busy time and self time of a span list.

    Self time is a span's duration minus the time its direct children cover;
    the code is single-threaded, so children never overlap.
    """

    def __init__(self, spans):
        covered = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.batch = [0, 0, 0.0]  # evaluator calls with >1 row: calls, rows, busy
        self.row1 = [0, 0.0]  # single-row evaluator calls: calls, busy
        for (name, t0, t1, _, rows), cover in zip(spans, covered):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + (t1 - t0)
            self.self_time[name] = self.self_time.get(name, 0.0) + (t1 - t0 - cover)
            if name == EVALUATE and rows > 1:
                self.batch[0] += 1
                self.batch[1] += rows
                self.batch[2] += t1 - t0
            elif name == EVALUATE:
                self.row1[0] += 1
                self.row1[1] += t1 - t0

    def missing(self, workload: str) -> list[str]:
        """Wrapped functions this workload should exercise but never reached."""
        out = []
        for module_name, func, workloads in WRAPPED:
            name = EVALUATE if func == "make_batch_evaluator" else f"{module_name}.{func}"
            if workload in workloads and self.calls.get(name, 0) == 0:
                out.append(f"{module_name}.{func}")
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c, b, s = self.calls, self.busy, self.self_time
        audit_self = sum(v for k, v in s.items() if k.startswith("audit."))
        covered = self.batch[2] + self.row1[1] + s.get("optimizer.boundary_point", 0.0)
        main = b.get("cli.main", 0.0)
        return {
            "optimizer.batch_calls": (self.batch[0], "count"),
            "optimizer.batch_rows": (self.batch[1], "count"),
            "optimizer.batch_busy_s": (self.batch[2], "s"),
            "optimizer.row1_calls": (self.row1[0], "count"),
            "optimizer.row1_busy_s": (self.row1[1], "s"),
            "optimizer.point_self_s": (s.get("optimizer.boundary_point", 0.0), "s"),
            "optimizer.target_cover_frac": (covered / main if c.get(EVALUATE) else 0.0, "ratio"),
            "bell.sv_batch_busy_s": (b.get("bell.singular_values_batch", 0.0), "s"),
            "audit.orthogonal_s": (b.get("audit.audit_orthogonal_monogamy", 0.0), "s"),
            "audit.equal_strength_s": (b.get("audit.audit_equal_strength_monogamy", 0.0), "s"),
            "audit.conjecture_s": (b.get("audit.audit_conjecture", 0.0), "s"),
            "audit.tradeoff_s": (b.get("audit.audit_tradeoff_chain", 0.0), "s"),
            "audit.self_s": (audit_self, "s"),
            "monogamy.evaluate_scenario.calls": (c.get("monogamy.evaluate_scenario", 0), "count"),
            "monogamy.evaluate_scenario.busy_s": (b.get("monogamy.evaluate_scenario", 0.0), "s"),
            "monogamy.evaluate_scenario.self_s": (s.get("monogamy.evaluate_scenario", 0.0), "s"),
            "monogamy.check.busy_s": (b.get("monogamy.check_orthogonal_monogamy", 0.0)
                                      + b.get("monogamy.check_equal_strength_monogamy", 0.0), "s"),
            "instruments.setting_channel.calls": (c.get("instruments.setting_channel", 0), "count"),
            "instruments.setting_channel.busy_s": (b.get("instruments.setting_channel", 0.0), "s"),
            "observables.make_observable.calls": (c.get("observables.make_observable", 0), "count"),
            "observables.make_observable.busy_s": (b.get("observables.make_observable", 0.0), "s"),
            "states.make_state.calls": (c.get("states.make_state", 0), "count"),
            "multiparty.plan_multibob.busy_s": (b.get("multiparty.plan_multibob", 0.0), "s"),
            "multiparty.chain_chsh.busy_s": (b.get("multiparty.chain_chsh", 0.0), "s"),
            "multiparty.chain_chsh.calls": (c.get("multiparty.chain_chsh", 0), "count"),
            "multiparty.multipair_scenario.busy_s": (b.get("multiparty.multipair_scenario", 0.0), "s"),
            "cli.self_s": (s.get("cli.main", 0.0), "s"),
        }
