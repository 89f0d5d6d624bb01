"""Import cost: the package never loads scipy.optimize, and loads the process pool on first use.

`import bellrecycle` should cost numpy and scipy's top-level package only.
The optimizer's polish and `max_exponent_d` are plain numpy and math, so
`scipy.optimize` (~0.5 s, ~40 MB) never loads; `multiprocessing` loads at
the first `boundary_curve(..., workers > 1)`, or at the first audit of more
than one chunk on more than one CPU.  Each check runs in a fresh
interpreter, since this test process has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCENARIO = {
    "state": "singlet",
    "alice": [{"strength": 1.0, "direction": [1, 0, 0]},
              {"strength": 1.0, "direction": [0, 1, 0]}],
    "bob": [{"strength": 1.0, "direction": [-0.7071067811865475, -0.7071067811865475, 0]},
            {"strength": 1.0, "direction": [-0.7071067811865475, 0.7071067811865475, 0]}],
}


def modules_after(code):
    """The names in sys.modules once a fresh interpreter has run `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_neither_optimizer_nor_process_pool():
    loaded = modules_after("import bellrecycle, bellrecycle.cli")
    assert "scipy.optimize" not in loaded
    assert "multiprocessing" not in loaded
    # benchmark provenance reads scipy's version from sys.modules
    assert "scipy" in loaded


@pytest.mark.parametrize("argv", [
    ["audit", "--samples", "2000"],
    ["scenario", "--config", json.dumps(SCENARIO)],
    ["multibob", "--n", "2"],
], ids=["audit", "scenario", "multibob"])
def test_commands_without_an_optimizer_do_not_load_it(argv):
    loaded = modules_after(f"from bellrecycle.cli import main\nassert main({argv!r}) == 0")
    assert "scipy.optimize" not in loaded
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("code, module, loads", [
    ("from bellrecycle import UNBIASED_SINGLET, boundary_point\n"
     "boundary_point(1.0, UNBIASED_SINGLET, budget=10_000, seed=0)", "scipy.optimize", False),
    ("from bellrecycle import max_exponent_d\nmax_exponent_d()", "scipy.optimize", False),
    ("from bellrecycle.cli import main\n"
     "assert main(['curve', '--grid', '2.4', '--budget', '10000']) == 0", "scipy.optimize", False),
    ("from bellrecycle import boundary_curve, optimizer\n"
     "optimizer._usable_cpus = lambda: 2\n"
     "boundary_curve([1.0, 2.0], budget=10_000, workers=2)", "multiprocessing", True),
], ids=["boundary_point", "max_exponent_d", "curve", "boundary_curve-workers"])
def test_first_use_loads_what_it_needs(code, module, loads):
    loaded = modules_after(code)
    assert (module in loaded) == loads
    assert "scipy" in loaded
