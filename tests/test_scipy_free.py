"""The scipy-free runtime, checked with scipy as the oracle.

dimerfield needs numpy only: Brent's method is written out in
``variational._bracketed_root``, which these tests hold to scipy's own
``brentq``, and the Gaussian routes run with scipy blocked.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from dimerfield import z_star
from dimerfield.variational import _bracketed_root

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import dimerfield
after_import = scipy_modules()
from dimerfield import cli
code = cli.main(["critical", "--alpha", "1e-3"])
print(json.dumps({"import": after_import, "critical": scipy_modules(), "code": code}))
"""


_BLOCKED_PROBE = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import dimerfield
from dimerfield import cli
h = [-1.5, -1.5, -2.0]
values = [dimerfield.z_star(n, 0.5, h).log_value for n in (8, 64)]
holds = dimerfield.superadditivity_check(8, 24, 0.5, h).holds
code = cli.main(["gauss"])
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"values": values, "holds": holds, "code": code, "scipy": loaded}))
"""


def _run_probe(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_critical_load_no_scipy():
    assert _run_probe(_PROBE) == {"import": [], "critical": [], "code": 0}


def test_gaussian_routes_run_with_scipy_blocked():
    report = _run_probe(_BLOCKED_PROBE)
    assert report["code"] == 0 and report["holds"] and report["scipy"] == []
    assert report["values"] == [z_star(n, 0.5, [-1.5, -1.5, -2.0]).log_value for n in (8, 64)]


def _family(kind, r, c, s):
    """A function with a simple root at r, of one of five shapes."""
    if kind == 0:
        return lambda x: c * (x - r) ** 3 + s * (x - r)
    if kind == 1:
        return lambda x: math.tanh(c * (x - r)) + 1e-3 * s * (x - r)
    if kind == 2:
        return lambda x: math.expm1(min(c * (x - r), 700.0))
    if kind == 3:
        return lambda x: c * math.atan(x - r) + s * (x - r) ** 5
    return lambda x: math.log1p(c * (x - r)) if x > r else -math.sqrt(r - x)


def test_brent_matches_scipy_brentq_bit_for_bit():
    rng = np.random.default_rng(20260)
    compared = 0
    for k in range(2000):
        r = rng.uniform(-5.0, 5.0) * 10.0 ** rng.integers(-6, 3)
        c = abs(rng.normal()) * 10.0 ** rng.integers(-2, 3)
        fn = _family(k % 5, r, c, abs(rng.normal()))
        a, b = r - 10.0 ** rng.uniform(-8, 2), r + 10.0 ** rng.uniform(-8, 2)
        if rng.random() < 0.5:
            a, b = b, a
        fa, fb = fn(a), fn(b)
        if not (math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0.0):
            continue
        want = brentq(fn, a, b, xtol=1e-300, rtol=8.9e-16)
        assert _bracketed_root(fn, a, b) == want, (k, a, b)
        compared += 1
    assert compared > 1500


def test_brent_iteration_cap_and_sign_check_match_scipy():
    # a sign step at 0 leaves bisection alone, and 1e-300 is ~1000 halvings away
    def step(x):
        return 1.0 if x > 0.0 else -1.0

    with pytest.raises(RuntimeError):
        brentq(step, -1.0, 3.0, xtol=1e-300, rtol=8.9e-16)
    with pytest.raises(RuntimeError, match="100 iterations"):
        _bracketed_root(step, -1.0, 3.0)
    with pytest.raises(ValueError):
        _bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _bracketed_root(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

