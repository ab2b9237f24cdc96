"""The serving stack never loads SciPy; fits load it before they run.

Serving is the learned map of Definitions 3 and 8 plus a logistic
scorer, numpy alone, so a serving process (both tiers, every verb,
``/v1/metrics``, the dispatcher's workers, ``repro.cli``) must start
without importing SciPy.  The solver is loaded where it is called, through
:func:`repro.utils.blas.import_scipy`:

* ``import repro.serving.fit`` loads ``scipy.optimize``, so fits pay for
  it in set-up;
* a process whose first SciPy import happens inside a fit's
  ``blas.limit(1)`` runs SciPy's OpenBLAS at one thread in the oracle
  and fits the same bits as one that imported SciPy first;
* a fork-started pool loads the solver before it forks, so no worker
  imports it on its first task.

Every check runs in a fresh interpreter: this test process has long
since imported SciPy.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.serving import save_artifact

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


SERVE_SCRIPT = r"""
import json, multiprocessing, os, sys, urllib.request

from repro.serving import (
    HTTPClient, InferenceEngine, InProcessClient, load_artifact, serve_artifact,
)
import repro.cli

path, records, groups = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])


def scipy_maps(pid):
    # SciPy's extension modules and its bundled OpenBLAS; numpy's own
    # OpenBLAS is named libscipy_openblas too but lives in numpy.libs.
    if not os.path.exists(f"/proc/{pid}/maps"):
        return []
    with open(f"/proc/{pid}/maps") as fh:
        paths = {line.split()[-1] for line in fh if len(line.split()) > 5}
    return sorted(p for p in paths if "/scipy/" in p or "/scipy.libs/" in p)


def drive(client):
    client.transform(records)
    client.score(records)
    client.rank(records, top_k=3, groups=groups)
    client.decide(records, groups)


drive(InProcessClient(InferenceEngine(load_artifact(path))))
worker_maps = {}
for workers in (1, 2):
    service = serve_artifact(path, port=0, workers=workers).start()
    try:
        host, port = service.address
        drive(HTTPClient(host, port))
        url = f"http://{host}:{port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as reply:
            assert b"serving_requests_total" in reply.read()
        for child in multiprocessing.active_children():
            worker_maps[child.pid] = scipy_maps(child.pid)
    finally:
        service.stop()
serving = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
serving_maps = scipy_maps("self")
import repro.serving.fit
print(json.dumps({
    "serving": serving,
    "serving_maps": serving_maps,
    "workers": len(worker_maps),
    "worker_maps": sorted(p for paths in worker_maps.values() for p in paths),
    "fit_loads_solver": "scipy.optimize" in sys.modules,
}))
"""


def test_serving_never_imports_scipy(census_serving_artifact, tiny_census, tmp_path):
    path = save_artifact(str(tmp_path / "art"), census_serving_artifact)
    records = json.dumps(tiny_census.X[:16].tolist())
    groups = json.dumps(tiny_census.protected[:16].tolist())
    seen = _run(SERVE_SCRIPT, path, records, groups)
    assert seen["serving"] == []
    assert seen["serving_maps"] == []
    assert seen["workers"] == 2
    assert seen["worker_maps"] == []
    assert seen["fit_loads_solver"]


FIT_SCRIPT = r"""
import json, sys

import numpy as np

from repro.core.model import IFair
from repro.core.objective import IFairObjective
from repro.utils import blas

first = sys.argv[1] == "first"
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
if first:
    import scipy.optimize
before = blas.thread_counts()  # resolves the controller's libraries
seen = []
loss_and_grad = IFairObjective.loss_and_grad


def spy(self, theta):
    seen.append(blas.thread_counts())
    return loss_and_grad(self, theta)


IFairObjective.loss_and_grad = spy
X = np.random.default_rng(5).normal(size=(400, 30))
model = IFair(n_prototypes=5, n_restarts=2, max_iter=15, random_state=3).fit(X, [29])
print(json.dumps({
    "before": before,
    "in_oracle": sorted({name for counts in seen for name in counts}),
    "oracle_counts": sorted({n for counts in seen for n in counts.values()}),
    "after": blas.thread_counts(),
    "theta": model.theta_.tobytes().hex(),
}))
"""


def test_solver_imported_inside_a_fit_runs_at_one_thread():
    lazy = _run(FIT_SCRIPT, "lazy")
    first = _run(FIT_SCRIPT, "first")
    if not first["before"]:
        pytest.skip("no controllable OpenBLAS mapped")
    # Every OpenBLAS of the import-first process, SciPy's included, is
    # bound in the lazy one and runs at one thread inside the oracle.
    assert lazy["in_oracle"] == sorted(first["before"])
    assert lazy["oracle_counts"] == [1] == first["oracle_counts"]
    # SciPy's OpenBLAS gets its own count back when the fit's scope closes.
    assert lazy["after"] == first["before"] == first["after"]
    assert lazy["theta"] == first["theta"]


POOL_SCRIPT = r"""
import json, sys

from repro.core.executor import run_tasks


def solver_loaded(_):
    return "scipy.optimize" in sys.modules


before = "scipy.optimize" in sys.modules
print(json.dumps({
    "before": before,
    "workers": run_tasks(solver_loaded, [0, 1], n_jobs=2, backend="process"),
}))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_pool_worker_finds_solver_loaded():
    seen = _run(POOL_SCRIPT)
    assert seen == {"before": False, "workers": [True, True]}
