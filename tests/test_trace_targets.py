"""The benchmark's tracer finds, wraps and restores every callable it names.

perfbench/tracing.py looks its targets up by module and attribute name, so
deleting or renaming one would make `perfbench/run.py --trace 1` raise at
install().  Installing and uninstalling the tracer here turns that into a
failure of this suite, and running each counting hook once does the same for
a hook that reads an attribute the program no longer has.
"""

import sys
from pathlib import Path

import numpy as np

import lpadapt.calibration as calibration
import lpadapt.cli  # noqa: F401  (loads every lpadapt module the tracer rebinds)
import lpadapt.fll_selector as fll
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder, default_h1

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every lpadapt module, and the traced methods of their classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lpadapt" or name.startswith("lpadapt.")):
            found.update({(name, key): value for key, value in vars(mod).items()})
    for targets in tracing.SPANS.values():
        for owner, attr in targets:
            if not isinstance(owner, str):
                found[(owner, attr)] = owner.__dict__[attr]
    return found


def test_every_traced_callable_is_wrapped_then_restored():
    before = _bindings()
    for targets in tracing.SPANS.values():
        for owner, attr in targets:
            assert (owner, attr) in before, f"{owner}.{attr} does not exist"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
        for targets in tracing.SPANS.values():
            for owner, attr in targets:
                assert during[(owner, attr)] is not before[(owner, attr)], f"{owner}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"not restored: {changed}"


def test_every_hook_reads_what_it_needs():
    """Each counting hook runs once on a small call of its layer without raising."""
    n, K = 120, 3
    pts = np.linspace(0.0, 1.0, n)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        ld = LadderDesign(Basis.polynomial(1), ScaleLadder.geometric(default_h1(n, 2), K, growth=1.5), pts, 0.5, np.ones(n))
        y = calibration.replicate_noise(7, 0, n)
        trace = fll.select_adaptive(ld.fit(y), np.full(K - 1, 4.0))
        ens = calibration.SelectionEnsemble.pure_noise(ld, 50, 3)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["trace.span_errors"] == 0
    for span in ("local_model.design", "calibration.noise", "fll_selector.select", "calibration.ensemble"):
        assert metrics[f"{span}.calls"] == 1, span
    assert metrics["local_model.design.entries"] == K * n
    assert metrics["calibration.noise.draws"] == n
    assert metrics["fll_selector.early_stop_ratio"] == (trace.k_hat < K)
    assert metrics["calibration.ensemble.bytes"] > ens.T.nbytes
