"""The benchmark's tracer finds, wraps and restores every callable it names.

perfbench/tracing.py looks its targets up by module and attribute name, so
deleting or renaming one would make `perfbench/run.py --trace 1` raise at
install().  Installing and uninstalling the tracer here turns that into a
failure of this suite.
"""

import sys
from pathlib import Path

import lpadapt.cli  # noqa: F401  (loads every lpadapt module the tracer rebinds)

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
