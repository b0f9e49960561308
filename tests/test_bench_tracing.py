"""bench/tracing.py still finds every name it wraps in envcover.

The benchmark's checks run untraced, so a name that src no longer has would
otherwise surface only in a traced run, as an AttributeError at install.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_and_restores_every_target():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracing._targets(tracer)]
    originals = [getattr(owner, attr) for owner, attr in targets]
    try:
        tracer.install()
        assert [(owner, attr) for owner, attr, _ in tracer._saved] == targets
        for (owner, attr), fn in zip(targets, originals):
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(targets, originals):
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr}"
