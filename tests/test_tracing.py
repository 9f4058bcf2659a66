"""bench/tracing.py binds functions of the package by module and name.
A deletion in src/ that breaks one of them fails here, not only when a
traced benchmark run calls ``install()``."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # without install(): nothing is wrapped
    for module, name in [*tracing.TIMED.values(), *tracing.COUNTED.values()]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for prefix, cached in tracing.CACHES.items():
        assert callable(getattr(cached, "cache_info", None)), prefix
