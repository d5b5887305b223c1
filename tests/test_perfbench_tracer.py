"""The benchmark's tracer still finds every name it wraps in the package.

``perfbench/run.py --trace 1`` wraps library functions from outside the
package by name (``perfbench/tracing.py``); a library name that is
renamed, moved or loses its cache would break traced runs only.
"""

import importlib.util
from pathlib import Path

import morasslab.cli  # noqa: F401  the package's __init__ does not import the command line

from conftest import o


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(frag0):
    tracing = _load_tracing()
    mods = {m.__name__.rpartition(".")[2]: m for m in tracing.package_modules()}
    morass = mods["morass"]
    originals = {name: getattr(morass, name) for name in ("mu", "family", "predecessor_vector")}
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
        tracer.begin(0)
        morass.mu(frag0, o("3"), o("w+3"))
        morass.family(frag0, 0, 1)
        tracer.end()
    finally:
        tracer.uninstall()
    assert {"morass.mu", "morass.family", "morass.map_built", "morass.predecessor_vector"} <= set(tracer.counts)
    assert set(tracer.cache_misses) == set(tracing.CACHES)
    assert all(getattr(morass, name) is fn for name, fn in originals.items())
