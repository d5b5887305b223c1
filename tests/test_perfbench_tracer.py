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
    morass, structures = mods["morass"], mods["structures"]
    originals = {name: getattr(morass, name) for name in ("mu", "family", "predecessor_vector")}
    layer_init = structures.Layer.__init__
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
        tracer.begin(0)
        morass.mu(frag0, o("3"), o("w+3"))
        morass.family(frag0, 0, 1)
        struct = structures.CStructure(frag0, 2, structures.SetElement(()))
        layer = structures.enumerate_layer(struct, [o("3"), o("w+3")])
        tracer.end()
    finally:
        tracer.uninstall()
    assert {"morass.mu", "morass.family", "morass.map_built", "morass.predecessor_vector"} <= set(tracer.counts)
    # the figures behind --trace 1's layers_built and catalog_entries
    assert tracer.counts["structures.layer_built"] == 1
    assert tracer.sums["structures.layer_built"] == len(layer) == 7
    assert structures.Layer.__init__ is layer_init
    assert set(tracer.cache_misses) == set(tracing.CACHES)
    assert all(getattr(morass, name) is fn for name, fn in originals.items())
    # the tracer counts ordinal comparisons by patching __lt__, which OrdinalCNF inherits from tuple
    assert mods["ordinal"].OrdinalCNF.__lt__ is tuple.__lt__
