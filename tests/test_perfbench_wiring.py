"""The repository benchmark stays wired to the program it measures.

``perfbench`` observes the program only through the layer boundaries in
``perfbench.layers.BOUNDARIES`` and the fluid-engine counters it reads from
``CpuModel.engine_stats()``.  A rename under ``src/repro`` would make a
traced run fail or silently report zeros, so both are checked here.
"""

import ast
import importlib
import pathlib

import pytest

from perfbench import layers
from repro.core import RunConfig, run_fft_phase

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for _layer, owner, attr in layers.BOUNDARIES + layers.COROUTINE_BOUNDARIES],
)
def test_boundary_resolves_in_src(owner, attr):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    assert pathlib.Path(module.__file__).resolve().is_relative_to(SRC)
    target = getattr(module, class_name) if class_name else module
    assert callable(getattr(target, attr))


def _engine_keys_read_by_layers():
    """Every ``engine.get("<key>", ...)`` in :func:`layers.summarize_run`."""
    tree = ast.parse(pathlib.Path(layers.__file__).read_text())
    keys = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "engine"
        ):
            keys.add(node.args[0].value)
    return keys


def test_engine_stats_carry_every_key_layers_reads():
    keys = _engine_keys_read_by_layers()
    assert {"n_rebalances", "n_coalesced", "alloc_cache_hits"} <= keys
    result = run_fft_phase(
        RunConfig(ranks=2, taskgroups=2, ecutwfc=12.0, alat=5.0, nbnd=4)
    )
    assert keys <= result.cpu.engine_stats().keys()
