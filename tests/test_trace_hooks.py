"""Every hook of the benchmark's tracer names a function piisub still has.

The tracer (`perfbench/tracer.py`) replaces module globals and methods by
name, and its install fails on a name that is gone. Resolving every hook
here makes a refactor that drops a hooked name fail the unit tests too.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("piisub_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


HOOKS = [(module, path) for module, path, _ in (*tracer.SPAN_HOOKS, *tracer.COUNT_HOOKS)]


@pytest.mark.parametrize("module, path", HOOKS, ids=[f"{m}:{p}" for m, p in HOOKS])
def test_every_hook_target_resolves(module, path):
    owner, attr, target = tracer._resolve(module, path)
    assert getattr(owner, attr) is target and callable(target)
