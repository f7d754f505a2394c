"""The package's import graph is one-way.

Three checks:

* every module-scope import (function bodies and ``if TYPE_CHECKING:``
  blocks excluded) points to an earlier layer of ``LAYERS``, so the
  subpackage graph is acyclic and follows the documented order;
* fresh interpreters load only the layers below what they import — the
  performance model without the functional runtime, and each half
  without the other;
* every subpackage imports on its own in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent

#: the layer order, bottom first: every subpackage, and the partition
#: leaf; a module imports only from its own layer and earlier ones
LAYERS = ["partition", "obs", "perf", "sim", "nn", "cluster", "comm", "core",
          "sched", "runtime", "baselines", "resilience", "tuning", "serve",
          "fleet", "analysis", "experiments"]

#: module -> subpackages a fresh ``import module`` must not load
FOOTPRINTS = {
    "repro": set(LAYERS),
    **{f"repro.{des}": {"nn", "runtime", "serve", "fleet", "analysis",
                        "baselines"}
       for des in ("core", "sim", "cluster", "comm")},
    "repro.nn": {"sim", "cluster", "comm", "core", "runtime", "analysis"},
    "repro.runtime": {"sim", "cluster", "comm", "core", "baselines",
                      "analysis"},
}

_PROBE = """\
import importlib, json, sys
importlib.import_module({name!r})
print(json.dumps(sorted({{m.split(".")[1] for m in sys.modules
                          if m.startswith("repro.")}})))
"""


def _layer_of(module: str):
    """The top-level subpackage / module of ``repro.<layer>...``."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _module_scope_imports(body):
    """Import statements that run when the module is imported."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _module_scope_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_scope_imports(getattr(node, field, []))


def _targets(node, module: str, is_package: bool):
    """Absolute module names an import statement may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = module if is_package else module.rpartition(".")[0]
    if node.level:
        parts = base.split(".")
        base = ".".join(parts[:len(parts) - node.level + 1])
        target = f"{base}.{node.module}" if node.module else base
    else:
        target = node.module
    # ``from pkg import sub`` may load ``pkg.sub``
    return [target] + [f"{target}.{alias.name}" for alias in node.names]


def layer_graph():
    """{layer: {layers it imports at module scope}, with the import
    sites of every edge}."""
    graph = {layer: set() for layer in LAYERS}
    sites = {}
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT.parent).with_suffix("")
        is_package = rel.name == "__init__"
        module = ".".join(rel.parts[:-1] if is_package else rel.parts)
        src = _layer_of(module)
        if src not in graph:
            continue  # the package root and ``__main__``
        tree = ast.parse(path.read_text(), str(path))
        for node in _module_scope_imports(tree.body):
            for target in _targets(node, module, is_package):
                dst = _layer_of(target)
                if dst in graph and dst != src:
                    graph[src].add(dst)
                    sites.setdefault((src, dst), f"{rel}.py:{node.lineno}")
    return graph, sites


def test_layers_are_every_subpackage():
    on_disk = {p.name for p in ROOT.iterdir() if (p / "__init__.py").is_file()}
    assert sorted(LAYERS) == sorted(on_disk | {"partition"})


def test_imports_point_down_the_layers():
    graph, sites = layer_graph()
    rank = {layer: i for i, layer in enumerate(LAYERS)}
    upward = [f"{src} imports {dst} ({sites[(src, dst)]})"
              for src in LAYERS for dst in sorted(graph[src])
              if rank[dst] > rank[src]]
    assert not upward, "imports against the layer order: " + "; ".join(upward)


@pytest.fixture(scope="module")
def loaded():
    """{module: subpackages a fresh interpreter loads importing it},
    probed concurrently; a failed import maps to its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    names = sorted(set(FOOTPRINTS) | {f"repro.{m}" for m in LAYERS})

    def probe(name):
        proc = subprocess.run([sys.executable, "-c", _PROBE.format(name=name)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        if proc.returncode:
            return name, proc.stderr
        return name, set(json.loads(proc.stdout))

    with ThreadPoolExecutor(max_workers=min(8, len(names))) as pool:
        return dict(pool.map(probe, names))


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_imports_alone(loaded, layer):
    result = loaded[f"repro.{layer}"]
    assert isinstance(result, set), result
    assert layer in result


@pytest.mark.parametrize("module", sorted(FOOTPRINTS))
def test_import_footprint(loaded, module):
    result = loaded[module]
    assert isinstance(result, set), result
    assert result & FOOTPRINTS[module] == set()
