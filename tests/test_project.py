"""Tests of the project metadata in pyproject.toml, of the package layering,
of the import cost and of the benchmark's tracer targets and imports."""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tightnav import configure_logging

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "tightnav"

# The README's layer order: each module imports only from modules to its left.
CHAIN = ["dynamics", "geometry", "qp", "nlp", "obca", "supervisor", "predictor", "simulate"]
# Imports against that order, as (module, imported module, name); none is allowed.
EXEMPT = set()


def test_every_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert attr, f"script {name} names no attribute: {target}"
        assert callable(getattr(importlib.import_module(module), attr)), name


def lower_layers(module: str) -> set:
    """The package modules `module` may import from.

    `fileio` sits below everything; `scenario` builds on `obca` and the layers
    under it, and only `simulate` uses it.
    """
    if module == "fileio":
        return set()
    if module == "scenario":
        return {"fileio", *CHAIN[:CHAIN.index("obca") + 1]}
    below = {"fileio", *CHAIN[:CHAIN.index(module)]}
    return below | {"scenario"} if module == "simulate" else below


def package_imports(path: Path):
    """(imported module, imported names, at module level) for every import of
    a package module in the file, at any depth."""
    tree = ast.parse(path.read_text())
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module, [a.name for a in node.names], id(node) in top_level
            elif node.level == 1 or (node.level == 0 and node.module == "tightnav"):
                for alias in node.names:
                    yield alias.name, [], id(node) in top_level
            elif node.level == 0 and (node.module or "").startswith("tightnav."):
                yield (node.module.partition(".")[2], [a.name for a in node.names],
                       id(node) in top_level)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tightnav."):
                    yield alias.name.partition(".")[2], [], id(node) in top_level


def test_modules_import_only_lower_layers():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert set(modules) == {"fileio", "scenario", *CHAIN}, "place a new module in the layering"
    used = set()
    for module in modules:
        for target, names, top_level in package_imports(PACKAGE / f"{module}.py"):
            if target in lower_layers(module):
                continue
            exempt = {(module, target, name) for name in names}
            assert names and not top_level and exempt <= EXEMPT, \
                f"{module} imports {names or target} from the higher layer {target}"
            used |= exempt
    assert used == EXEMPT, "an exemption no longer names a real import"


def test_import_loads_no_scipy_subpackage_but_linalg():
    """Importing the package pulls in scipy.linalg and no other public scipy
    subpackage: each one adds set-up time to every process that imports it."""
    probe = ("import json, sys, tightnav.simulate; "
             "print(json.dumps(sorted({n.split('.')[1] for n, m in sys.modules.items() "
             "if n.startswith('scipy.') and n.count('.') == 1 and hasattr(m, '__path__') "
             "and not n.split('.')[1].startswith('_')})))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(out.stdout) == ["linalg"]


@functools.lru_cache(maxsize=None)
def read_names(path: Path) -> frozenset:
    """Every name the file's source reads."""
    return frozenset(node.id for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def used_beyond_import(module, name: str) -> bool:
    """Whether the module's source reads `name` anywhere but its import."""
    return name in read_names(Path(module.__file__))


def test_every_imported_name_is_used():
    """Each name a package module's imports bind, at any depth, is read
    beyond its import: an import left behind by deleted code would
    otherwise stay, and still cost its load."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "tightnav" if path.stem == "__init__" else f"tightnav.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.stem, name) for name in names
                       if not used_beyond_import(module, name)]
    assert not unused, f"imported but never read: {unused}"


def test_every_trace_target_is_an_attribute_of_its_owner():
    """perfbench's tracer wraps each (owner, attribute) of `spans.TARGETS`;
    a renamed or deleted function would otherwise surface only as a KeyError
    in a traced run.  A module-owned target must be defined in that module,
    or imported there and called beyond the import: one kept only so the
    tracer finds it would be wrapped but never called, and its layer's
    counts would read zero."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(getattr(owner, "__name__", owner), attr) for _, owner, attr, _ in spans.TARGETS
               if attr not in vars(owner)]
    assert not missing, f"trace targets not found: {missing}"
    idle = [(owner.__name__, attr) for _, owner, attr, _ in spans.TARGETS
            if inspect.ismodule(owner) and vars(owner)[attr].__module__ != owner.__name__
            and not used_beyond_import(owner, attr)]
    assert not idle, f"trace targets imported but never used by their owner: {idle}"


def test_perfbench_package_imports_resolve():
    """Every name perfbench imports from a package module, at any depth, is
    an attribute of that module.  No test runs `make_model.py`, whose
    imports sit inside a function, so a renamed package function would
    otherwise break it silently."""
    imported = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for target, names, _ in package_imports(path):
            module = importlib.import_module(f"tightnav.{target}")
            missing = [name for name in names if not hasattr(module, name)]
            assert not missing, f"{path.name} imports {missing} from {module.__name__}"
            imported.update(names)
    assert {"TrainConfig", "save_model", "train", "dataset_suite", "generate_dataset"} <= imported


@pytest.fixture
def restore_logging():
    """Put back the levels and handlers that `configure_logging` sets."""
    root, package = logging.getLogger(), logging.getLogger("tightnav")
    saved = root.level, list(root.handlers), package.level
    yield
    root.setLevel(saved[0])
    root.handlers[:] = saved[1]
    package.setLevel(saved[2])


@pytest.mark.parametrize("name, level", [
    ("debug", logging.DEBUG),
    ("ERROR", logging.ERROR),
    ("verbose", logging.WARNING),
    # A logging module attribute that is not a level name.
    ("basic_format", logging.WARNING),
])
def test_configure_logging_resolves_level_names(monkeypatch, restore_logging, name, level):
    monkeypatch.setenv("TIGHTNAV_LOG", name)
    configure_logging()
    assert logging.getLogger("tightnav").level == level
    configure_logging(name)
    assert logging.getLogger("tightnav").level == level


def test_digest_comparison_names_the_runs_that_differ(monkeypatch, tmp_path, capsys):
    """`closed_loop_digest.py --against FILE` names every run whose line
    differs from FILE's line for the same run or is missing from it, and
    exits 1 when there is one."""
    spec = importlib.util.spec_from_file_location("closed_loop_digest",
                                                  ROOT / "tests" / "closed_loop_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    lines = [{"name": "a", "scheme": "sg", "outcome": "completed", "steps": 70,
              "min_clearance": "0.05", "sha256": "00"},
             {"name": "a", "scheme": "bl", "outcome": "completed", "steps": 70,
              "min_clearance": "0.05", "sha256": "11"},
             {"name": "b", "scheme": "bl", "outcome": "timeout", "steps": 300,
              "min_clearance": "0.2", "sha256": "22"}]
    saved = [json.dumps(line) + "\n" for line in lines] + ["\n"]
    assert digest.differing_runs(lines, saved) == []
    assert digest.differing_runs(lines, saved[::-1]) == []
    changed = [dict(lines[0], sha256="01"), lines[1], dict(lines[2], steps=299)]
    assert digest.differing_runs(changed, saved) == ["a sg", "b bl"]
    assert digest.differing_runs(lines, saved[1:]) == ["a sg"]
    # The report splits the differing runs into outcome or step changes and
    # bit-only ones, and counts each scheme's outcomes on both sides.
    changed[0]["min_clearance"] = "0.0500000001"
    assert digest.comparison(changed, saved, "f") == [
        "2 of 3 runs differ from f: a sg, b bl",
        "outcome or steps changed: 1",
        "  b bl: timeout/300 → timeout/299",
        "clearance or bits only: 1, clearance moved by at most 2e-09 relative: a sg",
        "bl outcomes, f → this run: completed 1 → 1, timeout 1 → 1",
        "sg outcomes, f → this run: completed 1 → 1"]
    flipped = [dict(lines[0], outcome="emergency_braked", steps=40)]
    assert digest.comparison(flipped, saved[1:], "f") == [
        "1 of 1 runs differ from f: a sg",
        "outcome or steps changed: 1",
        "  a sg: none → emergency_braked/40",
        "clearance or bits only: 0, clearance moved by at most 0 relative",
        "bl outcomes, f → this run: completed 1 → 0, timeout 1 → 0",
        "sg outcomes, f → this run: emergency_braked 0 → 1"]
    # Through main, with each run's digest stubbed.
    runs = [(line["name"], ("suite", i), line["scheme"]) for i, line in enumerate(lines)]
    monkeypatch.setattr(digest, "DEFAULT_RUNS", runs)
    monkeypatch.setattr(digest, "digest", lambda run: changed[runs.index(run)])
    path = tmp_path / "saved.txt"
    path.write_text("".join(saved))
    with pytest.raises(SystemExit) as stop:
        digest.main(["--against", str(path)])
    assert stop.value.code == 1
    out, err = capsys.readouterr()
    assert [json.loads(line) for line in out.splitlines()] == changed
    assert "2 of 3 runs differ" in err and "a sg, b bl" in err
    assert "  b bl: timeout/300 → timeout/299" in err.splitlines()
    monkeypatch.setattr(digest, "digest", lambda run: lines[runs.index(run)])
    digest.main(["--against", str(path)])
    assert "all 3 runs match" in capsys.readouterr().err


def test_every_bench_record_names_benchmark_workloads_and_metrics():
    """Each `BENCH_*.json` at the repository root parses, and every perfbench
    result line it holds, and every summary row, names a workload and
    end-to-end metrics that BENCHMARK.json lists; every result line is
    `correct`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert record["runs"], path.name
        for run in record["runs"]:
            where = (path.name, run["workload"], run["side"], run["seed"])
            assert run["workload"] in workloads, where
            assert run["result"]["metrics"] and set(run["result"]["metrics"]) <= metrics, where
            assert run["result"]["correct"] is True, where
        for workload, table in record.get("summary", {}).items():
            assert workload in workloads and set(table) <= metrics, (path.name, workload)
