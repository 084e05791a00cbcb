"""Rules the package's source code keeps."""

import ast
import importlib.util
import pathlib

import qpsurf
import qpsurf.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qpsurf").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so invariants are explicit raises
    found = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Assert)]
        for path in SOURCES
    }
    assert "cli.py" in found
    assert not any(found.values()), {name: lines for name, lines in found.items() if lines}


def test_benchmark_tracer_finds_every_boundary():
    # perfbench/tracer.py patches functions and methods by name; a renamed
    # one would otherwise surface only when the benchmark itself runs.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    install, add = qpsurf.jacobian._install, qpsurf.jacobian._Kills.add
    t = tracer.Tracer()
    try:
        t.install(qpsurf)
        assert qpsurf.jacobian._install is not install
        assert qpsurf.jacobian._Kills.add is not add
    finally:
        t.uninstall()
    assert qpsurf.jacobian._install is install
    assert qpsurf.jacobian._Kills.add is add


COMPOSERS = {"compose", "compose_all", "limit_compose"}


def test_no_stage_builds_a_composite():
    # Every multi-step witness is kept as its factor chain and applied in
    # turn, so only endo.py composes.  The package's __init__.py may import
    # the composers to re-export them, but calls none.
    found = {}
    for path in SOURCES:
        if path.name == "endo.py":
            continue
        hits = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                hits += [(node.lineno, a.name) for a in node.names if a.name in COMPOSERS]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in COMPOSERS:
                    hits.append((node.lineno, name))
        found[path.name] = hits
    assert "qp_mutation.py" in found and "normalize.py" in found
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}
