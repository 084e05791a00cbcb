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


def _uses(names, owner):
    """Per module but ``owner``: the (line, name) of every call of one of the
    names, and of every import of one outside the package's __init__.py,
    which may import them to re-export."""
    found = {}
    for path in SOURCES:
        if path.name == owner:
            continue
        hits = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                hits += [(node.lineno, a.name) for a in node.names if a.name in names]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    hits.append((node.lineno, name))
        found[path.name] = hits
    return found


def test_no_stage_builds_a_composite():
    # Every multi-step witness is kept as its factor chain and applied in
    # turn, so only endo.py composes.
    found = _uses({"compose", "compose_all", "limit_compose"}, "endo.py")
    assert "qp_mutation.py" in found and "normalize.py" in found
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}


def test_only_jacobian_derives_the_generators():
    # quotient_dimension derives the generators and their largest length
    # once and chooses the degree from them, so no other module derives
    # them to choose a degree.
    found = _uses({"jacobian_generators"}, "jacobian.py")
    assert "cli.py" in found
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}
