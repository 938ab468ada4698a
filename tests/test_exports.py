"""The package's public names all resolve, and its modules keep their layers."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import gmrank

SOURCE = Path(gmrank.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in gmrank.__all__ if not hasattr(gmrank, name)]
    assert missing == []
    assert len(set(gmrank.__all__)) == len(gmrank.__all__)


def package_imports(tree):
    """Names of the gmrank modules a module's syntax tree imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("gmrank"):
                continue
            module = (node.module or "").removeprefix("gmrank").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:                       # from . import cache, tableio
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("gmrank."))
    return found


@pytest.mark.parametrize("module, allowed", [
    ("graph", set()),
    ("rank", {"graph"}),
    ("cache", {"graph", "rank"}),
    ("registry", set()),
    ("aggregate", {"registry"}),
    ("cultures", {"rank", "registry"}),
])
def test_lower_layers_import_only_below(module, allowed):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    assert package_imports(tree) <= allowed


def test_cache_holds_no_csv_writer():
    tree = ast.parse((SOURCE / "cache.py").read_text(encoding="utf-8"))
    writers = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("write_") and node.name.endswith("_csv")]
    assert writers == []


@pytest.mark.parametrize("kind", ["graph", "vector", "persons"])
def test_artifact_codecs_take_the_stream_first(kind):
    # every kind is written and read through a stream, so no adapter turns
    # a writer into bytes
    from gmrank import cache
    for name in (f"write_{kind}", f"read_{kind}"):
        parameters = list(inspect.signature(getattr(cache, name)).parameters)
        assert parameters[0] == "stream", name


def test_cache_defines_no_encoder():
    tree = ast.parse((SOURCE / "cache.py").read_text(encoding="utf-8"))
    encoders = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("encode_")]
    assert encoders == []


def test_cache_does_not_reach_registry():
    # the registry artifact codec returns plain columns; cli builds the
    # registry, so no chain of imports leads from cache to registry
    reached, todo = set(), ["cache"]
    while todo:
        module = todo.pop()
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        for name in package_imports(tree) - reached:
            reached.add(name)
            todo.append(name)
    assert "registry" not in reached


SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """The benchmark tracer, loaded by path: ``benchmarks`` is no package."""
    spec = importlib.util.spec_from_file_location("gmrank_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    # the tracer patches these by name; a rename would silently zero a metric
    missing = [f"{module}.{name}" for module, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert missing == []
    for module in spans.RESOLVERS:
        importlib.import_module(module)


def test_tracer_hooks_outside_traced_exist():
    from gmrank import graph, registry, tableio
    assert callable(graph.DirectedGraph.from_edges.__func__)
    assert callable(tableio.atomic_write)
    assert callable(registry.Person.title_in)


def entries_readers(module):
    """Top-level definitions of ``module`` that read an ``.entries`` attribute."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    return {getattr(node, "name", "<module>") for node in tree.body
            if any(isinstance(n, ast.Attribute) and n.attr == "entries"
                   for n in ast.walk(node))}


def test_tables_walk_top_lists_through_appearances():
    # every per-person tally reads the lists through registry.appearances;
    # only the two rank readers keep their own loops over list entries
    assert entries_readers("aggregate") == {"global_ranking", "theta_score"}
    assert entries_readers("cultures") == set()


def test_one_writer_knows_the_distribution_format():
    # locality and gender files are written as distribution tables, so no
    # other tableio function spells out the long-form header
    tree = ast.parse((SOURCE / "tableio.py").read_text(encoding="utf-8"))
    readers = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(n, ast.Name) and n.id == "DISTRIBUTION_HEADER"
                       for n in ast.walk(node))}
    assert readers == {"write_distribution_csv"}
