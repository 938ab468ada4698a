"""The package's public names all resolve, and its modules keep their layers."""
import ast
import importlib
import importlib.util
import inspect
import struct
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


@pytest.mark.parametrize("module", ["aggregate", "cultures", "tableio", "cli"])
def test_century_worked_out_only_when_a_person_is_built(module):
    # a Person carries its century, so no layer above works it out again
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    refs = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "century_of"
            or isinstance(node, ast.Attribute) and node.attr == "century_of"
            or isinstance(node, ast.alias) and node.name == "century_of"]
    assert refs == []


def _google_defaults(tree):
    """Line numbers of the literals 0.85, 1e-10 and 1000 in ``tree``, the
    body of ``GoogleParams`` left out."""
    skip = {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GoogleParams"
            for node in ast.walk(cls)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in skip
            and type(node.value) in (int, float)
            and node.value in (0.85, 1e-10, 1000)]


@pytest.mark.parametrize("module", sorted(
    path.stem for path in SOURCE.glob("*.py") if path.stem != "selfcheck"))
def test_google_defaults_spelled_only_in_google_params(module):
    # every other default reads GoogleParams; selfcheck's values are
    # oracle inputs, not defaults
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    assert _google_defaults(tree) == []


@pytest.mark.parametrize("module", sorted(
    path.stem for path in SOURCE.glob("*.py")))
def test_no_caller_hands_a_graph_its_derived_fields(module):
    # a graph works out its node count and out-degrees from its edges
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    passed = [(node.lineno, keyword.arg) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and (getattr(node.func, "id", None)
                   or getattr(node.func, "attr", None)) == "DirectedGraph"
              for keyword in node.keywords
              if keyword.arg in ("node_count", "out_degree")]
    assert passed == []


def test_cli_names_no_artifact_version():
    # a key holds no version: each header keeps its own, so a file of an
    # older version is a miss rewritten under the same name
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    versions = {"VERSION", "GRAPH_VERSION", "PERSONS_VERSION"}
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in versions
             or isinstance(node, ast.Attribute) and node.attr in versions
             or isinstance(node, ast.alias) and node.name in versions]
    assert named == []


def test_cli_writes_files_only_in_its_writers():
    # every command writes its outputs through _write_outputs alone, after
    # all of them are computed, so no write can fall between two
    # computations; cache artifacts are written through _cached
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    callers = sorted(function.name for function in tree.body
                     if isinstance(function, ast.FunctionDef)
                     for node in ast.walk(function)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "atomic_write")
    assert callers == ["_cached", "_write_outputs"]


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


def test_persons_reader_takes_only_the_stream():
    # the reader checks its format; the registry it feeds checks the columns
    from gmrank import cache
    assert list(inspect.signature(cache.read_persons).parameters) == ["stream"]


@pytest.mark.parametrize("module", sorted(
    path.stem for path in SOURCE.glob("*.py") if path.stem != "registry"))
def test_titles_read_only_through_the_registry(module):
    # titles are read through Person.title_in or title_index, so the rule
    # that an empty EN title is the person_id is spelled in registry.py alone
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "title"]
    assert calls == []


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


def test_refused_vector_traced_as_one_miss(spans, tmp_path):
    # the codec refuses a vector stored under another alpha by raising, so
    # the tracer counts no hit, and the recomputed vector's write is the miss
    from gmrank.cli import main
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nb c\nc a\na c\n")
    args = ["rank", str(graph), "--labels", "--cache-dir",
            str(tmp_path / "cache"), "--out", str(tmp_path / "o.csv")]
    assert main(args) == 0
    vector_file = next((tmp_path / "cache").glob("*.gmrk"))
    good = vector_file.read_bytes()
    vector_file.write_bytes(good[:7] + struct.pack("<d", 0.5) + good[15:])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(args) == 0
    finally:
        tracer.uninstall()
    values, _ = spans.layer_metrics(tracer.take(), 0.0)
    assert (values["cache.hits"], values["cache.misses"]) == (0, 1)
    assert vector_file.read_bytes() == good


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


def is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_no_wrapper_dataclass():
    # a dataclass of one field and no methods adds a name, not a behaviour:
    # pass the field itself
    wrappers = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and any(
                    is_dataclass_decorator(d) for d in node.decorator_list)):
                continue
            fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
            methods = [n for n in node.body if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if len(fields) == 1 and not methods:
                wrappers.append(f"{path.stem}.{node.name}")
    assert wrappers == []


def _reads_text(call):
    """Whether a call opens a file in text mode or reads it as text."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name == "read_text":
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    return not any(isinstance(mode, ast.Constant) and "b" in mode.value
                   for mode in modes)


def test_cli_opens_text_only_through_its_reader():
    # one reader decodes every user text file and names it in each error;
    # cache artifacts are opened "rb"
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    reader = {id(node) for function in tree.body
              if isinstance(function, ast.FunctionDef)
              and function.name == "_open_input"
              for node in ast.walk(function)}
    sites = {node.lineno for node in ast.walk(tree) if id(node) not in reader
             and (isinstance(node, ast.Name) and node.id == "TEXT_ENCODING"
                  and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Call) and _reads_text(node))}
    assert sorted(sites) == []
    assert reader
