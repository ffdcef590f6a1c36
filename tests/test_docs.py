"""The user docs name only what exists, quote each signature as the code
has it, and quote the chunk sizes that roter.chunk_size gives and the
program sizes that expr.jet builds; the modules read only each other's
public names.

Each backticked dotted reference in README.md and docs/*.md whose head
is a curvcheck module (or the package itself), one of the aliases the
code uses for them, or a class name (capitalised, so a curvcheck class)
resolves by getattr.  ROADMAP.md and CHANGES.md are history and are not
read.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import curvcheck
from curvcheck import cli, roter
from curvcheck import expr as ex
from curvcheck.corpus import corpus_get

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
MODULES = ("cli", "corpus", "curvops", "expr", "geomap", "geometry", "roter", "warped")
ALIASES = {"ex": "expr", "geo": "geometry", "gm": "geomap", "wp": "warped"}


def _heads() -> dict:
    """Each head a reference may start with, and what it names."""
    heads = {"curvcheck": curvcheck}
    for name in MODULES:
        heads[name] = importlib.import_module(f"curvcheck.{name}")
    for alias, name in ALIASES.items():
        heads[alias] = heads[name]
    for name in MODULES:
        for key, value in vars(heads[name]).items():
            if inspect.isclass(value) and value.__module__.startswith("curvcheck."):
                heads.setdefault(key, value)
    return heads


HEADS = _heads()


def _references() -> list:
    found = []
    for path in DOCS:
        for span in re.findall(r"`([^`\n]+)`", path.read_text(encoding="utf-8")):
            for ref in re.findall(r"(?<![\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span):
                head = ref.split(".")[0]
                if head in HEADS or head[0].isupper():
                    found.append((path.name, ref))
    return sorted(set(found))


def test_docs_have_references():
    assert len(_references()) >= 20


@pytest.mark.parametrize("where, ref", _references())
def test_reference_resolves(where, ref):
    head, *names = ref.split(".")
    obj = HEADS.get(head)
    assert obj is not None, f"{where}: `{ref}`: no curvcheck class {head}"
    for name in names:
        assert hasattr(obj, name), f"{where}: `{ref}`: {name} not found"
        obj = getattr(obj, name)


def _callable(name: str):
    """The one public curvcheck callable a quoted name names, or None:
    mod.name (or a longer path from a module or a class), a unique bare
    name, or Class.method."""
    head, *rest = name.split(".")
    if not rest:
        found = {id(obj): obj for module in MODULES
                 for key, obj in vars(HEADS[module]).items() if key == head and callable(obj)
                 and getattr(obj, "__module__", "").startswith("curvcheck.")}
        obj = next(iter(found.values())) if len(found) == 1 else None
    else:
        obj = HEADS.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
    return obj if callable(obj) and not name.split(".")[-1].startswith("_") else None


def _signature_quotes() -> list:
    """(doc, name, quoted parameter names) of each backticked span that is
    name(params) alone, its params names with defaults allowed, naming a
    curvcheck callable; a call inside a longer span is an example."""
    found = []
    for path in DOCS:
        for span in re.findall(r"`([^`\n]+)`", path.read_text(encoding="utf-8")):
            quote = re.fullmatch(r"([A-Za-z_][\w.]*)\(([^()]*)\)", span)
            if quote:
                names = [param.split("=")[0].strip() for param in quote[2].split(",")]
                if all(map(str.isidentifier, names)) and _callable(quote[1]) is not None:
                    found.append((path.name, quote[1], tuple(names)))
    return sorted(set(found))


def test_docs_quote_signatures():
    assert len(_signature_quotes()) >= 20


@pytest.mark.parametrize("where, name, quoted", _signature_quotes())
def test_quoted_signature_is_the_code(where, name, quoted):
    # A class quotes its __init__'s parameters, which signature gives.
    params = [p.name for p in inspect.signature(_callable(name)).parameters.values()]
    if params[:1] == ["self"]:  # a method quoted through its class
        params = params[1:]
    assert tuple(params) == quoted, f"{where}: `{name}`"


@pytest.mark.parametrize("where", ["README.md", "docs/report-format.md"])
def test_quoted_chunk_sizes_are_the_rule(where):
    # Each doc quotes the chunk size at n = 4 to 7 as "<points> at n = <n>".
    text = " ".join((ROOT / where).read_text(encoding="utf-8").split())
    quoted = {int(n): int(size) for size, n in re.findall(r"(\d+) at n = (\d+)", text)}
    assert quoted == {n: roter.chunk_size(n) for n in range(4, 8)}


def _tree_nodes(exprs) -> int:
    """Nodes of the expression trees, a shared subtree counted once per occurrence."""
    size: dict = {}

    def count(e) -> int:
        if id(e) not in size:
            children = [getattr(e, f) for f in ("arg", "lhs", "rhs", "base") if hasattr(e, f)]
            size[id(e)] = 1 + sum(map(count, children))
        return size[id(e)]
    return sum(map(count, exprs))


def test_quoted_program_size_is_the_program(monkeypatch):
    # docs/expr-grammar.md quotes the tree nodes and temporaries of
    # theorem41_c_neg_n6's one program, and the temporaries of the
    # members' own programs, each built anew past expr._jet_build's cache.
    text = " ".join((ROOT / "docs" / "expr-grammar.md").read_text(encoding="utf-8").split())
    quoted = re.search(r"has ([\d,]+) tree nodes and compiles to (\d+) temporaries, where the "
                       r"two members' own programs compile to (\d+)", text)
    job = cli.build_job(corpus_get("theorem41_c_neg_n6")["manifolds"][0])
    built, compile_exprs = [], ex.compile_exprs
    monkeypatch.setattr(ex, "compile_exprs", lambda exprs, *rest:
                        built.append((exprs, compile_exprs(exprs, *rest))) or built[-1][1])
    source, image = (target.spec for target in job.targets)
    own = image.dim ** 2 + len(image.extras)
    for spec, count in ((source, None), (source, own), (image, own)):
        outputs = (tuple(e for row in spec.components for e in row) + spec.extras)[:count]
        ex._jet_build.__wrapped__(outputs, spec.coords, tuple(sorted(spec.bindings)), 2)
    (merged, program), *members = built
    assert quoted.groups() == (f"{_tree_nodes(merged):,}", str(len(program.nodes)),
                               str(sum(len(p.nodes) for _, p in members)))


def _private_sibling_reads(path: Path) -> list:
    """(line, module.name) for each underscore name path reads from a sibling module.

    A module's public surface is every name without a leading underscore
    (dunders aside): a read through an import alias (geo.frame) or a
    from-import (from .curvops import x) must name a public one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import curvcheck.geometry as geo
            aliases.update((a.asname, a.name.split(".")[-1]) for a in node.names
                           if a.asname and a.name.startswith("curvcheck."))
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "curvcheck"):  # from . import geometry as geo
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif module.startswith((".", "curvcheck.")):  # from .curvops import x
                reads += [(node.lineno, module.split(".")[-1], a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.append((node.lineno, aliases[node.value.id], node.attr))
    return [(line, f"{module}.{name}") for line, module, name in reads
            if name.startswith("_") and not name.endswith("__")]


@pytest.mark.parametrize("name", MODULES)
def test_modules_read_no_private_sibling_name(name):
    private = _private_sibling_reads(ROOT / "src" / "curvcheck" / f"{name}.py")
    assert private == [], f"{name}.py reads private names of other modules"


@pytest.mark.parametrize("source, private", [
    ("from . import geometry as geo\ngeo._DET_RATIO\n", [(2, "geometry._DET_RATIO")]),
    ("from .curvops import _normalized, lane_norms\n", [(1, "curvops._normalized")]),
    ("from curvcheck import expr\nexpr._jet_build\n", [(2, "expr._jet_build")]),
    ("import curvcheck.roter as r\nr._PRODUCTS\n", [(2, "roter._PRODUCTS")]),
    ("from curvcheck.cli import _record\n", [(1, "cli._record")]),
    ("from . import expr as ex\nex.jet\nex.__name__\n", []),
])
def test_private_sibling_reads_are_seen(tmp_path, source, private):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert _private_sibling_reads(path) == private
