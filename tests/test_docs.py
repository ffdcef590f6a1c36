"""The user docs name only what exists, and quote the chunk sizes that
roter.chunk_size gives and the program sizes that expr.jet builds.

Each backticked dotted reference in README.md and docs/*.md whose head
is a curvcheck module (or the package itself), one of the aliases the
code uses for them, or a class name (capitalised, so a curvcheck class)
resolves by getattr.  ROADMAP.md and CHANGES.md are history and are not
read.
"""

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
