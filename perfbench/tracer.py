"""Span recorder for the traced benchmark run.

The tracer wraps public functions of the curvcheck layers from outside
the package: each wrapped call records a span (name, start, end, parent
span, chart dimension) in memory, and a few wrappers also add counts.
Nothing under ``src/`` knows about it.

A function imported by name (``from .curvops import tachibana``) lives
in several module namespaces at once; ``install`` replaces the function
object wherever it appears, and ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute).  Several attributes may share a span
# name; their calls and self time are then reported together.
WRAPPED = (
    ("expr.diff", "expr", "diff"),
    ("expr.compile_exprs", "expr", "compile_exprs"),
    ("expr.evaluate", "expr", "evaluate"),
    ("geometry.frame", "geometry", "frame"),
    ("geometry.admissible", "geometry", "admissible"),
    ("geometry.covariant_derivative_02", "geometry", "covariant_derivative_02"),
    ("geometry.second_bianchi_residual", "geometry", "second_bianchi_residual"),
    ("curvops.derivation_apply", "curvops", "derivation_apply"),
    ("curvops.tachibana", "curvops", "tachibana"),
    ("curvops.kulkarni_nomizu", "curvops", "kulkarni_nomizu"),
    ("curvops.proportionality", "curvops", "proportionality"),
    ("curvops.rank_shift", "curvops", "rank_shift"),
    ("roter.classify", "roter", "classify"),
    ("roter.fit_roter", "roter", "fit_roter"),
    ("roter.identity_suite", "roter", "identity_suite"),
    ("roter.pseudosymmetry_factors", "roter", "pseudosymmetry_factors"),
    ("roter.ricci_pseudosymmetry", "roter", "ricci_pseudosymmetry"),
    ("roter.rank_grid_exceeds_one", "roter", "rank_grid_exceeds_one"),
    ("warped.diagnostics", "warped", "diagnostics"),
    ("warped.verify", "warped", "verify_product_christoffels"),
    ("warped.verify", "warped", "verify_curvature_blocks"),
    ("warped.verify", "warped", "verify_weyl_blocks"),
    ("warped.verify", "warped", "verify_proportional_blocks"),
    ("warped.verify", "warped", "t_proportionality_residual"),
    ("warped.assemble", "warped", "assemble"),
    ("geomap.build_family", "geomap", "build_family"),
    ("cli.sample_points", "cli", "sample_points"),
    ("cli.run_manifest", "cli", "run_manifest"),
    ("cli.write_report", "cli", "write_report"),
)

# Residual functions of the geodesic suite, each its own span.
GEOMAP_RESIDUALS = (
    "geodesic_compatibility_residual",
    "christoffel_shift_residual",
    "ricci_shift_residual",
    "pair_christoffel_closed_forms",
    "warp_compatibility_residuals",
    "family_psi_closed_forms",
    "family_image_ricci_forms",
    "warp_profile_pde_residuals",
    "base_gauss_values",
    "factor_relations",
    "psi_ricci_identity_residual",
    "profile_invariant_residual",
)
WRAPPED += tuple((f"geomap.{name}", "geomap", name) for name in GEOMAP_RESIDUALS)

CURVOPS = ("derivation_apply", "tachibana", "kulkarni_nomizu", "proportionality", "rank_shift")
ROTER = ("classify", "fit_roter", "identity_suite", "pseudosymmetry_factors",
         "ricci_pseudosymmetry", "rank_grid_exceeds_one")
SPLIT_DIMS = (4, 5, 6)

# Tracer-side work (counting AST nodes) gets its own span so that it is
# excluded from the self time of the layer that called into the tracer.
TRACER_SPAN = "trace.bookkeeping"


def _curvops_dim(args) -> int:
    shape = getattr(args[0], "shape", ())
    return int(shape[0]) if shape else 0


def _frame_dim(args) -> int:
    return int(args[0].dim)


def ast_counts(exprs) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) of a list of expression trees.

    Tree nodes count a shared subtree once per occurrence, as a
    tree-walk would visit it; distinct nodes count equal subtrees once.
    Linear in the number of node objects: sizes and structural keys are
    memoised by object identity.
    """
    size: dict[int, int] = {}
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    tree_nodes = 0
    for root in exprs:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            nid = id(node)
            if nid in size:
                continue
            children = _children(node)
            if not expanded and children:
                stack.append((node, True))
                stack.extend((c, False) for c in children if id(c) not in size)
                continue
            payload = tuple(getattr(node, f) for f in _PAYLOAD[type(node).__name__])
            key = (type(node).__name__, payload, tuple(key_of[id(c)] for c in children))
            key_of[nid] = interned.setdefault(key, len(interned))
            size[nid] = 1 + sum(size[id(c)] for c in children)
        tree_nodes += size[id(root)]
    return tree_nodes, len(interned)


_PAYLOAD = {"Num": ("value",), "Const": ("name",), "Var": ("name",),
            "Unary": ("op",), "Bin": ("op",), "IntPow": ("power",)}


def _children(node) -> tuple:
    kind = type(node).__name__
    if kind == "Unary":
        return (node.arg,)
    if kind == "Bin":
        return (node.lhs, node.rhs)
    if kind == "IntPow":
        return (node.base,)
    return ()


class Tracer:
    """Records spans and counts; owns the wrappers it installs."""

    def __init__(self):
        self.spans: list = []  # (name, parent index, start, end, dim)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._installed: list = []  # (owner, attribute, original)
        self._frames: set = set()
        self._frame_specs: dict = {}  # keeps specs alive so ids stay unique

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, dim_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            dim = dim_of(args) if dim_of is not None else 0
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, parent, start, end, dim)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    # -- per-layer extras --------------------------------------------------

    def _after_compile(self, args, kwargs, program):
        exprs = list(kwargs.get("exprs", args[0] if args else ()))

        def count():
            tree_nodes, distinct = ast_counts(exprs)
            self._count("expr.compile_exprs.exprs", len(exprs))
            self._count("expr.compile_exprs.tree_nodes", tree_nodes)
            self._count("expr.compile_exprs.distinct_nodes", distinct)

        self.wrap(TRACER_SPAN, count)()
        return self.wrap("expr.program", program)

    def _after_frame(self, args, kwargs, result):
        spec, point = args[0], tuple(float(v) for v in args[1])
        self._frame_specs[id(spec)] = spec
        self._frames.add((id(spec), point))
        return result

    def _bytes_out(self, name):
        def after(args, kwargs, result):
            self._count(f"{name}.bytes_out", int(result.nbytes))
            return result
        return after

    def _after_sample(self, args, kwargs, accepted):
        self._count("cli.sample.attempts")
        if accepted:
            self._count("cli.sample.accepted")
        return accepted

    def _after_run_manifest(self, args, kwargs, result):
        self._count("cli.records", len(result[0]))
        return result

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever curvcheck binds it."""
        from curvcheck import cli

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "curvcheck" or n.startswith("curvcheck.")) and m is not None]
        extras = {
            "expr.compile_exprs": self._after_compile,
            "geometry.frame": self._after_frame,
            "curvops.derivation_apply": self._bytes_out("curvops.derivation_apply"),
            "curvops.tachibana": self._bytes_out("curvops.tachibana"),
            "cli.run_manifest": self._after_run_manifest,
        }
        for name, module, attr in WRAPPED:
            original = getattr(sys.modules[f"curvcheck.{module}"], attr)
            dim_of = None
            if module == "curvops":
                dim_of = _curvops_dim
            elif module == "roter":
                dim_of = _frame_dim
            wrapper = self.wrap(name, original, dim_of, extras.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))
        original = cli.Job.sample_ok
        cli.Job.sample_ok = self.wrap("cli.sample_ok", original, after=self._after_sample)
        self._installed.append((cli.Job, "sample_ok", original))

    def restore(self) -> None:
        """Put back every original; raise if any attribute was changed meanwhile."""
        for owner, key, original in reversed(self._installed):
            current = getattr(owner, key)
            if getattr(current, "__wrapped__", None) is not original:
                raise RuntimeError(f"{owner.__name__}.{key} changed while traced")
            setattr(owner, key, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end, dim) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end, dim]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counts per layer, named as in BENCHMARK.json."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, dim in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for index, (name, parent, start, end, dim) in enumerate(self.spans):
            own = (end - start) - child_time[index]
            for key in (name, f"{name}@n{dim}"):
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + own

        out: dict[str, float] = {}

        def put(prefix, with_calls=True, split=False):
            if with_calls:
                out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
            if split:
                for n in SPLIT_DIMS:
                    out[f"{prefix}.self_s.n{n}"] = self_s.get(f"{prefix}@n{n}", 0.0)

        for prefix in ("expr.diff", "expr.compile_exprs", "expr.program", "expr.evaluate"):
            put(prefix)
        for key in ("exprs", "tree_nodes", "distinct_nodes"):
            out[f"expr.compile_exprs.{key}"] = self.counts.get(f"expr.compile_exprs.{key}", 0)
        put("geometry.frame")
        out["geometry.frame.distinct"] = len(self._frames)
        for prefix in ("geometry.admissible", "geometry.covariant_derivative_02",
                       "geometry.second_bianchi_residual"):
            put(prefix)
        for fn in CURVOPS:
            put(f"curvops.{fn}", split=True)
        for fn in ("derivation_apply", "tachibana"):
            out[f"curvops.{fn}.bytes_out"] = self.counts.get(f"curvops.{fn}.bytes_out", 0)
        for fn in ROTER:
            put(f"roter.{fn}", split=True)
        put("warped.diagnostics")
        put("warped.verify", with_calls=False)
        put("warped.assemble", with_calls=False)
        put("geomap.build_family", with_calls=False)
        for fn in GEOMAP_RESIDUALS:
            put(f"geomap.{fn}")
        put("cli.sample_points", with_calls=False)
        out["cli.sample.attempts"] = self.counts.get("cli.sample.attempts", 0)
        out["cli.sample.accepted"] = self.counts.get("cli.sample.accepted", 0)
        put("cli.run_manifest", with_calls=False)
        put("cli.write_report", with_calls=False)
        out["cli.records"] = self.counts.get("cli.records", 0)
        return out
