"""Built-in verification corpus.

Each entry is a complete manifest (the same schema the CLI accepts from
disk) describing one manifold or family together with the suites to run
and the expected verdicts.  The corpus spans: flat and constant
curvature controls, the charged static spacetimes, the three warp
profile branches of the geodesically mapped family at several
dimensions, the conformally flat (Einstein) toggle, a Ricci
pseudosymmetric product over a one-dimensional base, and a deliberately
perturbed negative control whose designated check must fail.
"""

from __future__ import annotations

import copy

CHARGED_H = "1 - 2*M/r + Q^2/r^2 - Lam*r^2/3"

_CHARGED_METRIC = {
    "coords": ["t", "r", "th", "ph"],
    "metric": [
        [f"-({CHARGED_H})", "0", "0", "0"],
        ["0", f"1/({CHARGED_H})", "0", "0"],
        ["0", "0", "r^2", "0"],
        ["0", "0", "0", "r^2*sin(th)^2"],
    ],
    "conditions": [[CHARGED_H, "positive"], ["sin(th)", "nonzero"], ["r", "positive"]],
}

CORPUS: dict[str, dict] = {}


def _entry(name, description, points, suites, manifold) -> None:
    """Add CORPUS[name], a manifest of the one manifold at the corpus seed."""
    CORPUS[name] = {"name": name, "description": description, "seed": 20240817,
                    "points": points, "suites": suites, "manifolds": [manifold]}


def _charged(name, M, Q, Lam, r_box, description, pinned=None):
    manifold = {
        "name": name,
        "kind": "explicit",
        **_CHARGED_METRIC,
        "constants": {"M": M, "Q": Q, "Lam": Lam},
        "box": {"t": [0.0, 1.0], "r": r_box, "th": [0.7, 2.4], "ph": [0.0, 1.0]},
        "expect": {"classify": "ROTER", "ricci_pseudosymmetric": True},
    }
    if pinned:
        manifold["pinned_points"] = [pinned[0]]
        manifold["expect"]["pinned_scalars"] = [pinned[1]]
    _entry(name, description, 6, ["geometry-symmetries", "theorem21"], manifold)


def _family(name, description, params, box=None, points=10, expect=None):
    manifold = {
        "name": name,
        "kind": "family",
        "params": params,
        "box": box or {"x": [0.6, 2.0], "t": [-0.35, 0.6]},
    }
    if expect:
        manifold["expect"] = expect
    _entry(name, description, points, ["all"], manifold)


_entry(
    "flat_space",
    "Four-dimensional flat chart; every curvature object vanishes "
    "and the point classifies as (degenerate) Einstein.",
    5, ["geometry-symmetries", "theorem21"],
    {
        "name": "flat4",
        "kind": "explicit",
        "coords": ["x1", "x2", "x3", "x4"],
        "metric": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "box": {"x1": [-1, 1], "x2": [-1, 1], "x3": [-1, 1], "x4": [-1, 1]},
        "expect": {"classify": "EINSTEIN"},
    },
)

_entry(
    "unit_sphere",
    "Unit two-sphere chart; Gauss curvature 1, scalar curvature 2.",
    8, ["geometry-symmetries"],
    {
        "name": "s2",
        "kind": "explicit",
        "coords": ["x", "y"],
        "metric": [["1", "0"], ["0", "sin(x)^2"]],
        "conditions": [["sin(x)", "nonzero"]],
        "box": {"x": [0.3, 2.8], "y": [0.0, 3.0]},
        "expect": {"scalars": {"gauss": 1.0}},
    },
)

_entry(
    "constant_curvature",
    "Conformal model of a four-dimensional space of constant "
    "curvature; Einstein and semisymmetric.",
    5, ["geometry-symmetries", "theorem21"],
    {
        "name": "cc4",
        "kind": "explicit",
        "coords": ["x1", "x2", "x3", "x4"],
        "metric": [
            ["1/(1 + (x1^2+x2^2+x3^2+x4^2)/4)^2" if i == j else "0" for j in range(4)]
            for i in range(4)
        ],
        "box": {"x1": [-0.5, 0.5], "x2": [-0.5, 0.5],
                "x3": [-0.5, 0.5], "x4": [-0.5, 0.5]},
        "expect": {"classify": "EINSTEIN"},
    },
)

_charged(
    "rn_lambda0", 1.0, 1.0, 0.0, [2.5, 5.0],
    "Charged static spacetime without cosmological term.  The curvature "
    "decomposes with phi = (3/2)(Mr - Q^2) r^4 / Q^4; at (M=1, Q=1, r=3) "
    "the fitted triple is (243, 1/2, 1/81).  Some published coefficient "
    "tables for this metric use the opposite curvature sign convention "
    "and an unhalved g-wedge-g term; fitted values translate to that "
    "convention by (phi, mu, eta) -> (-phi, mu, -eta/2).",
    pinned=(
        {"t": 0.0, "r": 3.0, "th": 1.2, "ph": 0.3},
        {"phi": 243.0, "mu": 0.5, "eta": 0.012345679012345678},
    ),
)

_charged(
    "rn_desitter", 1.0, 0.5, 0.1, [2.9, 3.6],
    "Charged static spacetime with positive cosmological term; the static "
    "region is a narrow radial band.",
)

_charged(
    "rn_antidesitter", 2.0, 1.0, -0.05, [4.3, 6.0],
    "Charged static spacetime with negative cosmological term.",
)

_family(
    "theorem41_n4",
    "Dimension-4 warped family, affine warp profile (B = 2t + 1), mapped "
    "geodesically onto its image; both members certify as Roter type with "
    "L_R = -1 (source) and -1/2 (image).",
    {"c": 0.0, "d": 4.0, "c1": 2.0, "c2": 1.0, "b": "x", "fiber_dim": 2,
     "fiber_scalar": 2.0, "map_scale": 2.0, "map_shift": 1.0},
    expect={"classify": "ROTER", "scalars": {"L_R": -1.0, "L_R_image": -0.5}},
)

_family(
    "theorem41_c_pos_n5",
    "Dimension-5 warped family, exponential warp profile branch.",
    {"c": 1.0, "d": 4.0, "c1": 1.0, "c2": 0.5, "b": "x", "fiber_dim": 3,
     "fiber_scalar": 2.0, "map_scale": 2.0, "map_shift": 1.0},
    box={"x": [1.3, 2.4], "t": [-0.35, 0.6]},
    points=8,
    expect={"classify": "ROTER", "scalars": {"L_R": -1.0, "L_R_image": -1.0}},
)

_family(
    "theorem41_c_neg_n6",
    "Dimension-6 warped family, trigonometric warp profile branch.",
    {"c": -1.0, "d": 4.0, "c1": 1.0, "c2": 1.0, "b": "x", "fiber_dim": 4,
     "fiber_scalar": 2.0, "map_scale": 2.0, "map_shift": 0.5},
    points=6,
    expect={"classify": "ROTER", "scalars": {"L_R": -1.0, "L_R_image": -0.25}},
)

_family(
    "einstein_cflat",
    "Conformally flat toggle of the dimension-4 family: the fiber scalar "
    "curvature is matched to (n-3)(n-2)((B')^2 - cB^2), which makes both "
    "members Einstein with vanishing conformal tensor; the Roter "
    "decomposition is deliberately out of reach here.",
    {"c": 0.0, "d": 4.0, "c1": 2.0, "c2": 1.0, "b": "x", "fiber_dim": 2,
     "fiber_scalar": 8.0, "map_scale": 2.0, "map_shift": 1.0,
     "allow_conformally_flat": True},
    points=6,
    expect={"classify": "EINSTEIN", "conformally_flat": True},
)

_entry(
    "surface_pair",
    "Classical surface pair: diag(a, b) mapped onto "
    "diag(pa/(1+qb)^2, pb/(1+qb)) through the gradient covector "
    "psi_1 = -(q b'/2)/(1+q b); checks the compatibility "
    "equation, the connection and Ricci shifts and the "
    "closed-form image connection.",
    8, ["geometry-symmetries", "geodesic"],
    {
        "name": "pair_b_linear",
        "kind": "pair2d",
        "pair": {"a": "1", "b": "x", "map_scale": 2.0, "map_shift": 1.0},
        "box": {"x": [0.4, 2.5], "y": [0.0, 2.0]},
        "expect": {"classify": "EINSTEIN"},
    },
)

_entry(
    "ricci_pseudo_1d_base",
    "Warped product over a one-dimensional base with an "
    "Einstein fiber: Ricci pseudosymmetric (R.S and Q(g,S) "
    "linearly dependent) and quasi-Einstein, but not Roter.",
    6, ["geometry-symmetries", "theorem21", "warped-diagnostics"],
    {
        "name": "line_cross_sphere",
        "kind": "warped",
        "base": {"coords": ["u"], "metric": [["1"]]},
        "fiber": {"dim": 3, "scalar_curvature": 6.0},
        "warp": "u^2 + 1",
        "box": {"u": [0.3, 1.5]},
        "expect": {"classify": "QUASI_EINSTEIN", "ricci_pseudosymmetric": True},
    },
)

_entry(
    "negative_control_perturbed",
    "Charged static metric with the Ricci tensor deliberately "
    "perturbed before the quadratic Ricci relation is checked; "
    "the harness requires that check to FAIL.",
    3, ["theorem21"],
    {
        "name": "perturbed_rn",
        "kind": "explicit",
        **_CHARGED_METRIC,
        "constants": {"M": 1.0, "Q": 1.0, "Lam": 0.0},
        "box": {"t": [0.0, 1.0], "r": [2.5, 4.0], "th": [0.7, 2.4], "ph": [0.0, 1.0]},
        "perturb": {"target": "ricci", "epsilon": 1e-3},
        "expect": {"classify": "ROTER"},
    },
)


def corpus_list() -> list[str]:
    return sorted(CORPUS)


def corpus_get(name: str) -> dict:
    """A new copy of the entry, which the caller may edit."""
    key = name
    if key.startswith("corpus/"):
        key = key[len("corpus/"):]
    if key.endswith(".manifest"):
        key = key[: -len(".manifest")]
    if key not in CORPUS:
        raise KeyError(f"no corpus entry named {name!r}")
    return copy.deepcopy(CORPUS[key])
