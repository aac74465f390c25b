"""PERF rules — per-level scalar work on the simulator hot paths.

Every simulated rank runs in one interpreter, so a rank program that
executes ``np.outer`` once per level inside its level loop serializes
*all* ranks on BLAS-1 work — the exact wall-clock cliff the shared
blocked-panel kernel (:mod:`repro.solvers.kernels`) exists to remove.
The pattern is cheap to spot syntactically and expensive to rediscover
by profiling, so the analyzer flags it:

an augmented ``+=``/``-=`` on a subscripted target whose right-hand
side calls ``numpy.outer``, lexically inside a loop, inside a
*generator* function (the rank-program shape — sequential reference
solvers run one rank and are exempt).

The fix is to defer the updates through a
:class:`~repro.solvers.kernels.PanelAccumulator` and flush them as one
BLAS-3 panel update.  Deliberate level-wise reference paths (kept for
equivalence testing) carry ``# repro: allow[PERF001]``.

PERF002 — per-rank Python loops in the fast-engine bodies.

The fast collective/p2p engines (modules whose path names ``fastcoll``
or ``fastp2p``) and the batch compute charge the fused level loop calls
once per level (``runtime/context``, :class:`~repro.runtime.context.
LevelCharge`) exist to collapse O(ranks) per-edge walks into the
per-level aggregate closed forms of :mod:`repro.simmpi.aggregate` — a
``for ... in range(size)`` (or any ``range`` bounded by the world
``size``) reintroduces exactly the scaling cliff they remove, paying
O(ranks) interpreter iterations per collective at paper scale
(p = 576).  The rule flags such statement loops in those modules;
comprehensions are exempt (they build the vector inputs the closed
forms consume), and the retained per-edge reference paths carry
``# repro: allow[PERF002]``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo, build_parent_map, iter_own_nodes

RULE = "PERF001"
RULE_LOOP = "PERF002"

#: path fragments naming the fast engines PERF002 polices
FAST_ENGINE_MARKERS = ("fastcoll", "fastp2p", "runtime/context",
                       "obs/symbolic")


def _outer_call(node: ast.AST, module: ModuleInfo) -> bool:
    return (isinstance(node, ast.Call)
            and module.canonical(node.func) == "numpy.outer")


def _contains_outer(expr: ast.expr, module: ModuleInfo) -> bool:
    return any(_outer_call(sub, module) for sub in ast.walk(expr))


def _in_loop(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    parent = parents.get(id(node))
    while parent is not None:
        if isinstance(parent, (ast.For, ast.While)):
            return True
        parent = parents.get(id(parent))
    return False


def _size_bounded_range(node: ast.For) -> bool:
    """``for ... in range(...)`` with the world ``size`` in the bounds."""
    it = node.iter
    if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range"):
        return False
    return any(isinstance(sub, ast.Name) and sub.id == "size"
               for arg in it.args for sub in ast.walk(arg))


def _check_fast_engine_loops(module: ModuleInfo) -> list[Finding]:
    path = module.path.replace("\\", "/")
    if not any(marker in path for marker in FAST_ENGINE_MARKERS):
        return []
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.For) and _size_bounded_range(node)):
            continue
        findings.append(Finding(
            path=module.path, line=node.lineno,
            col=node.col_offset + 1, rule=RULE_LOOP,
            message=("per-rank Python loop (range over the world size) "
                     "in a fast-engine body — this pays O(ranks) "
                     "interpreter iterations per collective at paper "
                     "scale; evaluate the level through the aggregate "
                     "closed forms (repro.simmpi.aggregate) instead"),
            text=module.line_text(node.lineno),
        ))
    return findings


def check(module: ModuleInfo) -> list[Finding]:
    findings = _check_fast_engine_loops(module)
    if "numpy" not in set(module.imports.values()) \
            and not any(c.startswith("numpy.") for c in module.imports.values()):
        return findings
    for fn in module.functions:
        if not fn.is_generator:
            continue
        parents: dict[int, ast.AST] | None = None
        for node in iter_own_nodes(fn.node):
            if not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.target, ast.Subscript)
                    and _contains_outer(node.value, module)):
                continue
            if parents is None:
                parents = build_parent_map(fn.node)
            if not _in_loop(node, parents):
                continue
            findings.append(Finding(
                path=module.path, line=node.lineno,
                col=node.col_offset + 1, rule=RULE,
                message=(f"{fn.name}() applies a per-level np.outer "
                         "trailing update inside its level loop — rank "
                         "programs share one interpreter; defer the "
                         "updates through the shared blocked kernel "
                         "(repro.solvers.kernels.PanelAccumulator)"),
                text=module.line_text(node.lineno),
            ))
    return findings
