"""Outside-in span tracing of declab's layers.

`Tracer` replaces the public names that the pipeline calls through with
wrappers that record one span per call: name, layer, start, end and the
span that was open when the call began.  The wrappers are installed in
every declab module namespace that binds the original object, because a
`from .forms import de_rham` in experiments.py makes a second binding the
pipeline looks up at call time.  Nothing under src/ changes, and leaving
the `with` block restores every binding.

From the spans come each layer's self time and calls, the inclusive times
of named functions, the stage split of a convergence level (mesh, dual,
assemble, exact, solve, errors) and counts computed from the arguments and
outputs of the calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# Public names wrapped per layer.  "Class.method" wraps a method.  Small
# per-vertex helpers (counter_uniform, Poly2.__call__) are left alone: they
# run inside the spans below and wrapping them would cost more than the work.
TRACED = {
    "meshes": ("build_mesh", "symmetric_mesh", "perturbed_mesh"),
    "complex": ("build_complex", "SimplicialComplex.coboundary_matrix"),
    "dual": ("build_dual", "is_well_centered"),
    "operators": (
        "hodge_laplacian_matrix", "codifferential_matrix", "star_matrix",
        "star_inverse_matrix", "discrete_norm",
    ),
    "forms": (
        "manufactured_solution", "de_rham", "exterior_derivative", "codifferential",
        "gauss_legendre_unit", "triangle_rule",
    ),
    "solver": ("cg_solve",),
    "experiments": ("run_convergence", "solve_problem", "compute_errors", "render_report"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)

ASSEMBLY = {
    "operators.hodge_laplacian_matrix", "operators.codifferential_matrix",
    "operators.star_matrix", "operators.star_inverse_matrix",
}

# Stage of a convergence level.  A span belongs to the stage of its outermost
# ancestor (or itself) that names one, so the well-centeredness check inside
# perturbed_mesh is mesh time and every de Rham map, also those made while
# computing errors, is exact-cochain time.  Spans with no such ancestor fall
# back on their innermost container: the S L product in solve_problem is
# assembly, the cochain differences in compute_errors are error time.
STAGES = ("mesh", "dual", "assemble", "exact", "solve", "errors", "other")
STAGE_ROOTS = {
    **{f"meshes.{n}": "mesh" for n in TRACED["meshes"]},
    "dual.build_dual": "dual",
    **{name: "assemble" for name in ASSEMBLY},
    **{f"forms.{n}": "exact" for n in TRACED["forms"]},
    "solver.cg_solve": "solve",
    "operators.discrete_norm": "errors",
}
CONTAINERS = {"experiments.solve_problem": "assemble", "experiments.compute_errors": "errors"}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    parent: "Span | None"
    start: float
    end: float = 0.0
    children_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s


def _resolve(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


class Tracer:
    """Context manager that records spans around declab's public calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        homes = {layer: importlib.import_module(f"declab.{layer}") for layer in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "declab" or n.startswith("declab.")]
        try:
            for layer, names in TRACED.items():
                for dotted in names:
                    owner, attr = _resolve(homes[layer], dotted)
                    original = vars(owner)[attr]
                    wrapper = self._wrap(f"{layer}.{attr}", original)
                    targets = [owner] if owner is not homes[layer] else [
                        m for m in modules if vars(m).get(attr) is original
                    ]
                    for target in targets:
                        self._patches.append((target, attr, original))
                        setattr(target, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _wrap(self, name: str, fn):
        stack, spans, count = self._stack, self.spans, _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
                if span.parent is not None:
                    span.parent.children_s += span.seconds
            if count is not None:
                count(span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and calls, named inclusive times, the stage
        split and computed counts, all summed over the recorded spans."""
        m: dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in self.spans if s.layer == layer]
            m[f"{layer}.self_s"] = sum(s.self_s for s in mine)
            m[f"{layer}.calls"] = len(mine)

        def total(name, self_only=False):
            return sum(s.self_s if self_only else s.seconds for s in self.spans if s.name == name)

        m["forms.de_rham_s"] = total("forms.de_rham")
        m["forms.de_rham_calls"] = sum(s.name == "forms.de_rham" for s in self.spans)
        m["forms.manufactured_solution_s"] = total("forms.manufactured_solution")
        m["solver.cg_s"] = total("solver.cg_solve")
        m["meshes.build_mesh_s"] = total("meshes.build_mesh")
        m["complex.build_complex_s"] = total("complex.build_complex")
        m["dual.build_dual_s"] = total("dual.build_dual")
        m["operators.assemble_s"] = sum(
            s.seconds for s in self.spans
            if s.name in ASSEMBLY and not (s.parent and s.parent.name in ASSEMBLY)
        )
        m["operators.discrete_norm_s"] = total("operators.discrete_norm")
        m["experiments.solve_problem_self_s"] = total("experiments.solve_problem", True)
        m["experiments.compute_errors_self_s"] = total("experiments.compute_errors", True)
        m["experiments.render_report_s"] = total("experiments.render_report")
        m["cli.main_self_s"] = total("cli.main", True)

        for key in COUNTS:
            m[key] = sum(s.counts.get(key, 0) for s in self.spans)
        iters = m["solver.iterations"]
        m["solver.s_per_iteration"] = m["solver.cg_s"] / iters if iters else 0.0

        split = dict.fromkeys(STAGES, 0.0)
        for s in self.spans:
            split[self._stage(s)] += s.self_s
        for stage, seconds in split.items():
            m[f"stage.{stage}_s"] = seconds
        m["trace.spans"] = len(self.spans)
        m["trace.self_s"] = sum(s.self_s for s in self.spans)
        return m

    @staticmethod
    def _stage(span: Span) -> str:
        chain = []
        node = span
        while node is not None:
            chain.append(node.name)
            node = node.parent
        for name in reversed(chain):  # outermost first
            if name in STAGE_ROOTS:
                return STAGE_ROOTS[name]
        for name in chain:  # innermost first
            if name in CONTAINERS:
                return CONTAINERS[name]
        return "other"


# -- counts computed from the arguments and outputs of a call ---------------

COUNTS = (
    "forms.quad_points", "solver.iterations", "solver.matvec_nnz",
    "operators.system_nnz", "meshes.vertices",
)


def _count_rule(span, args, kwargs, out):
    # the rule de_rham builds for itself sets its points per simplex
    if span.parent is not None and span.parent.name == "forms.de_rham":
        span.parent.counts["rule_points"] = len(out.weights)


def _count_de_rham(span, args, kwargs, out):
    # vertices are point values: one point each, no rule
    span.counts["forms.quad_points"] = len(out) * span.counts.pop("rule_points", 1)


def _count_cg(span, args, kwargs, out):
    M = args[0] if args else kwargs["M"]
    span.counts["solver.iterations"] = out.iterations
    span.counts["solver.matvec_nnz"] = out.iterations * M.nnz


def _count_laplacian(span, args, kwargs, out):
    span.counts["operators.system_nnz"] = out.nnz


def _count_vertices(span, args, kwargs, out):
    span.counts["meshes.vertices"] = out.n_simplices(0)


_COUNTERS = {
    "forms.de_rham": _count_de_rham,
    "forms.gauss_legendre_unit": _count_rule,
    "forms.triangle_rule": _count_rule,
    "solver.cg_solve": _count_cg,
    "operators.hodge_laplacian_matrix": _count_laplacian,
    "meshes.build_mesh": _count_vertices,
}
