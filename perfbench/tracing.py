"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of the folsub modules where their
callers look them up (module attributes, names bound by ``from ... import``,
and methods on classes), records one span per call in memory with a parent
link, and counts work at the same boundaries.  Wrappers exist only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`; nothing under ``src/``
is edited.  ``jets`` arithmetic is deliberately not spanned: one span per
scalar operation would swamp the run, so its cost shows as the self time of
the spans that loop over ``Jet`` objects.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, note=None, after=None):
        """``fn`` inside a span.

        ``note(args, kwargs)`` runs before the span and may count and rewrite
        the arguments; ``after(args)`` runs once the call has returned.
        """
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                args, kwargs = note(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args)
            return result

        return traced

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def summary(self) -> list[tuple[str, int, float]]:
        """(span name, calls, total self time), largest self time first."""
        calls: Counter = Counter(self.names)
        selfs: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, self.self_times()):
            selfs[name] += t
        return sorted(((name, calls[name], t) for name, t in selfs.items()), key=lambda row: -row[2])

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, note=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note, after))

    def install(self, mods: dict) -> None:
        """Wrap every traced boundary of the folsub modules in ``mods``."""
        cli, distribution, foliation, manifolds, newton, quadrature, scenarios, verify = (
            mods[k]
            for k in ("cli", "distribution", "foliation", "manifolds", "newton", "quadrature", "scenarios", "verify")
        )

        # newton: chain builds, symmetric functions and the ndarray front ends.
        self.patch(newton, "newton_transforms_nested", "newton.chain")
        self.patch(newton, "sigmas_nested", "newton.sigma")
        for attr in ("newton_transform", "sigma_values", "power_sums", "trace_identity_residuals"):
            self.patch(newton, attr, "newton.front")
        self.patch(newton, "umbilical_main_integrand", "newton.integrand")

        # manifolds: Christoffel symbols, Riemann tensor, volume density.
        for cls in (manifolds.ChartManifold, manifolds.InvariantFrameManifold):
            self.patch(cls, "gamma_jets", "manifolds.gamma")
            self.patch(cls, "volume_density", "manifolds.density")
        self.patch(manifolds, "riemann_jets", "manifolds.riemann")

        # distribution: projector jets and the projected-curvature tensor.
        self.patch(distribution, "projector_jets", "distribution.projector")
        self.patch(distribution, "curvature_P_tensor", "distribution.curvature")

        # foliation: Geometry construction and the pointwise residuals.
        def geometry_note(args, kwargs):
            points = args[2] if len(args) > 2 else kwargs["points"]
            shape = getattr(points, "shape", (1,))
            self.counts["foliation.geometry_points"] += math.prod(shape[:-1])
            self.distinct["foliation.blocks"].add(
                hashlib.blake2b(points.tobytes(), digest_size=16).digest() + repr(shape).encode()
            )
            return args, kwargs

        self.patch(foliation.Geometry, "__init__", "foliation.geometry", geometry_note)
        for attr in (
            "div_F",
            "div_F_newton_direct",
            "div_F_newton_formula",
            "adapted_identity_residual",
            "newton_z_divergence_residual",
        ):
            self.patch(foliation.Geometry, attr, "foliation.pointwise")
        for attr in ("divx_residual", "codazzi_residual", "trace_identities", "integrability_residual"):
            self.patch(foliation, attr, "foliation.pointwise")
        self.patch(scenarios, "integrability_residual", "foliation.pointwise")

        # quadrature and verify: reductions with their callbacks as child
        # spans, so reduce self time excludes integrand and density work.
        def callbacks(field, grid, density):
            self.counts["quadrature.nodes"] += grid.count
            field = self.wrap("quadrature.integrand", field)
            return field, None if density is None else self.wrap("manifolds.density", density)

        def integrate_note(args, kwargs):
            manifold, field, grid, *rest = args
            field, density = callbacks(field, grid, rest[0] if rest else kwargs.get("density"))
            return (manifold, field, grid, density), {}

        def terms_note(args, kwargs):
            scenario, grid, term_fn, *rest = args
            term_fn, density = callbacks(term_fn, grid, rest[0] if rest else kwargs.get("density"))
            return (scenario, grid, term_fn, density), {}

        for owner in (quadrature, verify):
            self.patch(owner, "integrate", "quadrature.reduce", integrate_note)
        self.patch(verify, "_integrate_terms", "quadrature.reduce", terms_note)

        def calibrate_note(args, kwargs):
            scenario, grid = args
            self.distinct["verify.calibrations"].add((scenario.name, tuple(grid.axes)))
            return args, kwargs

        self.patch(verify, "calibrate_tolerance", "verify.calibrate", calibrate_note)
        self.patch(verify, "_main_terms", "verify.terms")

        # scenarios and cli: builds, runs, report emission.
        self.patch(scenarios, "build", "scenarios.build")

        def run_after(args):
            path = args[0].output
            self.counts["cli.bytes_written"] += os.path.getsize(path) if os.path.exists(path) else 0

        self.patch(cli, "run", "cli.run", after=run_after)
        for attr in ("emit_structured", "emit_table"):
            self.patch(cli, attr, "cli.emit")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts and times; ``wall_s`` is the traced wall time.

        Times named ``*_s`` are self times (span minus child spans), except
        ``verify.calibrate_s`` and ``scenarios.build_s``, which are inclusive
        because their cost is the whole call.
        """
        rows = self.summary()
        calls = Counter({name: n for name, n, _ in rows})
        self_by = defaultdict(float, {name: t for name, _, t in rows})
        incl_by: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            if not self.has_ancestor(idx, name):
                incl_by[name] += self.ends[idx] - self.starts[idx]
        chains_in_integrands = sum(
            1
            for idx, name in enumerate(self.names)
            if name == "newton.chain" and self.has_ancestor(idx, "newton.integrand")
        )
        return {
            "newton.chain_builds": calls["newton.chain"],
            "newton.sigma_calls": calls["newton.sigma"],
            "newton.self_s": sum(t for name, t in self_by.items() if name.startswith("newton.")),
            "newton.chains_per_integrand": _ratio(chains_in_integrands, calls["newton.integrand"]),
            "manifolds.gamma_calls": calls["manifolds.gamma"],
            "manifolds.gamma_s": self_by["manifolds.gamma"],
            "manifolds.riemann_calls": calls["manifolds.riemann"],
            "manifolds.riemann_s": self_by["manifolds.riemann"],
            "manifolds.density_s": self_by["manifolds.density"],
            "distribution.curvature_s": self_by["distribution.curvature"],
            "distribution.projector_s": self_by["distribution.projector"],
            "verify.calibrate_calls": calls["verify.calibrate"],
            "verify.calibrate_s": incl_by["verify.calibrate"],
            "verify.calibrate_useful_ratio": _ratio(
                len(self.distinct["verify.calibrations"]), calls["verify.calibrate"]
            ),
            "verify.terms_s": self_by["verify.terms"],
            "foliation.geometry_builds": calls["foliation.geometry"],
            "foliation.geometry_points": self.counts["foliation.geometry_points"],
            "foliation.geometry_useful_ratio": _ratio(
                len(self.distinct["foliation.blocks"]), calls["foliation.geometry"]
            ),
            "foliation.pointwise_s": self_by["foliation.pointwise"],
            "quadrature.integrate_calls": calls["quadrature.reduce"],
            "quadrature.nodes": self.counts["quadrature.nodes"],
            "quadrature.reduce_s": self_by["quadrature.reduce"],
            "quadrature.integrand_s": self_by["quadrature.integrand"],
            "scenarios.build_calls": calls["scenarios.build"],
            "scenarios.build_s": incl_by["scenarios.build"],
            "cli.run_calls": calls["cli.run"],
            "cli.emit_s": self_by["cli.emit"],
            "cli.bytes_written": self.counts["cli.bytes_written"],
            "trace.spans": len(self.names),
            "trace.self_share": _ratio(sum(self_by.values()), wall_s),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
