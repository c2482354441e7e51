"""Span tracing of the anisoeit layers from outside the program.

``install`` replaces each traced function at every module attribute that
binds it (so ``from ... import`` names such as ``cli.solve_beltrami`` or
``calderon.evaluate_map`` are seen too) with a wrapper that records a
span: name, parent span, start and end.  Spans stay in memory; self time
is a span's duration minus the time its direct children cover.

Standard library only: the traced child process times ``import anisoeit``
itself, so nothing here may import numpy first.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# per-layer self-time metric -> traced functions ("module.attr" or
# "module.Class.method"); names missing from the program are skipped.
# phantoms and config are not traced: their time stays with the caller.
SELF_TIME = {
    "mesh.build_s": ["mesh.build_disk_mesh", "mesh.place_electrodes",
                     "mesh.boundary_edge_electrodes", "mesh.constant_tensor",
                     "mesh.tensor_from_factored", "mesh.save_mesh",
                     "mesh.load_mesh"],
    "mesh.validate_s": ["mesh.Mesh.validate"],
    "forward.assemble_s": ["forward.assemble_cem_system",
                           "forward.trig_current_patterns",
                           "forward.element_stiffness"],
    "forward.factor_s": ["forward.CEMSystem.factor"],
    "forward.solve_s": ["forward.simulate_voltages", "forward.solve_forward"],
    "forward.dn_s": ["forward.dn_matrix"],
    "forward.io_s": ["forward.save_voltages", "forward.load_voltages",
                     "forward.save_dn", "forward.load_dn"],
    "beltrami.extend_mu_s": ["beltrami.extend_mu",
                             "beltrami.beltrami_coefficient"],
    "beltrami.solve_s": ["beltrami.solve_beltrami", "beltrami.identity_map"],
    "beltrami.hilbert_s": ["beltrami.hilbert_transform"],
    "beltrami.cauchy_s": ["beltrami.cauchy_transform"],
    "beltrami.save_s": ["beltrami.save_qcmap"],
    "beltrami.load_s": ["beltrami.load_qcmap"],
    "beltrami.evaluate_s": ["beltrami.evaluate_map", "beltrami.invert_map",
                            "beltrami.pushforward_tensor",
                            "beltrami.QCMap.evaluate",
                            "beltrami.QCMap.invert",
                            "beltrami.QCMap.jacobian"],
    "calderon.fhat_s": ["calderon.fhat_grid", "calderon.make_cgo_pair",
                        "calderon.bilinear_form"],
    "calderon.inverse_s": ["calderon.inverse_fourier"],
    "calderon.reconstruct_s": ["calderon.reconstruct_field",
                               "calderon.reconstruct_scalar",
                               "calderon.assemble_tensor"],
    "calderon.io_s": ["calderon.save_field", "calderon.load_field",
                      "calderon.save_fhat", "calderon.load_fhat"],
    "cli.self_s": ["cli.main", "cli.cmd_simulate", "cli.cmd_map",
                   "cli.cmd_reconstruct", "cli.cmd_evaluate"],
}
COUNTS = ("forward.solve_calls", "forward.lu_nnz", "beltrami.iterations",
          "beltrami.hilbert_calls", "calderon.inverse_terms")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _factor_before(args, kwargs):
    # a CEMSystem factors once and caches; count only fresh factorizations
    return getattr(args[0], "_factor", None) is None


def _n_points(points):
    return len(points) if getattr(points, "ndim", 2) == 2 else 1


# function -> (before(args, kwargs) -> state, after(tracer, span, args,
# kwargs, out, state)) maintaining the work counts
HOOKS = {
    "forward.solve_forward": (None, lambda t, sp, a, k, out, st:
                              t.count("forward.solve_calls", 1)),
    "forward.CEMSystem.factor": (_factor_before, lambda t, sp, a, k, out, st:
                                 st and t.count("forward.lu_nnz", out.nnz)),
    "beltrami.solve_beltrami": (None, lambda t, sp, a, k, out, st:
                                t.count("beltrami.iterations",
                                        out.iterations)),
    "beltrami.hilbert_transform": (None, lambda t, sp, a, k, out, st:
                                   t.parent_name(sp) != sp[0]
                                   and t.count("beltrami.hilbert_calls", 1)),
    "calderon.inverse_fourier": (None, lambda t, sp, a, k, out, st: t.count(
        "calderon.inverse_terms", len(_arg(a, k, 0, "fhat").zs)
        * _n_points(_arg(a, k, 1, "eval_points")))),
    "beltrami.save_qcmap": (None, lambda t, sp, a, k, out, st: t.count(
        "beltrami.map_bytes", os.path.getsize(_arg(a, k, 1, "path")))),
}


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def count(self, name, n):
        self.counts[name] += n

    def parent_name(self, span):
        return self.spans[span[1]][0] if span[1] >= 0 else None

    def wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if after:
                after(self, span, args, kwargs, out, state)
            return out

        return traced

    def install(self, package="anisoeit"):
        """Wrap every function of ``SELF_TIME`` at each binding of it."""
        wrappers = {}
        for names in SELF_TIME.values():
            for qual in names:
                mod, *path = qual.split(".")
                owner = sys.modules.get(f"{package}.{mod}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr, None)
                fn = getattr(owner, path[-1], None)
                if fn is None:
                    continue
                wrappers[fn] = self.wrap(qual, fn)
                if len(path) > 1:              # a method: patch the class
                    setattr(owner, path[-1], wrappers[fn])
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in wrappers):
                    setattr(module, attr, wrappers[value])

    def mark(self):
        return len(self.spans)

    def self_times(self, start=0):
        """Per-metric self time of the spans recorded since ``start``."""
        spans = self.spans[start:]
        covered = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= start:
                covered[parent - start] += t1 - t0
        by_name = {q: m for m, names in SELF_TIME.items() for q in names}
        out = Counter({m: 0.0 for m in SELF_TIME})
        for (name, _, t0, t1), cov in zip(spans, covered):
            out[by_name[name]] += (t1 - t0) - cov
        return out


def child_main(argv):
    """Run one CLI command in this process under tracing.

    ``argv`` is ``[out_json, command, args...]``; writes the import time,
    the span count, the per-metric self times and the work counts.
    """
    import json
    out_json, argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import anisoeit.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()):
        code = anisoeit.cli.main(argv)
    with open(out_json, "w") as f:
        json.dump({"import_s": import_s, "spans": tracer.mark(),
                   "self": tracer.self_times(),
                   "counts": tracer.counts}, f)
    return code
