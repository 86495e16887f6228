"""Span tracing of rotkrein's layers from outside the program.

``Tracer.install`` replaces each traced public function in every rotkrein
module that holds it, so the calls are caught where their callers look them
up (``rotkrein.blade.g2_vec`` and ``rotkrein.limits.g3_vec`` as well as
``rotkrein._radial.g2_vec``).  It also traces config reads of the CLI and
``StudyTable`` serialization.  ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent index, op id)``; the spans of one op
stay in memory until ``end_op`` folds them into per-layer call counts and
self times (duration minus the time of direct children) and drops them.
"""

from __future__ import annotations

import configparser
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (defining module, public functions counted under that name)
LAYERS = {
    "specfun": ("specfun", ("sqrt_upper", "sph_bessel_j", "sph_hankel1", "bessel_j",
                            "hankel1", "sph_harm", "equatorial_weight")),
    "greens.radial_kernel": ("greens", ("radial_kernel_2d", "radial_kernel_3d")),
    "radial.g_vec": ("_radial", ("g2_vec", "g3_vec")),
    "radial.radial_apply": ("_radial", ("radial_apply",)),
    "rotframe.channel_diag": ("rotframe", ("channel_diag",)),
    "rotframe.rot_green": ("rotframe", ("rot_green",)),
    "rotframe.rot_norm_sq": ("rotframe", ("rot_norm_sq",)),
    "pointint.lambda_at": ("pointint", ("lambda_at",)),
    "pointint.krein_kernel": ("pointint", ("krein_kernel",)),
    "pointint.apply_krein_resolvent": ("pointint", ("apply_krein_resolvent",)),
    "circleint.gamma_from_alpha": ("circleint", ("gamma_from_alpha",)),
    "circleint.gamma_coeff": ("circleint", ("gamma_coeff_2d", "gamma_coeff_3d")),
    "circleint.apply_circle_resolvent": ("circleint", ("apply_circle_resolvent",)),
    "blade.build_mesh": ("blade", ("build_mesh",)),
    "blade.gamma_matrix": ("blade", ("gamma_matrix",)),
    "blade.lambda_matrix": ("blade", ("lambda_matrix",)),
    "blade.solve_density": ("blade", ("solve_density",)),
    "blade.layer_fields": ("blade", ("layer_fields",)),
    "blade.averaged_resolvent": ("blade", ("averaged_resolvent",)),
    "limits.study": ("limits", ("point_convergence_study", "blade_convergence_study",
                                "eps_scaling_study")),
}
# Spans the tracer opens besides LAYERS: the op itself and two CLI stages.
ROOT, CONFIG, SERIALIZE = "op", "cli.config", "cli.serialize"
SPAN_NAMES = (ROOT, *LAYERS, CONFIG, SERIALIZE)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.current = -1
        self.op_id = -1
        self._undo: list = []
        self.originals: list = []
        self._gvec_calls: list = []
        self._diag_keys: list = []
        self._counts: dict = defaultdict(float)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rotkrein" or name.startswith("rotkrein."))]
        for span, (modname, funcs) in LAYERS.items():
            defmod = sys.modules[f"rotkrein.{modname}"]
            for fname in funcs:
                orig = getattr(defmod, fname)
                self.originals.append(orig)
                wrapped = self._wrap(span, orig, getattr(self, f"_count_{fname}", None))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped)
        cli = sys.modules["rotkrein.cli"]
        traced_parser = type("ConfigParser", (configparser.ConfigParser,), {
            "read": self._wrap(CONFIG, configparser.ConfigParser.read, None)})
        self._set(cli, "configparser", types.SimpleNamespace(
            **{**vars(configparser), "ConfigParser": traced_parser}))
        table = sys.modules["rotkrein.limits"].StudyTable
        for meth in ("to_csv", "to_json"):
            self._set(table, meth, self._wrap(SERIALIZE, getattr(table, meth), None))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
        self.originals.clear()

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name, fn, count):
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.op_id)
                self.current = parent
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    # -- counters (run after the span closes) ----------------------------

    def _count_g2_vec(self, args, kwargs, result) -> None:
        self._gvec_calls.append((2, abs(_arg(args, kwargs, 0, "n")),
                                 complex(_arg(args, kwargs, 1, "z")),
                                 _arg(args, kwargs, 2, "r"), _arg(args, kwargs, 3, "rp")))

    def _count_g3_vec(self, args, kwargs, result) -> None:
        self._gvec_calls.append((3, _arg(args, kwargs, 0, "l"),
                                 complex(_arg(args, kwargs, 1, "z")),
                                 _arg(args, kwargs, 2, "r"), _arg(args, kwargs, 3, "rp")))

    def _count_radial_apply(self, args, kwargs, result) -> None:
        self._counts["radial.radial_apply.points"] += np.size(result)

    def _count_channel_diag(self, args, kwargs, result) -> None:
        src, t = _arg(args, kwargs, 3, "src"), _arg(args, kwargs, 4, "t")
        mode = args[5] if len(args) > 5 else kwargs.get("mode", "closed")
        self._diag_keys.append((_arg(args, kwargs, 0, "dim"), _arg(args, kwargs, 1, "m"),
                                complex(_arg(args, kwargs, 2, "zz")), src.y0, t.l_max, mode))

    def _count_gamma_matrix(self, args, kwargs, result) -> None:
        self._counts["blade.matrix_bytes"] += 16 * result.entries.shape[0] ** 2

    _count_lambda_matrix = _count_gamma_matrix

    def _count_study(self, args, kwargs, result) -> None:
        self._counts["limits.rows"] += len(result.rows)

    _count_point_convergence_study = _count_study
    _count_blade_convergence_study = _count_study
    _count_eps_scaling_study = _count_study

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans.append(None)
        self.current = 0
        self._start = perf_counter()

    def end_op(self) -> dict:
        """Close the op span; return the op's per-layer figures."""
        self.spans[0] = (ROOT, self._start, perf_counter(), -1, self.op_id)
        self.current = -1
        layer = self._fold()
        self.spans.clear()
        return layer

    def _fold(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        counts = dict(self._counts)
        counts["radial.g_vec.elems"], counts["radial.g_vec.distinct"] = self._gvec_distinct()
        counts["rotframe.channel_diag.distinct"] = len(set(self._diag_keys))
        self._gvec_calls.clear()
        self._diag_keys.clear()
        self._counts.clear()
        return {"spans": len(spans), "calls": dict(calls), "self_s": dict(self_s),
                "counts": counts}

    def _gvec_distinct(self) -> tuple[int, int]:
        """Elements evaluated, and how many distinct (dim, order, z, r<, r>)."""
        groups: dict = defaultdict(list)
        elems = 0
        for dim, order, z, r, rp in self._gvec_calls:
            r, rp = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(rp, dtype=float))
            elems += r.size
            groups[(dim, order, z)].append(np.minimum(r, rp).ravel() + 1j * np.maximum(r, rp).ravel())
        return elems, sum(np.unique(np.concatenate(g)).size for g in groups.values())
