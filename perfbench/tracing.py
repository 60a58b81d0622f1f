"""Per-layer tracing by wrapping the library's functions from outside.

Each traced function is replaced, in every module namespace that holds a
reference to it, by a wrapper that records a span: its duration, and the
part of that duration covered by the traced calls made inside it.  A
layer's self time is the difference.  Spans are folded into per-name
totals as they close, split by phase (set-up or timed), so memory stays
flat however long the run.  Counting hooks read the call's arguments and
result to count work done where it happens.

Nothing under ``src/`` changes: ``install`` patches module attributes and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

from orbitpool.image import SupportError

SETUP, TIMED = "setup", "timed"


def _plane_count(tracer, args, result):
    # a 2-D transform over the last two axes handles one plane per
    # leading index
    a = np.asarray(args[0])
    return {"scattering.fft2_planes": a.size // (a.shape[-2] * a.shape[-1])}


def _vote_count(tracer, args, result):
    # soft_vote(orientations, weights, kernel, bins): one kernel
    # evaluation per sample and bin
    return {"orientation.soft_vote.votes": np.size(args[0]) * args[3]}


def _described(tracer, args, result):
    return {
        "descriptor.described": 1,
        "descriptor.degenerate": int(bool(getattr(result, "degenerate", False))),
    }


def _support_error(tracer, exc):
    if isinstance(exc, SupportError):
        return {"descriptor.support_errors": 1}
    return {}


def _cdist_rows(tracer, args, result):
    return {"bench.reference_described": len(args[0])}


def _accepted(tracer, args, result):
    return {"bench.ratio_accepted": len(result.records)}


def _warp_in_template(tracer, args, result):
    if tracer.open_names["soa.build_template"]:
        return {"soa.template_warps": 1}
    return {}


# (module, attribute, span name, counting hook on result, hook on error)
TARGETS = (
    ("orbitpool.image", "compute_gradients", "image.compute_gradients", None, None),
    ("orbitpool.image", "warp", "image.warp", _warp_in_template, None),
    ("orbitpool.image", "extract_patch", "image.extract_patch", None, None),
    ("orbitpool.orientation", "soft_vote", "orientation.soft_vote", _vote_count, None),
    ("orbitpool.descriptor", "single_size_descriptor", "descriptor.single_size_descriptor", _described, _support_error),
    ("orbitpool.descriptor", "dsp_descriptor", "descriptor.dsp_descriptor", _described, _support_error),
    ("orbitpool.scattering", "scatter", "scattering.scatter", None, None),
    ("orbitpool.scattering", "dsp_scatter", "scattering.dsp_scatter", _described, _support_error),
    ("numpy.fft", "fft2", "scattering.fft", _plane_count, None),
    ("numpy.fft", "ifft2", "scattering.fft", _plane_count, None),
    ("orbitpool.bench", "evaluate", "bench.evaluate", None, None),
    ("orbitpool.bench", "match_pair", "bench.match_pair", _accepted, None),
    ("orbitpool.bench", "cdist", "bench.cdist", _cdist_rows, None),
    ("orbitpool.bench", "make_pair", "bench.make_pair", None, None),
    ("orbitpool.textures", "benchmark_bases", "textures.benchmark_bases", None, None),
    ("orbitpool.soa", "build_template", "soa.build_template", None, None),
    ("orbitpool.soa", "soa_likelihood", "soa.soa_likelihood", None, None),
)


class Tracer:
    """Span and counter totals, keyed by (phase, name)."""

    def __init__(self):
        self.phase = SETUP
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.open_names = defaultdict(int)
        self._stack = []
        self._patches = []

    def _count(self, found):
        for name, n in found.items():
            self.counts[(self.phase, name)] += n

    def wrap(self, name, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            self.open_names[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    self._count(on_error(self, exc))
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.open_names[name] -= 1
                self._stack.pop()
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_s[key] += elapsed - child[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_result is not None:
                self._count(on_result(self, args, result))
            return result

        return traced

    def install(self):
        """Patch every binding of each target in numpy.fft and orbitpool."""
        namespaces = [importlib.import_module("numpy.fft")] + [
            m for n, m in sorted(sys.modules.items()) if n == "orbitpool" or n.startswith("orbitpool.")
        ]
        for module_name, attr, name, on_result, on_error in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original, on_result, on_error)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def get(self, phase, name, kind):
        table = {"calls": self.calls, "self_s": self.self_s, "count": self.counts}[kind]
        return table.get((phase, name), 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, items, setups, cpu_s, wall_s):
    """Per-layer figures: timed-phase values per item, set-up values per set-up."""
    def t(name, kind):
        return tracer.get(TIMED, name, kind) / items

    def s(name, kind):
        return tracer.get(SETUP, name, kind) / setups

    out = {}
    for name in (
        "image.compute_gradients",
        "image.warp",
        "image.extract_patch",
        "orientation.soft_vote",
        "descriptor.single_size_descriptor",
        "descriptor.dsp_descriptor",
        "scattering.scatter",
        "scattering.dsp_scatter",
        "bench.match_pair",
        "soa.build_template",
    ):
        out[f"{name}.calls"] = (t(name, "calls"), "count/item")
        out[f"{name}.self_s"] = (t(name, "self_s"), "s/item")
    out["orientation.soft_vote.votes"] = (t("orientation.soft_vote.votes", "count"), "count/item")
    described = tracer.get(TIMED, "descriptor.described", "count")
    errors = tracer.get(TIMED, "descriptor.support_errors", "count")
    out["descriptor.support_errors"] = (errors / items, "count/item")
    out["descriptor.kept_ratio"] = (_ratio(described, described + errors), "ratio")
    out["descriptor.degenerate"] = (t("descriptor.degenerate", "count"), "count/item")
    out["scattering.fft2_planes"] = (t("scattering.fft2_planes", "count"), "count/item")
    out["scattering.fft_s"] = (t("scattering.fft", "self_s"), "s/item")
    out["bench.evaluate.self_s"] = (t("bench.evaluate", "self_s"), "s/item")
    out["bench.cdist.self_s"] = (t("bench.cdist", "self_s"), "s/item")
    out["bench.ratio_accept_ratio"] = (
        _ratio(
            tracer.get(TIMED, "bench.ratio_accepted", "count"),
            tracer.get(TIMED, "bench.reference_described", "count"),
        ),
        "ratio",
    )
    out["bench.make_pair.self_s"] = (s("bench.make_pair", "self_s"), "s/setup")
    out["textures.benchmark_bases.self_s"] = (s("textures.benchmark_bases", "self_s"), "s/setup")
    out["setup.image.warp.self_s"] = (s("image.warp", "self_s"), "s/setup")
    out["soa.warps_per_template"] = (
        _ratio(
            tracer.get(TIMED, "soa.template_warps", "count"),
            tracer.get(TIMED, "soa.build_template", "calls"),
        ),
        "count",
    )
    out["soa.soa_likelihood.self_s"] = (t("soa.soa_likelihood", "self_s"), "s/item")
    out["run.cpu_s"] = (cpu_s / items, "s/item")
    out["run.wall_s"] = (wall_s / items, "s/item")
    return out
