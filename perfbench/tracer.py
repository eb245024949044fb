"""Runtime span tracing of the qcrystal layers, from outside the package.

``install`` wraps every public module-level function of each layer module,
the ``TensorTermSum`` normalization and the verify suites, then rebinds every
name under which another qcrystal module imported an original (for example
``crystal.norm_bounds`` or ``cli.section``), so calls between modules are
seen too.  Nothing in the package source changes.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index of
the enclosing span or -1, and ``note`` is a size recorded after the span has
ended, so computing it is not charged to the span.  Spans stay in memory and
are written as JSON lines by ``write_jsonl`` once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("coxeter", "coalgebra", "reps", "fock", "crystal", "spectrum", "cli")
SUITES = ("braid", "coassociativity", "factorization", "kernel", "unitarity")


def _shift_groups(ts) -> int:
    return len({tuple(w.net_shift() for w in words) for _, words in ts.terms})


def _section_dim(args: tuple, kwargs: dict) -> int:
    """d ** slots for a call ``f(ts, d)``, however its arguments were passed."""
    ts = args[0] if args else kwargs["ts"]
    d = args[1] if len(args) > 1 else kwargs["d"]
    return d**ts.slots


# Sizes recorded per call: note(args, kwargs, result).
_NOTES = {
    "fock.norm_bounds": lambda a, k, r: (_shift_groups(a[0] if a else k["ts"]), _section_dim(a, k)),
    "fock.section": lambda a, k, r: _section_dim(a, k),
    "coalgebra.coproduct_paths": lambda a, k, r: len(r),
    "reps.rep_image": lambda a, k, r: len(r.terms),
    "spectrum.specialization_edges": lambda a, k, r: len(r),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers of the imported qcrystal package in place."""
        modules = {layer: importlib.import_module(f"qcrystal.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "qcrystal"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        tts = modules["fock"].TensorTermSum
        tts.__post_init__ = self.wrap("fock.TensorTermSum", tts.__post_init__)
        cli = modules["cli"]
        cli._SUITES = tuple(
            (name, self.wrap(f"cli.verify.{name}", fn)) for name, fn in cli._SUITES
        )

    def write_jsonl(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit), from one traced run.

    Self time is a span's duration minus the time its child spans cover;
    layers are charged by the module prefix of the span name.
    """
    self_s = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _, _), own in zip(spans, self_s):
        by_name_self[name] += own
        by_name_total[name] += end - start
        calls[name] += 1
    layer_self: dict[str, float] = defaultdict(float)
    for name, own in by_name_self.items():
        layer_self[name.split(".", 1)[0]] += own

    def notes(name: str) -> list:
        return [s[4] for s in spans if s[0] == name]

    norm_notes = notes("fock.norm_bounds")
    paths_in_rep_image = sum(
        s[4]
        for s in spans
        if s[0] == "coalgebra.coproduct_paths"
        and s[3] >= 0
        and spans[s[3]][0] == "reps.rep_image"
    )
    terms_kept = sum(notes("reps.rep_image"))

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out.update(
        {
            "fock.norm_bounds.self_s": (by_name_self["fock.norm_bounds"], "s"),
            "fock.norm_bounds.calls": (calls["fock.norm_bounds"], "count"),
            "fock.norm_bounds.multi_group_calls": (
                sum(1 for groups, _ in norm_notes if groups > 1),
                "count",
            ),
            "fock.norm_bounds.dim_max": (max((dim for _, dim in norm_notes), default=0), "count"),
            "fock.section.self_s": (by_name_self["fock.section"], "s"),
            "fock.section.calls": (calls["fock.section"], "count"),
            "fock.section.cells": (sum(dim * dim for dim in notes("fock.section")), "count"),
            "fock.TensorTermSum.calls": (calls["fock.TensorTermSum"], "count"),
            "reps.rep_image.calls": (calls["reps.rep_image"], "count"),
            "reps.simple_generator_image.calls": (
                calls["reps.simple_generator_image"],
                "count",
            ),
            "reps.term_yield": (
                terms_kept / paths_in_rep_image if paths_in_rep_image else 0.0,
                "ratio",
            ),
            "coalgebra.coproduct_paths.calls": (calls["coalgebra.coproduct_paths"], "count"),
            "coalgebra.paths": (sum(notes("coalgebra.coproduct_paths")), "count"),
            "crystal.factorization_check.self_s": (
                by_name_self["crystal.factorization_check"],
                "s",
            ),
            "crystal.convergence_deficit.calls": (calls["crystal.convergence_deficit"], "count"),
            "coxeter.bruhat_leq.calls": (calls["coxeter.bruhat_leq"], "count"),
            "spectrum.specialization_edges.self_s": (
                by_name_self["spectrum.specialization_edges"],
                "s",
            ),
            "spectrum.edges": (sum(notes("spectrum.specialization_edges")), "count"),
        }
    )
    for suite in SUITES:
        out[f"cli.verify.{suite}_s"] = (by_name_total[f"cli.verify.{suite}"], "s")
    return out
