"""Spans around the public functions of each pathduality module.

The tracer wraps functions from outside the package: for a boundary
``module.name`` it rebinds that name in every pathduality module that holds
the same function object (``from .x import f`` copies the reference), so
calls from anywhere in the package pass through the wrapper. ``install``
returns an undo list and ``uninstall`` puts every original back.

A span is (boundary, start, end, parent span, op id, failed). Spans are kept
in flat arrays in memory and aggregated or saved when the run ends. A span's
self time is its duration minus the durations of its direct children, which
nest inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

#: Boundary name -> (module, attribute path). Classes listed under
#: VALIDATORS report as one boundary, model.validate.
BOUNDARIES = {
    "cli.main": ("cli", "main"),
    "sampling.sample_config": ("sampling", "sample_config"),
    "sampling.rng_stream": ("sampling", "rng_stream"),
    "model.validate": ("model", None),
    "model.particle_density": ("model", "particle_density"),
    "model.detector_density": ("model", "detector_density"),
    "linalg.eig_hermitian": ("linalg", "eig_hermitian"),
    "linalg.trace_norm": ("linalg", "trace_norm"),
    "linalg.pinv_sqrt": ("linalg", "pinv_sqrt"),
    "coherence.normalized_coherence": ("coherence", "normalized_coherence"),
    "coherence.rel_ent_coherence": ("coherence", "rel_ent_coherence"),
    "coherence.von_neumann_entropy": ("coherence", "von_neumann_entropy"),
    "discrimination.Ensemble.from_config": ("discrimination", "Ensemble.from_config"),
    "discrimination.success_upper_bound": ("discrimination", "success_upper_bound"),
    "discrimination.pretty_good_measurement": ("discrimination", "pretty_good_measurement"),
    "information.joint_distribution": ("information", "joint_distribution"),
    "information.mutual_information": ("information", "mutual_information"),
    "information.holevo_quantity": ("information", "holevo_quantity"),
    "information.accessible_info_lower_bound": ("information", "accessible_info_lower_bound"),
    "duality.duality_report": ("duality", "duality_report"),
    "duality.csv_row": ("duality", "csv_row"),
}

#: Value types whose __post_init__ validates their input.
VALIDATORS = ("PathDistribution", "DetectorSet", "DensityMatrix")

#: numpy eigensolvers whose calls and decomposed matrices are counted.
EIGENSOLVERS = ("eigh", "eigvalsh")

PACKAGE = "pathduality"


class Tracer:
    """Collects spans and eigensolver counts while installed."""

    def __init__(self) -> None:
        self.names = list(BOUNDARIES)
        self.op_id = -1
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = array("b")
        self._stack: list[int] = []
        self.eig_calls = 0
        self.eig_matrices = 0

    def wrap(self, boundary: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self.names.index(boundary)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_failed.append(0)
            self.span_end.append(0.0)
            stack.append(index)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.span_failed[index] = 1
                raise
            finally:
                self.span_end[index] = clock()
                stack.pop()

        return traced

    def count_eigensolver(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(a: Any, *args: Any, **kwargs: Any) -> Any:
            self.eig_calls += 1
            self.eig_matrices += int(np.prod(np.shape(a)[:-2], dtype=np.int64))
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> list[tuple[Any, str, Any]]:
        """Wrap every boundary that exists; returns the undo list."""
        undo: list[tuple[Any, str, Any]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for boundary, (module_name, attr) in BOUNDARIES.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if attr is None:
                for cls_name in VALIDATORS:
                    cls = getattr(module, cls_name, None)
                    original = getattr(cls, "__dict__", {}).get("__post_init__")
                    if original is not None:
                        undo.append((cls, "__post_init__", original))
                        setattr(cls, "__post_init__", self.wrap(boundary, original))
            elif "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if isinstance(original, classmethod):
                    undo.append((cls, method, original))
                    setattr(cls, method, classmethod(self.wrap(boundary, original.__func__)))
            else:
                original = getattr(module, attr, None)
                if callable(original):
                    wrapped = self.wrap(boundary, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, key, value))
                                setattr(mod, key, wrapped)
        for solver in EIGENSOLVERS:
            original = getattr(np.linalg, solver)
            undo.append((np.linalg, solver, original))
            setattr(np.linalg, solver, self.count_eigensolver(original))
        return undo

    def summary(self) -> dict[str, dict[str, float]]:
        """Per boundary: calls, busy_s, self_s and failed."""
        count = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = (np.frombuffer(self.span_end, dtype=np.float64)
                     - np.frombuffer(self.span_start, dtype=np.float64))
        failed = np.frombuffer(self.span_failed, dtype=np.int8)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=duration.size)
        self_time = duration - children
        calls = np.bincount(name, minlength=count)
        busy = np.bincount(name, weights=duration, minlength=count)
        own = np.bincount(name, weights=self_time, minlength=count)
        fails = np.bincount(name, weights=failed, minlength=count)
        return {
            boundary: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "self_s": float(own[i]), "failed": int(fails[i])}
            for i, boundary in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span (and the boundary names) as a .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            failed=np.frombuffer(self.span_failed, dtype=np.int8),
        )


def uninstall(undo: list[tuple[Any, str, Any]]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
