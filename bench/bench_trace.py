"""Spans around the public functions of each dimerfield module.

Tracing is installed from the benchmark's side only: every public function
defined in ``model``, ``variational``, ``critical`` and ``gaussian`` is
replaced, in every namespace of the package that holds it, by a wrapper
that records a span (name, start, end, parent, request).  Calls between
modules go through those namespaces, so nested calls (``solve_branches``
inside ``coexistence_field``, ``psi`` inside ``maximize_psi``) become child
spans.  The enumeration kernel is traced where ``model`` calls it, and the
validating constructors of ``ModelParams`` and ``ReducedParams`` through
their ``__post_init__``.  ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass

import dimerfield as df
from dimerfield import _kernels, cli, critical, gaussian, model, params, variational

LAYER_MODULES = {"model": model, "variational": variational, "critical": critical, "gaussian": gaussian}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``request`` tags the spans of the current op.

    ``with tracer:`` installs the wrappers for the block and restores the
    original attributes afterwards.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, 0.0, 0.0, parent, tracer.request)
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _OwnSpan(self, name)

    def install(self) -> None:
        targets = {}
        for layer, mod in LAYER_MODULES.items():
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        kernel = model.partition_sums
        targets[id(kernel)] = (kernel, "kernels.partition_sums")
        wrappers = {key: self._wrap(label, obj) for key, (obj, label) in targets.items()}
        for ns in (df, _kernels, model, variational, critical, gaussian, cli):
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and (ns is not _kernels or name == "partition_sums"):
                    self._restore.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)])
        for cls in (params.ModelParams, params.ReducedParams):
            original = cls.__post_init__
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"params.{cls.__name__}", original)

    def uninstall(self) -> None:
        while self._restore:
            ns, name, obj = self._restore.pop()
            setattr(ns, name, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class _OwnSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.span = Span(len(t.spans), self.name, time.perf_counter(), 0.0, parent, t.request)
        t.spans.append(self.span)
        t._stack.append(self.span.id)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        self.span.error = exc_type is not None
        self.tracer._stack.pop()
        return False


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in its own spans outside their child spans."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child.get(s.id, 0.0)
    return out
