"""Spans and counters recorded from outside curvlab.

The benchmark never edits curvlab.  It replaces module attributes and class
methods at run time with thin wrappers, and puts the originals back
afterwards.  A wrapper can

- open a span (name, start, end, the span that caused it, the operation it
  belongs to) while the call runs, and
- keep the call's arguments and result for the operation's checks.

Spans and counters are kept in memory; ``dump`` writes them out at the end.

Hot paths (``Jet2`` products, ``CxBlocks`` construction) get counters
instead of spans, so a traced run does not keep one object per product.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

SETUP_OP = -1


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Patch:
    """One wrapped callable.

    owner/attr name what is replaced.  A module attribute is replaced in
    every curvlab module that imported the same object by name.  ``span``
    is the span name; ``attrs`` and ``result_attrs`` give span attributes
    from the arguments and from the result.  ``keep`` stores (args, kwargs,
    result) for the checks, so a kept patch is installed in untraced rounds
    too, where it opens no span.
    """

    owner: object
    attr: str
    span: str
    keep: bool = False
    attrs: Optional[Callable] = None
    result_attrs: Optional[Callable] = None


def _batch_size(z) -> int:
    shape = getattr(z, "shape", ())
    size = 1
    for d in shape[:-1]:
        size *= int(d)
    return size


class Recorder:
    """Spans, counters and kept results of one worker process."""

    def __init__(self):
        self.trace = False
        self.op = SETUP_OP
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.kept: dict[str, list] = defaultdict(list)
        # counter name -> [calls, batch elements, seconds]
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        self.cxblocks_bytes = 0
        self._field_depth = 0
        self._installed: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str, attrs: Optional[dict] = None) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter(),
                    attrs=attrs or {})
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def start_op(self, op: int) -> None:
        self.op = op
        self.kept = defaultdict(list)

    def reset(self) -> None:
        self.op = SETUP_OP
        self.spans = []
        self.stack = []
        self.counters = defaultdict(lambda: [0, 0, 0.0])
        self.cxblocks_bytes = 0

    # -- installing wrappers --------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        orig = getattr(owner, attr)
        if isinstance(owner, types.ModuleType):
            targets = [m for name, m in list(sys.modules.items())
                       if name.split(".")[0] == "curvlab" and getattr(m, attr, None) is orig]
        else:
            targets = [owner]
        for t in targets:
            self._installed.append((t, attr, orig))
            setattr(t, attr, new)

    def install(self, patches: list[Patch], trace: bool) -> None:
        """Wrap every patch (traced) or only the kept ones (untraced)."""
        self.restore()
        self.trace = trace
        for p in patches:
            if trace or p.keep:
                self._replace(p.owner, p.attr, self._wrap(getattr(p.owner, p.attr), p))
        if trace:
            self._install_traced_only()

    def restore(self) -> None:
        for t, attr, orig in reversed(self._installed):
            setattr(t, attr, orig)
        self._installed = []
        self.trace = False

    def _wrap(self, fn, p: Patch):
        rec = self
        span_name = p.span if self.trace else None

        def wrapper(*args, **kwargs):
            span = None
            if span_name is not None:
                span = rec.open(span_name, p.attrs(args) if p.attrs else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                if span is not None:
                    rec.close(span)
            if span is not None and p.result_attrs:
                span.attrs.update(p.result_attrs(out))
            if p.keep:
                rec.kept[p.attr].append((args, kwargs, out))
            return out

        return wrapper

    def _install_traced_only(self) -> None:
        from curvlab import catalog, fields, jets, tensors

        rec = self
        hopf_grid = catalog.hopf_grid

        def traced_hopf_grid(*args, **kwargs):
            grid = hopf_grid(*args, **kwargs)
            grid.basis_batch = rec._basis_batch(grid.basis_batch)
            return grid

        self._replace(catalog, "hopf_grid", traced_hopf_grid)
        mul = jets.Jet2.__mul__

        def counted_mul(a, b):
            t0 = time.perf_counter()
            out = mul(a, b)
            c = rec.counters["jets.mul"]
            c[0] += 1
            c[1] += out.val.size
            c[2] += time.perf_counter() - t0
            return out

        self._replace(jets.Jet2, "__mul__", counted_mul)
        self._replace(jets.Jet2, "__rmul__", counted_mul)

        init = tensors.CxBlocks.__init__

        def counted_init(cx, jet, need_second=True):
            init(cx, jet, need_second)
            arrays = (cx.H, cx.Hinv, cx.d1H, cx.d2H, cx.hC, cx.hCinv, cx.dhC, cx.d2hC)
            nbytes = sum(a.nbytes for a in arrays if a is not None)
            rec.cxblocks_bytes = max(rec.cxblocks_bytes, nbytes)

        self._replace(tensors.CxBlocks, "__init__", counted_init)

        # field evaluations nest (fields built from fields); only the
        # outermost call gets a span
        for cls, attr in ((fields.ScalarField, "__call__"), (fields.OneFormField, "values_and_dbar")):
            self._replace(cls, attr, self._outermost_field(getattr(cls, attr)))

    def _basis_batch(self, fn):
        rec = self

        def evaluate(z):
            span = rec.open("catalog.basis_batch", {"nodes": _batch_size(z)})
            try:
                out = fn(z)
            finally:
                rec.close(span)
            span.attrs["functions"] = len(out)
            return out

        return evaluate

    def _outermost_field(self, fn):
        rec = self

        def call(fld, z):
            if rec._field_depth:
                return fn(fld, z)
            rec._field_depth += 1
            span = rec.open("fields.eval", {"field": fld.name, "nodes": _batch_size(z)})
            try:
                return fn(fld, z)
            finally:
                rec.close(span)
                rec._field_depth -= 1

        return call

    # -- reading spans ----------------------------------------------------

    def children(self) -> dict:
        out = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent].append(s)
        return out

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")
            for name, (calls, elements, seconds) in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": calls,
                                     "elements": elements, "seconds": seconds}) + "\n")
            fh.write(json.dumps({"counter": "tensors.cxblocks_bytes",
                                 "max_bytes": self.cxblocks_bytes}) + "\n")


def batch_attrs(args) -> dict:
    """Span attributes for a call whose second argument is a point array."""
    return {"points": _batch_size(args[1])} if len(args) > 1 else {}
