"""Spans, coefficient counters and correctness bookkeeping for one benchmark run.

Spans are recorded from outside the library, around each public call the
benchmark makes.  A span holds its name (``layer.function``), start and end
(``time.perf_counter``), the id of the span that was open when it started,
and the id of the operation it belongs to.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
durations of its child spans.

Coefficient shims wrap the ``f``/``sigma``/``df_du``/``dsigma_du`` callables
of a ``CoefficientSpec``; they count calls and accumulate time, but are not
spans (the optimizer calls them hundreds of thousands of times per solve).
Their time is therefore contained in the self time of whichever span called
them.  With tracing inactive no span is opened and no shim is installed.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_COEFF_FIELDS = ("f", "sigma", "df_du", "dsigma_du")


class Tracer:
    """Span and counter store; ``active`` is switched per pass by the runner."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self.coeff_calls: dict[str, int] = defaultdict(int)
        self.coeff_s = 0.0
        self.adjoint_sweeps = 0
        self._forward_since_sweep = False

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (a plain call when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def shim(self, coeffs):
        """Counting/timing copy of a CoefficientSpec (unchanged when inactive)."""
        if not self.active:
            return coeffs
        wrapped = {
            field: self._wrap(field, getattr(coeffs, field))
            for field in _COEFF_FIELDS
            if getattr(coeffs, field) is not None
        }
        return dataclasses.replace(coeffs, **wrapped)

    def _wrap(self, field: str, fn):
        clock = time.perf_counter
        calls = self.coeff_calls

        def shim(x, u):
            # The adjoint is the only caller of df_du, and each sweep follows a
            # forward solve that calls f: the first df_du call after an f call
            # starts a new sweep.
            if field == "f":
                self._forward_since_sweep = True
            elif field == "df_du" and self._forward_since_sweep:
                self.adjoint_sweeps += 1
                self._forward_since_sweep = False
            t0 = clock()
            out = fn(x, u)
            self.coeff_s += clock() - t0
            calls[field] += 1
            return out

        return shim

    def reset_counters(self) -> None:
        self.coeff_calls.clear()
        self.coeff_s = 0.0
        self.adjoint_sweeps = 0
        self._forward_since_sweep = False

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Summed self time per span name over spans[first_span:]."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for rec in spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[str, float] = defaultdict(float)
        for rec in spans:
            totals[rec["name"]] += rec["end"] - rec["start"] - child[rec["id"]]
        return dict(totals)


class Checks:
    """Named correctness checks grouped by operation.

    An operation fails if it raises, returns non-finite output, or fails any
    of its checks.  Every failure is printed when it happens; ``summary``
    prints each check name once with its pass/fail counts.
    """

    def __init__(self, echo: bool = True) -> None:
        self.echo = echo
        self.ops: list[str] = []
        self.failed_ops: set[str] = set()
        self.counts: dict[str, list[int]] = {}

    def begin(self, op_id: str) -> None:
        self.ops.append(op_id)

    def check(self, op_id: str, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        tally = self.counts.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok:
            self.failed_ops.add(op_id)
            if self.echo:
                print(f"check {name} FAIL op={op_id} {detail}".rstrip(), flush=True)
        return ok

    def error(self, op_id: str, stage: str, exc: BaseException) -> None:
        self.failed_ops.add(op_id)
        self.counts.setdefault(f"{stage}.raises", [0, 0])[1] += 1
        print(f"op {op_id} raised in {stage}: {exc!r}", file=sys.stderr, flush=True)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def summary(self) -> None:
        for name in sorted(self.counts):
            ok, bad = self.counts[name]
            verdict = "PASS" if bad == 0 else "FAIL"
            print(f"check {name} {verdict} ({ok} passed, {bad} failed)")
