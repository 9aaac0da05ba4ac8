"""Spans around the benchmark's calls into ordlib.

A workload never calls ordlib directly: every call goes through
``caller(site, fn, *args)``.  The untraced caller just calls ``fn``; the
traced one records a span ``[site, start_ns, end_ns, parent, op_id, error]``
in memory, where ``error`` is the class of a failure the call raised (or
None).  Spans are summarised, and optionally written out, after the run.

Some calls happen inside ordlib (a braid group's ``same`` inside ``locate``).
``Tracer.wrap`` times those through a wrapper installed on the instance; they
are aggregated rather than stored one by one, and their time is charged as a
child of whichever span is open.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


def untraced(site, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self, is_failure):
        """is_failure(exception) decides which raised exceptions count as
        failures; the others are answers (documented refusals)."""
        self.is_failure = is_failure
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        # per site: [calls, busy_ns, failures] for aggregated (wrapped) calls
        self._wrapped: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        # span id -> time of aggregated calls made while it was innermost
        self._wrapped_child_ns: dict[int, int] = defaultdict(int)

    def __call__(self, site, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = [site, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
               self.op_id, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except BaseException as err:
            rec[5] = type(err) if self.is_failure(err) else None
            raise
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, site, fn):
        """A stand-in for ``fn`` that is timed but stores no span."""
        stats = self._wrapped[site]

        def timed(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                stats[2] += self.is_failure(err)
                raise
            finally:
                dt = perf_counter_ns() - t0
                stats[0] += 1
                stats[1] += dt
                if self._stack:
                    self._wrapped_child_ns[self._stack[-1]] += dt

        return timed

    def site_stats(self) -> dict:
        """site -> {calls, busy_s (self time), fail, durations_s}."""
        child_ns = defaultdict(int, self._wrapped_child_ns)
        for site, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for sid, (site, start, end, _, _, error) in enumerate(self.spans):
            s = out.setdefault(site, {"calls": 0, "busy_s": 0.0, "fail": 0,
                                      "durations_s": []})
            s["calls"] += 1
            s["busy_s"] += (end - start - child_ns[sid]) / 1e9
            s["fail"] += error is not None
            s["durations_s"].append((end - start) / 1e9)
        for site, (calls, busy_ns, fails) in self._wrapped.items():
            out[site] = {"calls": calls, "busy_s": busy_ns / 1e9, "fail": fails,
                         "durations_s": []}
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["site", "start_ns", "end_ns", "parent", "op", "failure"],
                       "spans": [s[:5] + [s[5] and s[5].__name__] for s in self.spans],
                       "aggregated": {k: dict(zip(("calls", "busy_ns", "fail"), v))
                                      for k, v in self._wrapped.items()}}, fh)

