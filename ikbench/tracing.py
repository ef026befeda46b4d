"""Spans recorded around the calls into each layer of the solver.

``Tracer.install`` replaces the layer functions where ``cidgik.iteration``
looks them up at call time, so every call the solve loop makes passes
through a wrapper that records a span: name, start, end, parent span and
instance id, plus a few counts read off the call's result.
Start and end come from the clock the tracer is given: the benchmark passes
the process's CPU time without its speed samples.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager

# Layer functions that cidgik.iteration resolves through its module globals.
WRAPPED = (
    "lift",
    "solve",
    "direction_matrix",
    "excess_rank",
    "reconstruct_angles",
    "refine_configuration",
    "verify_solution",
)


def _counts(name: str, result) -> dict:
    if name == "lift":
        return {"rows": result.num_equalities + result.num_inequalities}
    if name == "solve":
        return {
            "iters": int(result.iterations),
            "status": result.status,
            "certified": result.certificate is not None,
        }
    if name == "refine_configuration":
        return {"accepted": result is not None}
    return {}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[dict] = []
        self.instance = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields its dict for extra counts."""
        record = {
            "name": name,
            "instance": self.instance,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record.update(_counts(name, result))
            return result

        return traced

    def install(self, module) -> None:
        """Route every WRAPPED lookup in `module` through a recording wrapper."""
        for name in WRAPPED:
            setattr(module, name, self.wrap(name, getattr(module, name)))
