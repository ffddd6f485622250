"""In-memory span recorder that wraps public functions of cubeiso modules.

The traced run rebinds module attributes (for example ``gauss.j_point``) to
wrappers.  Callers that look the name up through the module at call time,
which is every internal call in cubeiso, then go through the wrapper.  Each
wrapper records one span per call:

    (span_id, name, start, end, cpu_s, parent_id, thread_id, attr)

start and end are wall-clock times; cpu_s is the calling thread's CPU time
over the span.  Self times are taken from cpu_s, so that with several
threads the time a span spends waiting for the interpreter lock is not
counted as work.

``attr`` is a small value taken from the arguments or the result (a bound
function id, a point, an evaluation count) from which the counts are derived.
Spans stay in memory and are written out once, when the run ends.  Nothing
under ``src/`` is changed; a metric that would need a private name is left
out.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr_name, name, attr=None, once=False):
        """Rebind owner.attr_name to a recording wrapper.

        attr(args, result) gives the span's attribute.  With once=True the
        wrapper records the first call only and then restores the original,
        for functions called too often to trace that matter only cold.
        """
        original = getattr(owner, attr_name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident

        def wrapper(*args, **kwargs):
            if once:
                setattr(owner, attr_name, original)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            c0, t0 = cpu(), perf()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1, c1 = perf(), cpu()
                stack.pop()
                spans.append((sid, name, t0, t1, c1 - c0, parent, ident(),
                              attr(args, result) if attr else None))

        self._patches.append((owner, attr_name, original))
        setattr(owner, attr_name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr_name, original = self._patches.pop()
            setattr(owner, attr_name, original)

    def write(self, path, header):
        """Write every span as one CSV line, after a '#' header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("span_id,name,start,end,cpu_s,parent_id,thread_id,attr\n")
            for sid, name, t0, t1, c, parent, thread, attr in self.spans:
                fh.write(f"{sid},{name},{t0!r},{t1!r},{c!r},{parent},{thread},\"{attr!r}\"\n")

    def summarize(self):
        """Per span name, in start order: each span's wall seconds, CPU
        seconds, CPU self seconds and attribute.  Self time is the span's CPU
        time minus the CPU time of its direct children."""
        child = defaultdict(float)
        for _sid, _name, _t0, _t1, c, parent, _thread, _attr in self.spans:
            if parent >= 0:
                child[parent] += c
        out = defaultdict(lambda: {"durations": [], "cpus": [], "selfs": [], "attrs": []})
        for sid, name, t0, t1, c, _parent, _thread, attr in sorted(self.spans, key=lambda s: s[2]):
            rec = out[name]
            rec["durations"].append(t1 - t0)
            rec["cpus"].append(c)
            rec["selfs"].append(c - child.get(sid, 0.0))
            rec["attrs"].append(attr)
        return out


def install(tracer):
    """Wrap the public functions each layer metric is read from.

    The claims module imported eval_bound_fn, partition, emit and
    verify_certificate by name, so those are rebound there.
    """
    from cubeiso import claims, funcs, gauss, oracle
    from cubeiso import partition as part

    def quantile_ends(args, _res):
        p = args[0]
        if not p.valid or p.lo <= 0.0 or p.hi >= 1.0:
            return None
        return (p.lo, p.hi)

    tracer.wrap(gauss, "profile_constants", "gauss.profile_constants", once=True)
    tracer.wrap(gauss, "normal_quantile", "gauss.normal_quantile", quantile_ends)
    tracer.wrap(gauss, "j_point", "gauss.j_point", lambda a, r: a[0])
    tracer.wrap(gauss, "jprime_point", "gauss.jprime_point", lambda a, r: a[0])
    tracer.wrap(claims, "eval_bound_fn", "bounds.eval_bound_fn", lambda a, r: a[0].fn_id)
    tracer.wrap(claims, "partition", "partition.partition",
                lambda a, r: a[3].evaluations if len(a) > 3 and a[3] is not None else 0)
    tracer.wrap(claims, "emit", "partition.emit")
    tracer.wrap(claims, "run_claim", "claims.run_claim",
                lambda a, r: getattr(a[0], "claim_id", a[0]))
    tracer.wrap(part, "load", "partition.load")
    tracer.wrap(claims, "verify_certificate", "partition.verify_certificate",
                lambda a, r: len(a[0].rects))
    tracer.wrap(funcs, "run_scalar_checks", "funcs.run_scalar_checks")
    tracer.wrap(funcs, "b", "funcs.b")
    tracer.wrap(oracle, "envelope_approx", "oracle.envelope_approx",
                lambda a, r: r.iterations if r is not None else 0)
    tracer.wrap(oracle, "profile_bruteforce", "oracle.profile_bruteforce")
    tracer.wrap(oracle, "poincare_exhaustive", "oracle.poincare_exhaustive")
