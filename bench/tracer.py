"""In-memory span and count recorder for the benchmark's traced run.

Spans are opened only in the benchmark's own code: around its calls into
a safefilt public function ("library spans") and inside the callables it
hands to the library ("callback spans"). Spans nest on one stack, so a
span's self time is its duration minus the time of the spans opened
inside it; a library span's self time therefore excludes the benchmark's
model functions, nominals, disturbances and alphas that the library
called back into.

Spans are aggregated per name as they close (self seconds, total
seconds, call count) instead of being stored one by one: a traced pass
opens hundreds of thousands of callback spans, and every metric the
benchmark reports is a sum over them.

Every callback also bumps an exact counter keyed by (scope, kind), where
scope is the outermost library span open at the time ("sim.ode",
"certify.cost.qp-exact", ...) and kind names the callable ("f", "u0",
"alpha", ...). Counts do not depend on timing, so they repeat exactly
for the same inputs.
"""

from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    tracing = True

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()   # (scope, callback kind) -> calls
        self.tally = Counter()    # exact work counts: steps, samples, ...
        self.notes = {}           # measured values reported as they are
        self.scope = None
        self._stack = []          # [name, start, seconds spent in children]

    def _open(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def _close(self):
        name, start, child = self._stack.pop()
        dur = perf_counter() - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def lib(self, name, fn, *args, **kwargs):
        """Call a library function inside a library span named `name`."""
        outer = self.scope
        if outer is None:
            self.scope = name
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()
            self.scope = outer

    def callback(self, kind, fn):
        """Wrap a callable handed to the library: count it and span it."""
        name = "cb." + kind
        counts = self.counts

        def wrapped(*args):
            counts[(self.scope, kind)] += 1
            self._open(name)
            try:
                return fn(*args)
            finally:
                self._close()
        return wrapped

    def add(self, key, n=1):
        self.tally[key] += n

    def note(self, key, value):
        self.notes[key] = value

    def merge(self, other):
        for name, v in other.self_s.items():
            self.self_s[name] += v
        for name, v in other.total_s.items():
            self.total_s[name] += v
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        self.tally.update(other.tally)
        self.notes.update(other.notes)

    def count_in(self, scopes, kinds=None):
        """Callback invocations under any of `scopes`, optionally only
        those of the given kinds."""
        return sum(n for (scope, kind), n in self.counts.items()
                   if scope in scopes and (kinds is None or kind in kinds))


class NoTracer:
    """Stand-in used with tracing off: calls straight through, wraps
    nothing, records nothing."""

    tracing = False

    def add(self, key, n=1):
        pass

    def note(self, key, value):
        pass

    @staticmethod
    def lib(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def callback(kind, fn):
        return fn
