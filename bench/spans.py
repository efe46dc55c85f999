"""Spans around the calls into each engine module, installed from outside.

``Tracer.install`` rebinds every public function of the package, in every
module namespace that holds it (the home module, each module that imported
it by name, and the package), to a wrapper that opens a span named
``<home module>.<function>``.  Recursive and intra-module calls of public
functions therefore open spans too.  Spans are folded into per-name totals
when they close: nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self._saved = []

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - children

    def wrap(self, name, fn):
        enter, exit = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit()

        return traced

    def install(self, package="sheafcalc", methods=()):
        """Wrap the package's public functions and the given (class, method,
        span name) triples."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith(package + ".")
                ):
                    if value not in wrappers:
                        home = value.__module__.rsplit(".", 1)[1]
                        wrappers[value] = self.wrap(f"{home}.{value.__name__}", value)
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
