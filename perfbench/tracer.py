"""Run one meridian CLI invocation with its public layer functions traced.

Usage: python perfbench/tracer.py SPANS_FILE [meridian arguments ...]

Each function named in ``layers.TRACED`` is wrapped, and the wrapper is
rebound in every ``meridian.*`` namespace that holds the original: ``cli``
and ``orbifold`` import functions by name, and ``abelian``/``exactalg``
recurse through their module globals.  Spans stay in memory and are written
to SPANS_FILE as JSON when the command returns, with two times:
``overhead_s`` is the time tracing added to the command (wrapping, turning
the spans into JSON, and the number of spans times the cost of one traced
call: a wrapped no-op minus the bare no-op, timed here), and ``own_s`` the
time this script spent outside the command.  Stdout, stderr and the exit
code are those of ``python -m meridian.cli`` with the same arguments.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from layers import TRACED


def span_recorder(spans: list):
    """``wrap(name, func, extract)``: func, appending one span per call."""
    stack: list[int] = []

    def wrap(name, func, extract):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counters = extract(args, kwargs, result) \
                    if extract is not None and result is not None else {}
                spans[index] = [name, start, end, parent, counters]
        return traced

    return wrap


def traced_call_cost(calls: int = 5000) -> float:
    """Seconds one traced call adds to the call it wraps."""
    def noop():
        return None

    traced = span_recorder([])("noop", noop, None)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    middle = time.perf_counter()
    for _ in range(calls):
        noop()
    end = time.perf_counter()
    return max(0.0, ((middle - start) - (end - middle)) / calls)


def install(spans: list) -> None:
    """Wrap the traced functions; each call appends one span to ``spans``."""
    import meridian.cli  # noqa: F401  (imports every layer module)

    wrap = span_recorder(spans)
    wrapped = {}
    for module_name, functions in TRACED.items():
        module = sys.modules[f"meridian.{module_name}"]
        for func_name, extract in functions.items():
            func = getattr(module, func_name)
            wrapped[id(func)] = (func, wrap(f"{module_name}.{func_name}",
                                            func, extract))
    for name, module in list(sys.modules.items()):
        if name != "meridian" and not name.startswith("meridian."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import meridian.cli

    spans: list = []
    start = time.perf_counter()
    install(spans)
    wrapping = time.perf_counter() - start
    try:
        return meridian.cli.main(argv)
    finally:
        sys.stdout.flush()
        start = time.perf_counter()
        text = json.dumps(spans)
        dumped = time.perf_counter()
        per_call = traced_call_cost()
        own = wrapping + time.perf_counter() - start
        overhead = wrapping + dumped - start + len(spans) * per_call
        with open(spans_file, "w", encoding="utf-8") as handle:
            handle.write(f'{{"overhead_s": {overhead!r}, "own_s": {own!r},'
                         f' "spans": {text}}}')


if __name__ == "__main__":
    sys.exit(main())
