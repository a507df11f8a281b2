"""Run the zsr CLI with its public functions wrapped in timing spans.

Usage: python3 zsrtrace.py SPANS_OUT ZSR_ARGS...

Every public function defined in a zsr module is wrapped, and the wrapper is
bound in place of every module-level binding of that function (so
``zsr.counting.binomial``, ``zsr.lemmas.binomial`` and
``zsr.exactmath.binomial`` all report as ``exactmath.binomial``).
``ReciprocityReport.to_record`` is wrapped on its class.  Generator functions
get one span per resumption, so a generator's time covers only the steps it
runs itself, not the consumer's loop body.

Spans (name, parent, start, end) are kept in flat in-memory arrays and
written once when the command ends; ``read_spans`` and ``layer_totals``
derive per-function call counts and self times from them.  Private pair
evaluators are counted but not timed, so their time stays in the public
function that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("exactmath", "groups", "counting", "reciprocity", "lemmas", "cli")
METHODS = (("reciprocity", "ReciprocityReport", "to_record"),)
COUNTED = (("reciprocity", "_cached_check"),)


class Tracer:
    """Records spans of wrapped calls in flat arrays, plus call counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        open_span, close_span = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item
            wrapper = generator_wrapper
        else:
            def wrapper(*args, **kwargs):
                idx = open_span(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters[name] = 0

        def counting_wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counting_wrapper

    def install(self) -> None:
        """Wrap and rebind every public zsr function, and count the private pair evaluator."""
        modules = {layer: importlib.import_module(f"zsr.{layer}") for layer in LAYERS}
        bindings = [importlib.import_module("zsr"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for holder in bindings:
                    for bound_name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, bound_name, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and inspect.isfunction(vars(cls).get(method)):
                setattr(cls, method, self.wrap(f"{layer}.{method}", vars(cls)[method]))
        for layer, attr in COUNTED:
            fn = vars(modules[layer]).get(attr)
            if inspect.isfunction(fn):
                setattr(modules[layer], attr, self.count(f"{layer}.{attr}", fn))

    def write(self, path: str) -> None:
        header = {"names": self.names, "counters": self.counters, "spans": len(self.starts),
                  "open": len(self.stack) - 1}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path: str):
    """Load a span file: (header, name_ids, parents, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "q", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def layer_totals(path: str) -> tuple[dict, dict, list[str], int]:
    """Per-name {calls, self_ns, total_ns}, counters, wrapped names and root span time.

    Self time is a span's duration minus the durations of its direct
    children.  Root spans (no parent) are the traced ``cli.main`` calls, so
    the self times of all names sum to the returned root time exactly.
    """
    header, name_ids, parents, starts, ends = read_spans(path)
    if header["open"]:
        raise ValueError(f"{path}: {header['open']} spans were never closed")
    names = header["names"]
    child_ns = array("q", bytes(8 * len(starts)))
    root_ns = 0
    for idx, parent in enumerate(parents):
        dur = ends[idx] - starts[idx]
        if parent >= 0:
            child_ns[parent] += dur
        else:
            root_ns += dur
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    total_ns = [0] * len(names)
    for idx, name_id in enumerate(name_ids):
        dur = ends[idx] - starts[idx]
        calls[name_id] += 1
        total_ns[name_id] += dur
        self_ns[name_id] += dur - child_ns[idx]
    totals = {name: {"calls": calls[i], "self_ns": self_ns[i], "total_ns": total_ns[i]}
              for i, name in enumerate(names)}
    return totals, header["counters"], names, root_ns


def main(argv: list[str]) -> int:
    spans_out, zsr_args = argv[0], argv[1:]
    import zsr.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = zsr.cli.main(zsr_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
