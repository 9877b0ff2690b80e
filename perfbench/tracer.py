"""Outside-in per-layer tracer for soctab.

The tracer wraps the public functions of each soctab layer module and
rebinds the wrapper at every place the package binds the original: the
defining module, every module that did ``from .x import f``, and the
package namespace.  Nothing under ``src/`` is edited; ``uninstall``
puts the originals back.

Every wrapped call is a span.  Spans nest through an explicit stack, so a
span's self time is its duration minus the time of the spans it caused.
The tracer's own bookkeeping (the clock reads, counters and hooks around
each call) is timed separately and subtracted from the enclosing span, so

    sum(self_s over all functions) + bookkeeping_s == total_s

where ``total_s`` is the summed duration of the outermost spans.  Spans
are aggregated per function as they close rather than stored, because a
single sweep makes millions of them.

Functions of the ``partitions`` layer are tiny and called hundreds of
thousands of times per sweep; they are counted but not timed, so their
time stays in the caller's span.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "partitions",
    "tableaux",
    "linalg",
    "modules",
    "embeddings",
    "realize",
    "convert",
    "switching",
    "checks",
)
COUNT_ONLY = frozenset({"partitions"})


class FnStats:
    """Aggregated spans of one traced function."""

    __slots__ = ("calls", "self_s", "yielded", "extra", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.extra = {}
        self.keys = None  # distinct-input set, for functions with a key hook

    def unique_ratio(self):
        return len(self.keys) / self.calls if self.calls else 0.0


def _rref_hook(st, args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    extra = st.extra
    extra["cells"] = extra.get("cells", 0) + int(mat.shape[0]) * int(mat.shape[1])
    which = "p2_calls" if p == 2 else "podd_calls"
    extra[which] = extra.get(which, 0) + 1


def _left_annihilator_hook(st, args, kwargs, result):
    basis, n, p = args
    a = np.asarray(basis, dtype=np.int64)
    st.keys.add((a.shape, a.tobytes(), int(n), int(p)))


def _count_tableaux_hook(st, args, kwargs, result):
    st.keys.add(repr((args, sorted(kwargs.items()))))


def _run_switch_hook(st, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    st.extra["swaps"] = st.extra.get("swaps", 0) + len(result.history) - len(state.history)


# Counters that need the arguments or the result of a call.  Functions
# with a key hook also report the share of distinct inputs.
HOOKS = {
    "linalg.rref": _rref_hook,
    "linalg.left_annihilator": _left_annihilator_hook,
    "tableaux.count_tableaux": _count_tableaux_hook,
    "switching.run_switch": _run_switch_hook,
}
KEYED = frozenset({"linalg.left_annihilator", "tableaux.count_tableaux"})


def import_layers():
    """Import every soctab module, so that every binding exists before patching."""
    import importlib

    for name in LAYERS + ("cli",):
        importlib.import_module(f"soctab.{name}")


def public_functions(module):
    """Public plain functions defined in ``module`` (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.stats`` afterwards."""

    def __init__(self):
        self.stats = {}
        self.bookkeeping_s = 0.0
        self._root = [0.0]
        self._stack = [self._root]
        self.wrapped = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (module, name, original)

    @property
    def total_s(self):
        """Summed duration of the outermost spans."""
        return self._root[0]

    # -- wrappers ---------------------------------------------------------

    def _counting(self, fn, st):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, st, hook):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            frame = [0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                st.calls += 1
                st.self_s += end - start - frame[0]
                if ok and hook is not None:
                    hook(st, args, kwargs, result)
                leave = clock()
                stack[-1][0] += leave - enter
                tracer.bookkeeping_s += (leave - enter) - (end - start)

        return wrapper

    def _generator_span(self, fn, st):
        """Each resumption of the generator is a span of the resuming caller."""
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                enter = clock()
                frame = [0.0]
                stack.append(frame)
                done = False
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                finally:
                    end = clock()
                    stack.pop()
                    st.self_s += end - start - frame[0]
                    leave = clock()
                    stack[-1][0] += leave - enter
                    tracer.bookkeeping_s += (leave - enter) - (end - start)
                if done:
                    return
                st.yielded += 1
                yield item

        return wrapper

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        st = self.stats[qual] = FnStats()
        if qual in KEYED:
            st.keys = set()
        if layer in COUNT_ONLY:
            return self._counting(fn, st)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(fn, st)
        return self._span(fn, st, HOOKS.get(qual))

    # -- patching ---------------------------------------------------------

    def install(self):
        import_layers()
        for layer in LAYERS:
            module = sys.modules[f"soctab.{layer}"]
            for name, fn in public_functions(module).items():
                self.wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "soctab" and not modname.startswith("soctab."):
                continue
            for name, obj in list(vars(module).items()):
                entry = self.wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, obj))
        return self

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS if layer not in COUNT_ONLY}
        for qual, st in self.stats.items():
            layer = qual.split(".", 1)[0]
            if layer in out:
                out[layer] += st.self_s
        return out

    def summary(self):
        """Plain-data view of every function's aggregated spans."""
        fns = {}
        for qual, st in self.stats.items():
            if not st.calls:
                continue
            row = {"calls": st.calls, "self_s": st.self_s, **st.extra}
            if st.yielded:
                row["yielded"] = st.yielded
            if st.keys is not None:
                row["unique_ratio"] = st.unique_ratio()
            fns[qual] = row
        return {
            "functions": fns,
            "layer_self_s": self.layer_self_s(),
            "bookkeeping_s": self.bookkeeping_s,
            "total_s": self.total_s,
        }
