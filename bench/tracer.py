"""Wrap the package's public functions from outside and record what they do.

Nothing under ``src/`` knows about this module.  ``Patch`` replaces every
binding of a traced function in every loaded ``delaygrowth`` module
(``from .functionals import evaluate`` copies the binding into ``analysis``,
``cli.DISPATCH`` holds the command functions), fails if an original is still
held where no wrapper can replace it, and puts the originals back when the
pass is over.

Three kinds of wrapper, one per kind of pass:

* capture: keeps each trajectory ``simulate_euler`` returns, for the
  fingerprint check; it times nothing and is all that untraced passes add;
* span: records (function, start, end, parent span, run) for every call of
  every traced function except the per-step ones in ``COUNT_ONLY``;
* count: counts calls of the per-step functions, which are too hot to time
  without the wrapper cost landing in their callers' self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types

PACKAGE = "delaygrowth"
MODULES = ("cli", "coefficients", "functionals", "simulator", "analysis", "logdomain")
COUNT_ONLY = ("logdomain.log_add", "logdomain.log_scale", "functionals.evaluate")
SIMULATE = "simulator.simulate_euler"


class BindingError(RuntimeError):
    pass


def traced_functions() -> dict[str, types.FunctionType]:
    """``module.function`` -> function, for the public functions of each module."""
    out = {}
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out[f"{short}.{name}"] = obj
    missing = [key for key in COUNT_ONLY + (SIMULATE,) if key not in out]
    if missing:
        raise BindingError(f"traced functions not found: {', '.join(missing)}")
    return out


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _is_original(value, originals: dict[int, str]) -> bool:
    return isinstance(value, types.FunctionType) and id(value) in originals


def _bindings(originals: dict[int, str]):
    """(namespace, key, where) for every place in the package that holds an
    original; namespace is None where no wrapper can be swapped in."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            where = f"{module.__name__}.{attr}"
            if _is_original(value, originals):
                yield vars(module), attr, where
            elif isinstance(value, dict):
                for key, item in value.items():
                    if _is_original(item, originals):
                        yield value, key, f"{where}[{key!r}]"
            elif isinstance(value, (list, tuple, set, frozenset)):
                if any(_is_original(item, originals) for item in value):
                    yield None, None, where
            elif isinstance(value, (types.FunctionType, type)) and \
                    value.__module__ == module.__name__:
                members = vars(value).values() if isinstance(value, type) else (value,)
                for member in members:
                    held = (getattr(member, "__defaults__", None) or ()) + tuple(
                        (getattr(member, "__kwdefaults__", None) or {}).values())
                    if _is_original(member, originals) or any(
                            _is_original(d, originals) for d in held):
                        yield None, None, f"{where} ({getattr(member, '__name__', '?')})"


class Patch:
    """Swap wrappers in for originals at every binding; a context manager.

    Raises BindingError, leaving nothing patched, when an original is held
    where no wrapper can replace it (a default argument, a class attribute,
    a sequence), since calls through it would escape the trace.
    """

    def __init__(self, functions: dict[str, types.FunctionType],
                 wrappers: dict[str, types.FunctionType]):
        self.functions = functions
        self.wrappers = wrappers
        self.replaced: list[tuple[dict, object, types.FunctionType]] = []

    def __enter__(self) -> "Patch":
        originals = {id(self.functions[name]): name for name in self.wrappers}
        for namespace, key, _ in list(_bindings(originals)):
            if namespace is not None:
                original = namespace[key]
                namespace[key] = self.wrappers[originals[id(original)]]
                self.replaced.append((namespace, key, original))
        left = [where for _, _, where in _bindings(originals)]
        if left:
            self.__exit__(None, None, None)
            raise BindingError("unwrapped originals remain at: " + "; ".join(left))
        return self

    def __exit__(self, *exc) -> None:
        for namespace, key, original in reversed(self.replaced):
            namespace[key] = original
        self.replaced.clear()


class Capture:
    """Keeps the trajectories ``simulate_euler`` returns during one run."""

    def __init__(self):
        self.trajectories: list = []

    def wrap(self, fn):
        keep = self.trajectories.append

        def simulate_euler(*args, **kwargs):
            result = fn(*args, **kwargs)
            keep(result)
            return result
        return simulate_euler


class Spans:
    """Span recorder: one tuple per call, in call order.

    A span is (name, start, end, parent index or -1, run id).  Spans of one
    CLI run share the run id.
    """

    def __init__(self, capture: Capture):
        self.capture = capture
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = ""
        # per-name work counts read off arguments and results
        self.extra: dict[str, float] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def _observer(self, name: str):
        if name == SIMULATE:
            def observe(args, kwargs, trajectory):
                self.capture.trajectories.append(trajectory)
                self._add("simulator.steps", trajectory.forward_steps)
                self._add("simulator.truncated_runs", int(trajectory.truncated))
            return observe
        if name == "simulator.write_trajectory_csv":
            return lambda args, kwargs, _: self._add(
                "simulator.write_trajectory_csv.rows", len(args[0].log_states))
        if name == "functionals.evaluate_many":
            return lambda args, kwargs, result: self._add(
                "functionals.evaluate_many.points", len(result))
        return None

    def summary(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds; per-module self seconds."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = dict(self.extra)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            own = duration - child[i]
            module = name.split(".", 1)[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own
            # inclusive time counts only the outermost call of a recursion
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
        return out


class Counts:
    """Call counters for the per-step functions, plus evaluate calls made
    while an ``invert`` is on the stack."""

    def __init__(self, capture: Capture):
        self.capture = capture
        self.counts: dict[str, int] = {}
        self.invert_depth = 0

    def wrap(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0
        if name == "functionals.invert":
            def invert(*args, **kwargs):
                counts[key] += 1
                self.invert_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.invert_depth -= 1
            return invert
        if name == "functionals.evaluate":
            counts["functionals.invert.evaluate_calls"] = 0

            def evaluate(*args, **kwargs):
                counts[key] += 1
                if self.invert_depth:
                    counts["functionals.invert.evaluate_calls"] += 1
                return fn(*args, **kwargs)
            return evaluate
        if name == SIMULATE:
            keep = self.capture.trajectories.append

            def simulate_euler(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                keep(result)
                return result
            return simulate_euler

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted
