"""Per-layer tracing for the benchmark, done from the benchmark's own code.

The tracer replaces a library function by a timing wrapper wherever the
function is bound in a loaded ``betrans`` module: module globals and
module-level dicts (for example ``beops._DISPATCH``), or the class
attribute for methods.  ``restore()`` puts every original back.  Nothing
under ``src/`` is edited.

Each wrapper records a span.  A span's self time is its duration minus the
time of the spans it encloses, so nested layers (a plan build that
evaluates a Legendre kernel) are not counted twice.  A call that re-enters
the key of the span directly enclosing it (``hardy_shifted`` calling
``hardy``) is folded into that span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [key, child seconds]
        self._undo: list[tuple] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.count = defaultdict(int)

    # -- spans ---------------------------------------------------------

    def _enter(self, key):
        self._stack.append([key, 0.0])
        return time.perf_counter()

    def _leave(self, key, t0):
        dt = time.perf_counter() - t0
        _, child = self._stack.pop()
        self.calls[key] += 1
        self.self_s[key] += dt - child
        self.incl_s[key] += dt
        if self._stack:
            self._stack[-1][1] += dt

    @contextmanager
    def span(self, key):
        """A span around benchmark code."""
        t0 = self._enter(key)
        try:
            yield
        finally:
            self._leave(key, t0)

    def wrap(self, key, fn, on_call=None):
        """fn timed under key; on_call(args, result) adds counts."""

        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == key:
                return fn(*args, **kwargs)
            t0 = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(key, t0)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner, name, key, on_call=None, skip_home=False, only=None):
        """Wrap owner.name under key; owner is a module or a class.

        For a class the method is replaced on the class, otherwise at every
        binding rebind() finds.
        """
        orig = getattr(owner, name)
        wrapped = self.wrap(key, orig, on_call)
        if isinstance(owner, type):
            self._set(owner, name, wrapped)
        else:
            self.rebind(orig, wrapped, skip_home, only)

    def rebind(self, orig, replacement, skip_home=False, only=None):
        """Replace orig at every binding in a loaded betrans module.

        skip_home leaves calls from inside orig's defining module alone;
        only restricts the rebinding to the named modules.
        """
        home = getattr(orig, "__module__", None)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "betrans" or mod_name.startswith("betrans.")):
                continue
            if only is not None and mod_name not in only:
                continue
            if skip_home and mod_name == home:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, replacement)
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for k, v in list(val.items()):
                        if v is orig:
                            self._set_item(val, k, replacement)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr), False))
        setattr(obj, attr, value)

    def _set_item(self, d, k, value):
        self._undo.append((d, k, d[k], True))
        d[k] = value

    def restore(self):
        for obj, attr, orig, is_item in reversed(self._undo):
            if is_item:
                obj[attr] = orig
            else:
                setattr(obj, attr, orig)
        self._undo.clear()

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "count": dict(self.count),
        }


def diff(after: dict, before: dict) -> dict:
    """Per-key difference of two snapshots (the work done between them)."""
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
        for part in after
    }


def _size_of(index):
    def size(args):
        return int(np.size(args[index])) if len(args) > index else 0

    return size


LEGENDRE = {
    # function name -> position of the argument array
    "legendre_p": 1,
    "legendre_p_deriv": 1,
    "legendre_p_deriv_oncut": 1,
    "legendre_p_assoc": 2,
    "legendre_q1": 1,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from betrans import _engine, classicops, fracint, mellin, numgrid
    from betrans.beops import first_kind, katrakhov, second_kind, transforms, zero_order
    from betrans.specfun import gamma, legendre

    count = tracer.count

    # specfun: kernels as bound in their calling modules
    for name, pos in LEGENDRE.items():
        size = _size_of(pos)

        def on_legendre(args, result, name=name, size=size):
            count[f"specfun.{name}.evals"] += size(args)

        tracer.patch(legendre, name, f"specfun.{name}", on_legendre, skip_home=True)
    tracer.patch(gamma, "gamma_complex", "specfun.gamma_complex", skip_home=True)

    # _engine: plan build, plan apply, grid differentiation
    def on_build(args, plan):
        count["engine.plan_nodes"] += len(plan.t_all)
        count["engine.plan_bytes_computed"] += sum(
            v.nbytes for v in vars(plan).values() if isinstance(v, np.ndarray)
        )

    for name in ("build_lower_plan", "build_upper_plan", "build_pv_plan"):
        tracer.patch(_engine, name, "engine.build_plan", on_build)
    tracer.patch(_engine.KernelPlan, "apply", "engine.plan_apply")
    tracer.patch(_engine.PVPlan, "apply", "engine.plan_apply")
    tracer.patch(_engine, "deriv_on_grid", "engine.deriv_on_grid")
    tracer.patch(_engine, "second_deriv_on_grid", "engine.deriv_on_grid")

    # plan caches: a lookup that has to call its build function is a miss
    def plan_lookup(fn):
        def lookup(key, make):
            count["beops.plan_lookups"] += 1

            def build():
                count["beops.plan_misses"] += 1
                return make()

            return fn(key, build)

        return lookup

    tracer.rebind(zero_order._plan, plan_lookup(zero_order._plan))
    tracer.rebind(fracint._cached_plan, plan_lookup(fracint._cached_plan))

    # numgrid
    def on_eval(args, result):
        count["numgrid.sampled_eval.points"] += int(np.size(args[1]))

    tracer.patch(numgrid.SampledFunction, "__call__", "numgrid.sampled_eval", on_eval)
    tracer.patch(numgrid.SampledFunction, "deriv", "numgrid.sampled_eval", on_eval)
    for name in ("norm_l2", "norm_weighted"):
        tracer.patch(numgrid, name, "numgrid.norm")
    tracer.patch(numgrid, "make_grid", "numgrid.setup")

    # fracint and classicops entry points
    for name in ("rl_integral", "ek_integral", "frac_by_function"):
        tracer.patch(fracint, name, "fracint.apply")
    for name in ("spd_poisson", "spd_sonine", "hardy", "hardy_shifted", "unitary_u", "stieltjes", "lift_sonine", "lift_poisson"):
        tracer.patch(classicops, name, "classicops.apply")

    # mellin
    def on_mellin(args, samples):
        count["mellin.degraded"] += bool(samples.degraded)

    tracer.patch(mellin, "mellin_numeric", "mellin.mellin_numeric", on_mellin)
    tracer.patch(mellin, "multiplicator", "mellin.multiplicator")
    tracer.patch(mellin, "numeric_line_sup", "mellin.line_sup")

    # beops families, inclusive
    for mod, fn_name, family in (
        (first_kind, "apply_first_kind", "first_kind"),
        (zero_order, "apply_zero_order", "zero_order"),
        (second_kind, "apply_second_kind", "second_kind"),
        (katrakhov, "apply_katrakhov", "katrakhov"),
        (transforms, "apply_weighted_third", "weighted_third"),
    ):
        tracer.patch(mod, fn_name, f"beops.{family}")

    # beops.transforms
    def on_jv(args, result):
        count["transforms.jv.evals"] += int(np.size(result))

    tracer.patch(transforms, "hankel", "transforms.hankel")
    tracer.patch(transforms, "fourier_sine", "transforms.trig")
    tracer.patch(transforms, "fourier_cosine", "transforms.trig")
    tracer.patch(transforms, "jv", "transforms.jv", on_jv, only={"betrans.beops.transforms"})
