"""Spans around recurlab's layer boundaries, recorded from outside the program.

``install(tracer)`` replaces the public functions of ``cli``, ``config``,
``rules``, ``operators``, ``orbits``, ``families``, ``classify`` and
``checks`` (plus the few private helpers the per-layer metrics name) with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  A function imported into another module (for example
``checks.return_set``) is replaced wherever that module looks it up, so
every call is seen.  Nothing in the program is edited.

Spans live in flat arrays while the benchmark runs and are written out when
it ends.  ``layer_metrics`` turns the spans of one pass into the per-layer
numbers listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.run_s": "s",
    "cli.self_s": "s",
    "config.parse_s": "s",
    "rules.eval_calls": "count",
    "rules.eval_s": "s",
    "operators.apply_calls": "count",
    "operators.apply_s": "s",
    "operators.power_apply_calls": "count",
    "operators.power_apply_s": "s",
    "operators.period_search_calls": "count",
    "operators.period_search_s": "s",
    "operators.period_probe_applies": "count",
    "operators.seminorm_calls": "count",
    "operators.seminorm_s": "s",
    "operators.max_exact_bits": "bits",
    "orbits.return_set_calls": "count",
    "orbits.return_set_s": "s",
    "orbits.profile_s": "s",
    "orbits.profile_values": "count",
    "orbits.stepwise_profiles": "count",
    "orbits.window_s": "s",
    "orbits.probe_s": "s",
    "families.window_builds": "count",
    "families.window_elements": "count",
    "families.window_build_s": "s",
    "families.density_report_calls": "count",
    "families.density_report_s": "s",
    "families.syndetic_certificate_s": "s",
    "families.ip_probe_calls": "count",
    "families.ip_probe_s": "s",
    "families.ip_probe_restarts": "count",
    "families.cut_shift_paste_calls": "count",
    "families.cut_shift_paste_s": "s",
    "classify.classify_calls": "count",
    "classify.classify_s": "s",
    "classify.window_evidence_s": "s",
    "checks.check_calls": "count",
    "checks.self_s": "s",
    "trace.pass_s": "s",
}

# private helpers that per-layer metrics need, beyond each module's __all__
_EXTRA = {
    "orbits": ("_stepwise_profile",),
    "checks": ("_csp_violation",),
}


def _bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    mag = getattr(value, "mag", None)          # values.Phase
    if mag is not None:
        return max(_bits(mag), _bits(value.turns))
    return 0


def _state_bits(state) -> int:
    entries = getattr(state, "entries", ())
    return max((_bits(e[-1]) for e in entries), default=0)


class Tracer:
    """Flat in-memory span store with per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.pass_bounds: list[tuple[int, int]] = []
        self.units = PER_LAYER

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def begin_pass(self) -> None:
        self.counters = {}
        self._pass_start = len(self.name)

    def end_pass(self) -> dict:
        lo, hi = self._pass_start, len(self.name)
        self.pass_bounds.append((lo, hi))
        return layer_metrics(self, lo, hi)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 pass_bounds=np.array(self.pass_bounds, dtype=np.int64).reshape(-1, 2))


# -- observers: counts taken from call results, outside the span ------------

def _observe_state(tr, args, kwargs, result):
    tr.peak("max_exact_bits", _state_bits(result))


def _observe_profile(tr, args, kwargs, result):
    tr.count("profile_values", len(result.values))


def _observe_window(tr, args, kwargs, result):
    elements = args[1] if len(args) > 1 else kwargs["elements"]
    tr.count("window_elements", len(elements))


def _observe_probe(tr, args, kwargs, result):
    tr.count("ip_probe_restarts", result.budget_used)


_OBSERVERS = {
    "operators.apply": _observe_state,
    "operators.power_apply": _observe_state,
    "orbits.distance_profile": _observe_profile,
    "families.IndexWindow.__init__": _observe_window,
    "families.ip_star_probe": _observe_probe,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the already imported ``recurlab``."""
    import recurlab
    # recurlab.classify is the function; the module comes from importlib
    checks, classify, cli, config, families, operators, orbits, rules = (
        importlib.import_module(f"recurlab.{m}") for m in
        ("checks", "classify", "cli", "config", "families", "operators", "orbits", "rules"))

    modules = [m for name, m in sys.modules.items()
               if name == "recurlab" or name.startswith("recurlab.")]

    def replace_everywhere(orig, new):
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, new)

    for short, mod in (("cli", cli), ("config", config), ("operators", operators),
                       ("orbits", orbits), ("families", families),
                       ("classify", classify), ("checks", checks)):
        names = set(getattr(mod, "__all__", ())) | set(_EXTRA.get(short, ()))
        for attr in sorted(names):
            orig = getattr(mod, attr)
            if not callable(orig) or isinstance(orig, type):
                continue
            if getattr(orig, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            replace_everywhere(orig, tracer.wrap(name, orig, _OBSERVERS.get(name)))

    rule_call = rules.Rule.__call__
    rules.Rule.__call__ = tracer.wrap("rules.Rule.__call__", rule_call)
    win = orbits.DistanceProfile.window
    orbits.DistanceProfile.window = tracer.wrap("orbits.DistanceProfile.window", win)
    iw = families.IndexWindow
    init = iw.__init__
    iw.__init__ = tracer.wrap("families.IndexWindow.__init__", init,
                              _OBSERVERS["families.IndexWindow.__init__"])
    from_iterable = iw.__dict__["from_iterable"].__func__
    iw.from_iterable = staticmethod(
        tracer.wrap("families.IndexWindow.from_iterable", from_iterable))
    if not all(hasattr(f, "__wrapped__") for f in (recurlab.return_set, recurlab.classify)):
        raise RuntimeError("tracing wrappers were not installed")


# -- per-layer metrics from the spans of one pass ---------------------------

def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    name = np.frombuffer(tracer.name, dtype=np.uint16)[lo:hi].astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].astype(np.int64)
    dur = (np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
           - np.frombuffer(tracer.start, dtype=np.float64)[lo:hi])
    local_parent = np.where(parent >= lo, parent - lo, -1)
    has_parent = local_parent >= 0
    covered_by_children = np.zeros(len(dur))
    np.add.at(covered_by_children, local_parent[has_parent], dur[has_parent])
    self_time = dur - covered_by_children
    parent_name = np.where(has_parent, name[np.maximum(local_parent, 0)], -1)

    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask_of(names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(name, wanted), wanted

    def calls(*names):
        m, _ = mask_of(names)
        return int(m.sum())

    def covered(*names):
        """Wall time inside any of the named spans, nested ones counted once."""
        m, wanted = mask_of(names)
        outer = m & ~np.isin(parent_name, wanted)
        return float(dur[outer].sum())

    def self_of(names):
        m, _ = mask_of(names)
        return float(self_time[m].sum())

    c = tracer.counters
    check_names = [n for n in tracer.names if n.startswith("checks.")]
    in_run = (name == ids.get("bench.reference", -2)) & (
        parent_name == ids.get("cli.run_config", -2))
    out = {
        "cli.run_s": covered("cli.run_config") - float(dur[in_run].sum()),
        "cli.self_s": self_of(["cli.run_config"]),
        "config.parse_s": covered("config.parse_config"),
        "rules.eval_calls": calls("rules.Rule.__call__"),
        "rules.eval_s": covered("rules.Rule.__call__"),
        "operators.apply_calls": calls("operators.apply"),
        "operators.apply_s": covered("operators.apply"),
        "operators.power_apply_calls": calls("operators.power_apply"),
        "operators.power_apply_s": covered("operators.power_apply"),
        "operators.period_search_calls": calls("operators.exact_state_period"),
        "operators.period_search_s": covered("operators.exact_state_period"),
        "operators.period_probe_applies": int(np.sum(
            (name == ids.get("operators.power_apply", -2))
            & (parent_name == ids.get("operators.exact_state_period", -2)))),
        "operators.seminorm_calls": calls("operators.seminorm", "operators.diff_seminorm"),
        "operators.seminorm_s": covered("operators.seminorm", "operators.diff_seminorm"),
        "operators.max_exact_bits": c.get("max_exact_bits", 0),
        "orbits.return_set_calls": calls("orbits.return_set"),
        "orbits.return_set_s": covered("orbits.return_set"),
        "orbits.profile_s": covered("orbits.distance_profile"),
        "orbits.profile_values": c.get("profile_values", 0),
        "orbits.stepwise_profiles": calls("orbits._stepwise_profile"),
        "orbits.window_s": covered("orbits.DistanceProfile.window"),
        "orbits.probe_s": covered("orbits.orbit_growth", "orbits.power_bounded_probe",
                                  "orbits.totally_bounded_probe"),
        "families.window_builds": calls("families.IndexWindow.__init__"),
        "families.window_elements": c.get("window_elements", 0),
        "families.window_build_s": covered("families.IndexWindow.__init__",
                                           "families.IndexWindow.from_iterable"),
        "families.density_report_calls": calls("families.density_report"),
        "families.density_report_s": covered("families.density_report"),
        "families.syndetic_certificate_s": covered("families.syndetic_certificate"),
        "families.ip_probe_calls": calls("families.ip_star_probe"),
        "families.ip_probe_s": covered("families.ip_star_probe"),
        "families.ip_probe_restarts": c.get("ip_probe_restarts", 0),
        "families.cut_shift_paste_calls": calls("families.cut_shift_paste"),
        "families.cut_shift_paste_s": covered("families.cut_shift_paste"),
        "classify.classify_calls": calls("classify.classify"),
        "classify.classify_s": covered("classify.classify"),
        "classify.window_evidence_s": covered("classify.window_evidence"),
        "checks.check_calls": calls(*[n for n in check_names if n.endswith("_check")]),
        "checks.self_s": self_of(check_names),
    }
    return out
