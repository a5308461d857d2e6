"""Layer spans recorded from outside the program, by wrapping public functions.

The package modules import each other with ``from .x import y``, so a
function is looked up through the module that calls it, not through the
module that defines it.  Each wrapper is therefore installed at every
consumer binding listed in ``LAYERS``.  Modules are resolved with
``importlib.import_module``: ``heavenly.classify`` as a package attribute is
the classify *function*, which shadows the module of the same name.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or ``None``.  A layer's self time is its span's duration
minus the durations of its direct child spans; its inclusive time counts
only activations with no enclosing span of the same name, so recursion
through a wrapper is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable

from workloads import CHECK_IDS


class Tracer:
    """In-memory span and counter recorder for one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def exit(self) -> None:
        self.spans[self._open.pop()][2] = self.clock()

    def add(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def high(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``incl_s``."""
    out: dict[str, dict[str, float]] = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_s[parent] += end - start
    for k, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "incl_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child_s[k]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["incl_s"] += duration
    return out


# ---------------------------------------------------------------------------
# What is wrapped, and where.


def _digits(n) -> int:
    return len(str(abs(int(n))))


def _factor_over_q_args(tracer, f, *args, **kwargs):
    tracer.add("factorization.factor_over_q.degree_sum", f.degree)
    tracer.high("factorization.factor_over_q.max_degree", f.degree)


def _splitting_tower_result(tracer, tower):
    tracer.high("towers.splitting_tower.max_degree", tower.absolute_degree)


def _primitive_element_result(tracer, poly):
    tracer.high("towers.primitive_element.max_degree", poly.degree)


def _odd_ramified_args(tracer, tower, *args, **kwargs):
    tracer.high("ramification.odd_ramified_primes.max_field_degree",
                tower.absolute_degree)


def _odd_ramified_result(tracer, primes):
    tracer.add("ramification.ramified_primes", len(primes))


def _odd_prime_divisors_args(tracer, n, *args, **kwargs):
    tracer.high("integers.odd_prime_divisors.max_digits", _digits(n))


def _odd_prime_divisors_result(tracer, primes):
    tracer.add("ramification.candidate_primes", len(primes))


def _discriminant_result(tracer, d):
    tracer.high("polynomials.discriminant.max_digits", _digits(d.numerator))


def _pair_search_result(tracer, search):
    tracer.add("permgroups.two_generation_search.pairs_examined",
               search.pairs_examined)


def _subgroups_result(tracer, subgroups):
    tracer.add("permgroups.enumerate_subgroups.subgroups", len(subgroups))


def _core_bound_result(tracer, report):
    tracer.add("permgroups.core_bound_check.chains_checked",
               report.chains_checked)


@dataclass(frozen=True)
class Layer:
    """One wrapped public function and the modules whose binding it replaces."""

    name: str
    module: str
    attr: str
    consumers: tuple[str, ...]
    before: Callable | None = None
    after: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("towers.factor_over_tower", "heavenly.towers", "factor_over_tower",
          ("heavenly.classify", "heavenly.towers")),
    Layer("towers.splitting_tower", "heavenly.towers", "splitting_tower",
          ("heavenly.classify", "heavenly.towers", "heavenly.cli"),
          after=_splitting_tower_result),
    Layer("towers.primitive_element", "heavenly.towers", "primitive_element",
          ("heavenly.towers", "heavenly.ramification"),
          after=_primitive_element_result),
    Layer("towers.galois_closure_is_2power", "heavenly.towers",
          "galois_closure_is_2power", ("heavenly.classify",)),
    Layer("factorization.factor_over_q", "heavenly.factorization",
          "factor_over_q", ("heavenly.towers",),
          before=_factor_over_q_args),
    Layer("ramification.odd_ramified_primes", "heavenly.ramification",
          "odd_ramified_primes", ("heavenly.classify", "heavenly.cli"),
          before=_odd_ramified_args, after=_odd_ramified_result),
    Layer("polynomials.discriminant", "heavenly.polynomials", "discriminant",
          ("heavenly.classify", "heavenly.ramification"),
          after=_discriminant_result),
    Layer("integers.odd_prime_divisors", "heavenly.integers",
          "odd_prime_divisors", ("heavenly.ramification",),
          before=_odd_prime_divisors_args, after=_odd_prime_divisors_result),
    Layer("permgroups.two_generation_search", "heavenly.permgroups",
          "two_generation_search", ("heavenly.verifier", "heavenly.permgroups"),
          after=_pair_search_result),
    Layer("permgroups.enumerate_subgroups", "heavenly.permgroups",
          "enumerate_subgroups", ("heavenly.verifier", "heavenly.permgroups"),
          after=_subgroups_result),
    Layer("permgroups.core_bound_check", "heavenly.permgroups",
          "core_bound_check", ("heavenly.verifier",),
          after=_core_bound_result),
    Layer("permgroups.close_generators", "heavenly.permgroups",
          "close_generators", ("heavenly.permgroups",)),
    Layer("permgroups.subdirect_products_s3", "heavenly.permgroups",
          "subdirect_products_s3", ("heavenly.verifier",)),
    Layer("classify.classify", "heavenly.classify", "classify",
          ("heavenly.cli", "heavenly.verifier")),
    Layer("documents.input_from_document", "heavenly.documents",
          "input_from_document", ("heavenly.cli",)),
    Layer("documents.output_document", "heavenly.documents",
          "output_document", ("heavenly.cli",)),
    Layer("documents.dump_document", "heavenly.documents", "dump_document",
          ("heavenly.cli",)),
    Layer("cli.main", "heavenly.cli", "main", ("heavenly.cli",)),
)


def _wrap(tracer: Tracer, layer: Layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if layer.before is not None:
            layer.before(tracer, *args, **kwargs)
        tracer.enter(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if layer.after is not None:
            layer.after(tracer, result)
        return result
    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Replace every consumer binding with a traced wrapper.

    Returns the ``(module, attr, original)`` records that ``uninstall``
    needs.  A function missing from its defining module is skipped, and so
    is a consumer that no longer binds the original.
    """
    patched = []
    for layer in LAYERS:
        original = getattr(importlib.import_module(layer.module),
                           layer.attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, layer, original)
        for name in layer.consumers:
            module = importlib.import_module(name)
            if getattr(module, layer.attr, None) is original:
                patched.append((module, layer.attr, original))
                setattr(module, layer.attr, wrapper)
    return patched


def uninstall(patched) -> None:
    """Put back every binding that ``install`` replaced."""
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.


_TIMED = {
    "towers.factor_over_tower": ("self_s", "calls"),
    "towers.splitting_tower": ("self_s", "incl_s", "calls"),
    "towers.primitive_element": ("self_s", "calls"),
    "towers.galois_closure_is_2power": ("self_s", "incl_s", "calls"),
    "factorization.factor_over_q": ("self_s", "calls"),
    "ramification.odd_ramified_primes": ("self_s", "incl_s", "calls"),
    "polynomials.discriminant": ("self_s", "calls"),
    "integers.odd_prime_divisors": ("self_s", "calls"),
    "permgroups.two_generation_search": ("self_s",),
    "permgroups.enumerate_subgroups": ("self_s",),
    "permgroups.core_bound_check": ("self_s",),
    "permgroups.close_generators": ("self_s", "calls"),
    "permgroups.subdirect_products_s3": ("self_s",),
    "classify.classify": ("self_s", "calls"),
    "documents.input_from_document": ("self_s",),
    "documents.output_document": ("self_s",),
    "documents.dump_document": ("self_s",),
    "cli.main": ("self_s",),
}

_COUNTS = (
    "towers.splitting_tower.max_degree",
    "towers.primitive_element.max_degree",
    "factorization.factor_over_q.degree_sum",
    "factorization.factor_over_q.max_degree",
    "ramification.odd_ramified_primes.max_field_degree",
    "ramification.candidate_primes",
    "ramification.ramified_primes",
    "polynomials.discriminant.max_digits",
    "integers.odd_prime_divisors.max_digits",
    "permgroups.two_generation_search.pairs_examined",
    "permgroups.enumerate_subgroups.subgroups",
    "permgroups.core_bound_check.chains_checked",
)

_UNITS = {"self_s": "s", "incl_s": "s", "calls": "count",
          "max_degree": "degree", "max_field_degree": "degree",
          "degree_sum": "degree", "max_digits": "digits"}


def per_layer_metrics() -> list[dict]:
    """The per-layer metric declarations, in report order."""
    out = []
    for layer, fields in _TIMED.items():
        for field in fields:
            out.append({"name": f"{layer}.{field}", "unit": _UNITS[field],
                         "better": "lower"})
    for name in _COUNTS:
        unit = _UNITS.get(name.rsplit(".", 1)[1], "count")
        out.append({"name": name, "unit": unit, "better": "lower"})
    out.append({"name": "ramification.useful_ratio", "unit": "ratio",
                "better": "higher"})
    out.append({"name": "permgroups.mult_table.hit_ratio", "unit": "ratio",
                "better": "higher"})
    for check in CHECK_IDS:
        out.append({"name": f"verifier.{check}.s", "unit": "s",
                    "better": "lower"})
    for name, unit in (("trace.unattributed_s", "s"),
                       ("trace.overhead_s", "s"),
                       ("trace.prediction_misses", "count")):
        out.append({"name": name, "unit": unit, "better": "lower"})
    return out


def pass_metrics(tracer: Tracer, pass_s: float,
                 mult_table_info) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and the call count per layer.

    The whole-run values (overhead, prediction misses) are left out.
    """
    summary = summarize(tracer.spans)
    values = {}
    for layer, fields in _TIMED.items():
        entry = summary.get(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for field in fields:
            values[f"{layer}.{field}"] = entry[field]
    for name in _COUNTS:
        values[name] = tracer.counters.get(name, tracer.maxima.get(name, 0))
    candidates = values["ramification.candidate_primes"]
    values["ramification.useful_ratio"] = (
        values["ramification.ramified_primes"] / candidates
        if candidates else 0.0)
    lookups = mult_table_info.hits + mult_table_info.misses
    values["permgroups.mult_table.hit_ratio"] = (
        mult_table_info.hits / lookups if lookups else 0.0)
    values["trace.unattributed_s"] = pass_s - sum(
        entry["self_s"] for entry in summary.values())
    calls = {layer: summary.get(layer, {"calls": 0})["calls"]
             for layer in _TIMED}
    return values, calls


# Which wrappers must be called on each workload (calls > 0), and which must
# not be called at all; anything else may or may not be called.
_PERMGROUPS = ("permgroups.two_generation_search",
               "permgroups.enumerate_subgroups",
               "permgroups.core_bound_check",
               "permgroups.close_generators",
               "permgroups.subdirect_products_s3")
_CLI = ("documents.input_from_document", "documents.output_document",
        "documents.dump_document", "cli.main")
_CLASSIFY = ("towers.factor_over_tower", "towers.splitting_tower",
             "towers.primitive_element", "factorization.factor_over_q",
             "ramification.odd_ramified_primes", "polynomials.discriminant",
             "integers.odd_prime_divisors", "classify.classify")

PREDICTED_CALLS = {
    "corpus": _CLASSIFY + ("towers.galois_closure_is_2power",) + _CLI,
    "hard": _CLASSIFY + _CLI,
    "verify": _CLASSIFY + ("towers.galois_closure_is_2power",) + _PERMGROUPS,
}
PREDICTED_IDLE = {
    "corpus": _PERMGROUPS,
    "hard": ("towers.galois_closure_is_2power",) + _PERMGROUPS,
    "verify": _CLI,
}


def prediction_misses(workload: str, calls: dict,
                      present: set[str]) -> list[str]:
    """Wrappers whose call count contradicts the prediction table.

    ``present`` names the layers whose function exists in the program;
    a layer that has been removed from the program is not a miss.
    """
    misses = []
    for layer in PREDICTED_CALLS[workload]:
        if layer in present and not calls[layer]:
            misses.append(f"{layer} not called")
    for layer in PREDICTED_IDLE[workload]:
        if calls[layer]:
            misses.append(f"{layer} called")
    return misses


def present_layers() -> set[str]:
    """Names of the layers whose function the program still defines."""
    return {layer.name for layer in LAYERS
            if hasattr(importlib.import_module(layer.module), layer.attr)}
