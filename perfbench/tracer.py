"""Spans around calls into orbkit's layers, installed from outside.

The tracer wraps the public functions that form each module's boundary
and rebinds every name that refers to them, in every orbkit module: a
call through an unwrapped binding would go uncounted.  Spans are kept in
memory as [op, id, parent, name, start, end, note] and written out when
the run ends.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions timed as that layer ("Class.method" wraps a
# method on the class itself, its only binding)
LAYER_FUNCTIONS = {
    "exact": ("smith_normal_form",),
    "seifert": ("SeifertSpec.__post_init__", "compute_b_residues",
                "chern_class", "scaled_chern_class", "is_primitive",
                "surface_class", "h1_zero_decision", "h2_of_M",
                "search_background_class"),
    "spin": ("w2_base_class", "pi_star_kernel", "spin_target",
             "spin_decision", "spin_sweep", "smale_barden_report",
             "gk_check"),
    "fpgroup": ("build_pi1_orb_presentation", "abelianize",
                "tietze_simplify", "coset_enumerate",
                "simply_connected_decision"),
    "model": ("validate_config", "assign_local_invariants",
              "check_compatibility", "check_even_point_bound"),
    "surgery": ("blow_up", "blow_down_minus2", "resolve_torus_pair",
                "discard", "rename", "assign_isotropy", "declare_lattice",
                "gompf_fiber_sum", "replay", "build_block_Y",
                "build_block_W", "build_Z"),
    "scenario": ("parse_scenario", "emit_scenario"),
    "report": ("run_pipeline", "emit_report"),
    "cli": ("main",),
}

# surgery moves that each record one step in a SurgeryLog
SURGERY_MOVES = ("blow_up", "blow_down_minus2", "resolve_torus_pair",
                 "discard", "rename", "assign_isotropy", "declare_lattice",
                 "gompf_fiber_sum")


def _snf_note(args, result):
    A = args[0]
    biggest = max((max(map(abs, row), default=0) for row in A.entries),
                  default=0)
    return [A.rows * A.cols, biggest.bit_length()]


# what a span records about its call, beyond its times
NOTES = {
    "exact.smith_normal_form": _snf_note,
    "seifert.is_primitive": lambda args, result: bool(result),
    "spin.spin_decision": lambda args, result: bool(result),
    "fpgroup.build_pi1_orb_presentation":
        lambda args, result: sum(len(r) for r in result.relators),
    "fpgroup.coset_enumerate":
        lambda args, result: not result.is_complete(),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._next = 0

    def call(self, name, fn, args, kwargs):
        """Call fn as a span.  Its note is taken inside the span, so the
        time to take it counts against the call it describes."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        note = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name in NOTES:
                note = NOTES[name](args, result)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append([self.op, sid, parent, name, start, end, note])
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def root(self, op, fn, *args):
        """Run fn(*args) as the root span of op."""
        self.op = op
        return self.call("op", fn, args, {})


def _orbkit_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "orbkit" or name.startswith("orbkit.")}


def _bindings(mods):
    """Every (container, key, value) slot that can hold a function:
    module globals and dicts stored in them (such as surgery._REPLAY)."""
    for mod in mods.values():
        space = vars(mod)
        for key, value in list(space.items()):
            yield space, key, value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v


def install(tracer: Tracer) -> None:
    """Wrap LAYER_FUNCTIONS at every place they are bound.

    Rebinds module globals and dicts held in them.  Then asks the garbage
    collector for everything still referring to an original function;
    anything but its own wrapper is a binding the tracer cannot see, and
    raises.
    """
    import orbkit.cli  # noqa: F401 - loads every layer

    mods = _orbkit_modules()
    originals = {}
    for layer, names in LAYER_FUNCTIONS.items():
        mod = mods[f"orbkit.{layer}"]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                owner, attr = getattr(mod, cls_name), meth
            else:
                owner, attr = mod, name
            fn = getattr(owner, attr)
            wrapper = tracer.wrap(f"{layer}.{name}", fn)
            if owner is not mod:
                setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
    for space, key, value in _bindings(mods):
        hit = originals.get(id(value))
        if hit is not None and hit[0] is value:
            space[key] = hit[1]
    _check_unwrapped(originals)


def _check_unwrapped(originals) -> None:
    entries = list(originals.values())
    own = {id(entries), id(originals)}
    for entry in entries:
        wrapper = entry[1]
        own |= {id(entry), id(wrapper.__dict__)}
        own |= {id(cell) for cell in wrapper.__closure__}
    left = [type(ref).__name__
            for ref in gc.get_referrers(*(fn for fn, _ in entries))
            if id(ref) not in own and not isinstance(ref, types.FrameType)]
    if left:
        raise RuntimeError(f"unwrapped references left in: {left}")


# -- per-layer metrics --------------------------------------------------


def summarize(spans):
    """Span counts, self times and notes by span name.

    Self time is a span's duration minus the time its child spans cover.
    Calls are single-threaded and properly nested, so children of one
    span never overlap and their durations add up.
    """
    covered = defaultdict(float)
    for op, sid, parent, name, start, end, note in spans:
        if parent is not None:
            covered[(op, parent)] += end - start
    counts, self_s, notes = Counter(), defaultdict(float), defaultdict(list)
    for op, sid, parent, name, start, end, note in spans:
        counts[name] += 1
        self_s[name] += (end - start) - covered[(op, sid)]
        if note is not None:
            notes[name].append(note)
    return counts, self_s, notes


def _ratio(hits, total):
    return hits / total if total else 0.0


def layer_metrics(spans, import_times) -> tuple[dict, Counter]:
    """(per-layer metrics, span counts by name)."""
    counts, self_s, notes = summarize(spans)

    def selfs(*names):
        return sum(self_s[n] for n in names)

    def layer_self(layer):
        return sum(v for n, v in self_s.items() if n.startswith(layer + "."))

    snf = notes["exact.smith_normal_form"]
    prim = notes["seifert.is_primitive"]
    spin = notes["spin.spin_decision"]
    m = {
        "exact.snf_calls": counts["exact.smith_normal_form"],
        "exact.snf_self_s": selfs("exact.smith_normal_form"),
        "exact.snf_max_cells": max((c for c, _ in snf), default=0),
        "exact.snf_max_entry_bits": max((b for _, b in snf), default=0),
        "seifert.candidates": counts["seifert.SeifertSpec.__post_init__"],
        "seifert.primitive_ratio": _ratio(sum(prim), len(prim)),
        "seifert.chern_calls": counts["seifert.chern_class"],
        "seifert.chern_self_s": selfs("seifert.chern_class",
                                      "seifert.scaled_chern_class",
                                      "seifert.is_primitive"),
        "seifert.surface_class_calls": counts["seifert.surface_class"],
        "seifert.surface_class_self_s": selfs("seifert.surface_class"),
        "seifert.h1_calls": counts["seifert.h1_zero_decision"],
        "seifert.h1_self_s": selfs("seifert.h1_zero_decision"),
        "spin.decisions": counts["spin.spin_decision"],
        "spin.spin_ratio": _ratio(sum(spin), len(spin)),
        "spin.self_s": layer_self("spin"),
        "fpgroup.relator_letters":
            sum(notes["fpgroup.build_pi1_orb_presentation"]),
        "fpgroup.build_self_s": selfs("fpgroup.build_pi1_orb_presentation"),
        "fpgroup.abelianize_self_s": selfs("fpgroup.abelianize"),
        "fpgroup.enumerate_self_s": selfs("fpgroup.coset_enumerate"),
        "fpgroup.enumerations": counts["fpgroup.coset_enumerate"],
        "fpgroup.exhausted": sum(notes["fpgroup.coset_enumerate"]),
        "model.validate_calls": counts["model.validate_config"],
        "model.validate_self_s": selfs("model.validate_config"),
        "model.local_invariants_self_s":
            selfs("model.assign_local_invariants",
                  "model.check_compatibility"),
        "surgery.steps": sum(counts[f"surgery.{n}"] for n in SURGERY_MOVES),
        "surgery.self_s": layer_self("surgery"),
        "scenario.parse_calls": counts["scenario.parse_scenario"],
        "scenario.parse_self_s": selfs("scenario.parse_scenario"),
        "report.pipeline_self_s": selfs("report.run_pipeline"),
        "report.emit_self_s": selfs("report.emit_report"),
        "cli.import_s": statistics.median(import_times),
        "cli.self_s": selfs("cli.main"),
    }
    return m, counts
