"""In-memory span recorder for the latcsim benchmark.

The recorder replaces a function with a timing wrapper at every place a
caller looks the name up (a module attribute), so no latcsim code changes.
Each span keeps its name, start, end, parent span and the benchmark
operation it ran under; self time is a span's duration minus the time its
child spans cover. A lookup site that no longer exists is reported as
absent, never raised.

Counts come from the return values of a few wrapped calls (see the hooks
below), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# span name -> (module, attribute) pairs where callers look the function up
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "scenario.load_scenario": (("latcsim.scenario", "load_scenario"), ("latcsim.cli", "load_scenario")),
    "scenario.build_scene": (("latcsim.scenario", "build_scene"), ("latcsim.experiments", "build_scene")),
    "ris.codebook_build": (("latcsim.scenario", "codebook_build"),),
    "ris.codebook_select": (("latcsim.protocol", "codebook_select"),),
    "ris.sweep_gains": (("latcsim.localization", "sweep_gains"),),
    "ris.min_broadside_hpbw_deg": (("latcsim.protocol", "min_broadside_hpbw_deg"),),
    "ris.broadside_hpbw_deg": (("latcsim.ris", "broadside_hpbw_deg"), ("latcsim.experiments", "broadside_hpbw_deg")),
    "ris.scattering_diagram": (("latcsim.ris", "scattering_diagram"), ("latcsim.experiments", "scattering_diagram")),
    "ris.hpbw": (("latcsim.ris", "hpbw"), ("latcsim.experiments", "hpbw")),
    "channel.measure": (("latcsim.protocol", "measure"),),
    "channel.rss_batch": (("latcsim.experiments", "rss_batch"),),
    "geometry.segment_occluded": (
        ("latcsim.channel", "segment_occluded"),
        ("latcsim.protocol", "segment_occluded"),
        ("latcsim.localization", "segment_occluded"),
    ),
    "geometry.occlusion_matrix": (("latcsim.experiments", "_blocked_matrix"),),
    "localization.top4_problem": (("latcsim.experiments", "_top4_problem"),),
    "localization.solve_batch": (
        ("latcsim.experiments", "solve_trilateration_batch"),
        ("latcsim.localization", "solve_trilateration_batch"),
    ),
    "localization.rss_trilaterate": (("latcsim.protocol", "rss_trilaterate"),),
    "localization.hybrid_rss_aoa": (("latcsim.protocol", "hybrid_rss_aoa"),),
    "localization.beam_scan_localize": (("latcsim.protocol", "beam_scan_localize"),),
    "protocol.run_latc": (("latcsim.protocol", "run_latc"), ("latcsim.experiments", "run_latc")),
    "experiments.exp_error_vs_k": (("latcsim.experiments", "exp_error_vs_k"), ("latcsim.cli", "exp_error_vs_k")),
    "experiments.exp_scattering": (("latcsim.cli", "exp_scattering"),),
    "experiments.exp_tolerated_error": (("latcsim.cli", "exp_tolerated_error"),),
    "experiments.exp_latc_run": (("latcsim.cli", "exp_latc_run"),),
    "experiments.write_csv": (("latcsim.cli", "write_csv"),),
}

TERMINAL_TAGS = (
    "localization_unavailable",
    "insufficient_anchors",
    "insufficient_pds",
    "invalid_measurement",
    "degenerate_pd_geometry",
    "non_convergence",
    "scan_failed",
    "out_of_coverage",
    "error",
)

# (K, m) grid of the packaged default config's error-vs-K experiment
K_VALUES = (10, 25, 50, 100, 200)
M_VALUES = (0.5, 1.0, 2.0)


def grid_label(k: float, m: float) -> str:
    return f"K{k:g}_m{m:g}"


# --------------------------------------------------------------------------
# Count hooks: (recorder, bound arguments, return value) -> None
# --------------------------------------------------------------------------


def _remember_k(rec, args, result):
    rec.pending["k"] = float(args["k_ratio"])


def _remember_valid(rec, args, result):
    rec.pending["m"] = float(args["m_value"])
    rec.pending["valid"] = result[2]


def _count_solve(rec, args, result):
    converged = result[2]
    trials = int(converged.shape[0])
    n_conv = int(converged.sum())
    valid = rec.pending.pop("valid", None)
    # rss_trilaterate solves only problems with four LoS anchors, so every
    # converged single-trial fit is used
    n_used = n_conv if valid is None else int((valid & converged).sum())
    rec.counts["solve.trials"] += trials
    rec.counts["solve.converged"] += n_conv
    rec.counts["solve.used"] += n_used
    if valid is not None and "k" in rec.pending:
        label = grid_label(rec.pending["k"], rec.pending.pop("m"))
        rec.counts[f"solve.trials.{label}"] += trials
        rec.counts[f"solve.used.{label}"] += n_used


def _count_entries(rec, args, result):
    rec.counts["codebook.entries"] += len(result.entries)


def _count_sweep_bytes(rec, args, result):
    # one sweep reads the whole (entries x elements) complex64 weight matrix
    rec.counts["sweep.bytes"] += int(result.size) * int(args["panel"].n_elements) * 8


def _count_terminal(rec, args, result):
    tag = result.terminal_event
    rec.counts[f"terminal.{tag if tag in TERMINAL_TAGS or tag is None else 'other'}"] += 1


HOOKS = {
    "channel.rss_batch": _remember_k,
    "localization.top4_problem": _remember_valid,
    "localization.solve_batch": _count_solve,
    "ris.codebook_build": _count_entries,
    "ris.sweep_gains": _count_sweep_bytes,
    "protocol.run_latc": _count_terminal,
}


class Recorder:
    """Wraps the SPANS lookup sites and keeps every span in memory."""

    def __init__(self):
        self.names = list(SPANS)
        self.spans: list = []  # (name index, start, end, parent index, op)
        self.stack: list[int] = []
        self.op = -1  # set-up; the closed loop sets the operation index
        self.counts: Counter = Counter()
        self.pending: dict = {}
        self.absent: list[str] = []
        self._saved: list = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        self.absent = []
        for idx, name in enumerate(self.names):
            found = False
            for mod_name, attr in SPANS[name]:
                module = _import(mod_name)
                fn = getattr(module, attr, None) if module is not None else None
                if not callable(fn):
                    continue
                found = True
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(idx, fn, HOOKS.get(name))
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, idx, fn, hook):
        rec = self
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            slot = len(rec.spans)
            rec.spans.append(None)
            rec.stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans[slot] = (idx, start, end, parent, rec.op)
            if hook is not None:
                try:
                    hook(rec, signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a refactored signature must not end the run
                    rec.counts["hook_errors"] += 1
                    if rec.counts["hook_errors"] == 1:
                        print(f"perfbench: count hook of {rec.names[idx]} failed: {exc!r}", file=sys.stderr)
            return result

        return traced

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the raw counts."""
        calls = Counter()
        self_s = Counter()
        for idx, start, end, parent, _ in self.spans:
            duration = end - start
            calls[self.names[idx]] += 1
            self_s[self.names[idx]] += duration
            if parent >= 0:
                self_s[self.names[self.spans[parent][0]]] -= duration
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def _import(mod_name):
    try:
        return importlib.import_module(mod_name)
    except ImportError:
        return None


def merge(summaries) -> dict:
    """Sum summaries taken in several processes."""
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(), "absent": set()}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            out[key].update(s[key])
        out["absent"].update(s["absent"])
    return {**{k: dict(out[k]) for k in ("calls", "self_s", "counts")}, "absent": sorted(out["absent"])}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values (every span and count, zero when unused)."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    trials = counts.get("solve.trials", 0)
    out["localization.solve_batch.trials"] = trials
    out["localization.solve_batch.converged_frac"] = _frac(counts.get("solve.converged", 0), trials)
    out["localization.solve_batch.used_frac"] = _frac(counts.get("solve.used", 0), trials)
    for k in K_VALUES:
        for m in M_VALUES:
            label = grid_label(k, m)
            out[f"localization.solve_batch.used_frac.{label}"] = _frac(
                counts.get(f"solve.used.{label}", 0), counts.get(f"solve.trials.{label}", 0)
            )
    for tag in TERMINAL_TAGS + ("other", None):
        out[f"protocol.terminal.{tag or 'none'}"] = counts.get(f"terminal.{tag}", 0)
    out["ris.codebook_build.entries"] = counts.get("codebook.entries", 0)
    out["ris.sweep_gains.bytes_computed"] = counts.get("sweep.bytes", 0)
    out["trace.absent_spans"] = len(summary["absent"])
    out["trace.hook_errors"] = counts.get("hook_errors", 0)
    return out


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0
