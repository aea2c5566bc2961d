"""The three benchmark workloads.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned and been checked. ``setup`` loads the
scenario, builds what the operations need and makes the first calls, so
lazy caches are filled before timing. ``op(i)`` generates operation i's
inputs from the workload seed, times only the latcsim call, checks the
outputs (raising ``CheckFailed``) and returns ``(units, seconds)``.

latcsim is reached through module attributes (``latcsim.protocol.run_latc``
and so on), so the span recorder sees the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import latcsim.experiments
import latcsim.protocol
import latcsim.scenario
from latcsim.geometry import Vec3


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class McErrorVsK:
    """exp_error_vs_k on the default config over the full 5 K x 3 m grid."""

    PERIOD = 1  # operations per repeating input pattern
    TRIALS = 200  # per call; the packaged config uses 10^4
    WARMUP_TRIALS = 20
    HASHED_OPS = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.digest = hashlib.sha256()
        self.hashed = 0
        self.config_sha256 = {}

    def setup(self) -> None:
        scenario, text = latcsim.scenario.load_scenario("default")
        self.config_sha256["default"] = sha256_text(text)
        self.scenario = self._with_trials(scenario, self.TRIALS)
        spec = self.scenario.experiments.error_vs_k
        self.points = len(spec.k_values) * len(spec.m_values)
        latcsim.experiments.exp_error_vs_k(self._with_trials(scenario, self.WARMUP_TRIALS))

    @staticmethod
    def _with_trials(scenario, trials):
        exps = scenario.experiments
        return replace(scenario, experiments=replace(exps, error_vs_k=replace(exps.error_vs_k, trials=trials)))

    def op(self, i: int):
        scenario = replace(self.scenario, seed=int(self.rng.integers(0, 2**31)))
        start = time.perf_counter()
        _, rows = latcsim.experiments.exp_error_vs_k(scenario)
        seconds = time.perf_counter() - start

        stats = [v for row in rows for v in row[1:]]
        if len(stats) != 3 * self.points:
            raise CheckFailed(f"expected {3 * self.points} statistics, got {len(stats)}")
        bad = [v for v in stats if not (math.isfinite(v) and v >= 0.0)]
        if bad:
            raise CheckFailed(f"{len(bad)} statistics not finite and non-negative: {bad[:3]}")
        if self.hashed < self.HASHED_OPS:
            self.digest.update(repr([scenario.seed, rows]).encode())
            self.hashed += 1
        return self.TRIALS * self.points, seconds


class LatcSessions:
    """run_latc per UE on default scenes with 10x10 and 40x40 panels."""

    PANELS = ((10, 10), (40, 40))
    METHODS = ("rss", "rss_aoa", "beam_scan")
    PERIOD = len(PANELS) * len(METHODS)
    HASHED_OPS = 60

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.digest = hashlib.sha256()
        self.hashed = 0
        self.config_sha256 = {}

    def setup(self) -> None:
        scenario, text = latcsim.scenario.load_scenario("default")
        self.config_sha256["default"] = sha256_text(text)
        self.scenario = scenario
        self.region = scenario.experiments.inbeam.region
        self.scenes = [latcsim.scenario.build_scene(_with_panel_size(scenario, r, c)) for r, c in self.PANELS]
        ue = scenario.receiver.array_at(scenario.receiver.position)
        params = replace(scenario.channel, seed=0)
        for scene in self.scenes:
            for method in self.METHODS:
                latcsim.protocol.run_latc(
                    scene, ue, scenario.request, params, scenario.timing, force_method=method
                )

    def op(self, i: int):
        method = self.METHODS[i % len(self.METHODS)]
        scene = self.scenes[(i // len(self.METHODS)) % len(self.scenes)]
        r = self.region
        position = Vec3(self.rng.uniform(r.x_min, r.x_max), self.rng.uniform(r.y_min, r.y_max), r.z)
        ue = self.scenario.receiver.array_at(position)
        params = replace(self.scenario.channel, seed=int(self.rng.integers(0, 2**63)))
        start = time.perf_counter()
        out = latcsim.protocol.run_latc(
            scene, ue, self.scenario.request, params, self.scenario.timing, force_method=method
        )
        seconds = time.perf_counter() - start

        if out.method != method or not out.latency_ms > 0.0:
            raise CheckFailed(f"run {i}: method {out.method!r}, latency {out.latency_ms}")
        if out.terminal_event is None:
            err = out.position_error_m
            if err is None or not (math.isfinite(err) and err >= 0.0):
                raise CheckFailed(f"run {i}: position error {err!r} without a terminal event")
            if out.estimate is None or out.selected_entry is None:
                raise CheckFailed(f"run {i}: no estimate or codebook entry without a terminal event")
        if self.hashed < self.HASHED_OPS:
            est = out.estimate.position.as_array().tolist() if out.estimate else None
            entry = out.selected_entry.index if out.selected_entry else None
            self.digest.update(
                repr((method, out.terminal_event, out.n_los, est, entry, out.in_beam, out.latency_ms)).encode()
            )
            self.hashed += 1
        return 1, seconds


def _with_panel_size(scenario, rows: int, cols: int):
    first = scenario.panels[0]
    spec = replace(first, panel=replace(first.panel, rows=rows, cols=cols))
    return replace(scenario, panels=(spec,) + scenario.panels[1:])


# CSV headers the packaged configs produce; a change here breaks the
# byte-identical output contract, so the check is exact.
_LATC_RUN_HEADER = "run_id,method,N,position_error_m,in_beam,latency_ms,terminal_event"
CLI_RUNS = (
    ("scattering", ("scattering", "--config", "default"), {
        "scattering.csv": "angle_deg,M50,M100,M1600",
        "hpbw.csv": "M,rows,cols,hpbw_deg",
    }),
    ("tolerated-error", ("tolerated-error", "--config", "default"), {
        "tolerated-error.csv": "distance_m,sigma_p_m_M50,sigma_p_m_M100,sigma_p_m_M1600",
    }),
    ("latc-run.five-ue", ("latc-run", "--config", "five-ue"), {"latc-run.csv": _LATC_RUN_HEADER}),
    ("latc-run.default", ("latc-run", "--config", "default"), {"latc-run.csv": _LATC_RUN_HEADER}),
)
CHILD_TIMEOUT_S = 150


class CliCold:
    """One cycle: each CLI subcommand in a fresh child process, in turn."""

    PERIOD = 1
    HASHED_OPS = 1

    def __init__(self, seed: int, work_dir: Path, child_script: Path, env: dict):
        self.rng = np.random.default_rng(seed)
        self.digest = hashlib.sha256()
        self.hashed = 0
        self.work_dir = work_dir
        self.child_script = child_script
        self.env = env
        self.trace_files: list[Path] = []
        self.traced = False
        self.walls: list[tuple[int, str, float]] = []  # (operation, run label, seconds)
        self.config_sha256 = {}

    def setup(self) -> None:
        for builtin in ("default", "five-ue"):
            text, _ = latcsim.scenario.read_config_text(builtin)
            self.config_sha256[builtin] = sha256_text(text)

    def op(self, i: int):
        seed = int(self.rng.integers(0, 2**31))
        cycle = 0.0
        for label, args, headers in CLI_RUNS:
            out = self.work_dir / f"c{i}-{label}"
            trace_file = "-"
            if self.traced:
                self.trace_files.append(self.work_dir / f"c{i}-{label}.spans.json")
                trace_file = str(self.trace_files[-1])
            cmd = [sys.executable, str(self.child_script), "cli", trace_file,
                   *args, "--seed", str(seed), "--out", str(out)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            seconds = time.perf_counter() - start
            if proc.returncode != 0:
                raise CheckFailed(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            self._check_outputs(label, out, headers, seed)
            shutil.rmtree(out)
            self.walls.append((i, label, seconds))
            cycle += seconds
        self.hashed += 1
        return len(CLI_RUNS), cycle

    def _check_outputs(self, label, out: Path, headers: dict, seed: int) -> None:
        manifest = out / "manifest"
        if not manifest.is_file():
            raise CheckFailed(f"{label}: no manifest")
        lines = manifest.read_text().splitlines()
        if f"seed={seed}" not in lines or not any(l.startswith("config_sha256=") for l in lines):
            raise CheckFailed(f"{label}: manifest lacks the seed or config hash")
        for fname, header in headers.items():
            path = out / fname
            if not path.is_file():
                raise CheckFailed(f"{label}: {fname} missing")
            data = path.read_bytes()
            if data.split(b"\n", 1)[0].decode() != header or data.count(b"\n") < 2:
                raise CheckFailed(f"{label}: {fname} header or rows wrong")
            if self.hashed < self.HASHED_OPS:
                self.digest.update(f"{label}/{fname}\n".encode() + data)
