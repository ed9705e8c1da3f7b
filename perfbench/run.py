#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wan-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload campaign --trace 1

``--trace 0`` is a timed run: host wall time with tracing off, reported
as the end-to-end metrics.  ``--trace 1`` is a traced run: a separate,
shorter run of one pass with every layer class wrapped, reported as the
per-layer metrics.  Either way the outputs are checked, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here.

Maintenance modes: ``--record-digests`` regenerates ``digests.json``
(the stored outputs at the default seed) and ``--check-bites`` shows
that the output check fails when one stored digest is perturbed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

#: Every timed run completes at least this many units, so that
#: ``unit_ms_p90`` has at least ten samples beyond it.
MIN_UNITS = 100
#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 9
#: Cache entries (and journaled units) and stale temporary files the
#: set-up probe's cache directory and journal hold when they are opened.
PROBE_ENTRIES = 64
PROBE_STALE_TMP = 2


def metric_names(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def log(message: str) -> None:
    print(message, flush=True)


def environment() -> dict:
    uname = platform.uname()
    return {
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(samples, n=100)[q - 1]


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, work: Path) -> float:
    """Everything a fresh interpreter does before its first timed unit."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.validate.engine  # noqa: F401  (run_scenario imports it lazily)
    from repro.experiments import CampaignJournal, ResultCache
    from repro.experiments.cache import code_version_token

    workloads.units(workload, seed, 0)
    code_version_token()
    ResultCache(work / "probe-cache")
    CampaignJournal(work / "probe.journal").close()
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median set-up time over :data:`SETUP_PROBES` fresh interpreters.

    The probes share a bytecode cache private to this run, filled by one
    discarded warm-up probe, so the figure does not depend on whether
    the checkout holds ``__pycache__`` directories or the environment
    forbids writing them (``PYTHONDONTWRITEBYTECODE``).

    The probe reopens an existing journal (the ``--resume`` path, which
    replays it) rather than creating one: creating one fsyncs its
    header, and fsync latency on a shared disk varied between runs by
    more than everything else in set-up together.
    """
    from repro.experiments import CampaignJournal, ResultCache

    cache = ResultCache(work / "probe-cache")
    with CampaignJournal(work / "probe.journal") as journal:
        for i in range(PROBE_ENTRIES):
            key = cache.key({"probe": i})
            cache.put(key, {"entry": i})
            journal.record(key, {"entry": i})
    old = time.time() - 7200
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(work / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(1 + SETUP_PROBES):
        for i in range(PROBE_STALE_TMP):
            orphan = work / "probe-cache" / f"{i:02x}" / f"orphan{i}.tmp"
            orphan.parent.mkdir(parents=True, exist_ok=True)
            orphan.write_bytes(b"torn")
            os.utime(orphan, (old, old))
        probe = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--work",
                str(work),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env=env,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------


def record_simulators() -> list:
    """Collect every Simulator built from now on (one hook call per unit).

    Study entry points return no handle on their simulator, so the
    engine event count in the output digest is read this way.
    """
    from repro.engine import Simulator

    built: list = []
    init = Simulator.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    Simulator.__init__ = __init__
    return built


class Checker:
    """Counts units and failures; compares digests where stored."""

    def __init__(self, workload: str, stored: list | None) -> None:
        self.workload = workload
        self.stored = stored
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.problems: list[str] = []

    def unit(self, pass_index: int, position: int, label: str, ok: bool, digest: str | None):
        self.attempted += 1
        if ok and digest is not None and self.stored is not None:
            expected = self.stored[pass_index % workloads.CYCLE[self.workload]][position]
            self.digest_checked += 1
            if digest != expected:
                ok = False
                self.note(f"pass {pass_index} {label}: digest {digest} != stored {expected}")
        if not ok:
            self.failed += 1
        return ok

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def timed_serial(workload, seed, seconds, min_units, checker, sims) -> dict:
    """Closed loop, one client: run unit after unit, whole passes."""
    samples: list[float] = []
    pass_rates: list[float] = []
    pass_index = 0
    start = time.perf_counter()
    while True:
        pass_start, passed = time.perf_counter(), 0
        for position, unit in enumerate(workloads.units(workload, seed, pass_index)):
            sims.clear()
            t0 = time.perf_counter()
            try:
                result = workloads.call(unit)
            except Exception as exc:  # a raising unit is a failed unit
                checker.note(f"pass {pass_index} {unit.label}: {type(exc).__name__}: {exc}")
                checker.unit(pass_index, position, unit.label, False, None)
                continue
            samples.append(time.perf_counter() - t0)
            done = workloads.completed(unit.kind, result)
            if not done:
                checker.note(f"pass {pass_index} {unit.label}: did not complete")
            events = sum(sim.events_executed for sim in sims)
            digest = workloads.digest(workloads.outputs(unit.kind, result), events)
            passed += checker.unit(pass_index, position, unit.label, done, digest)
            del result
        pass_rates.append(passed / (time.perf_counter() - pass_start))
        pass_index += 1
        if time.perf_counter() - start >= seconds and len(samples) >= min_units:
            break
    return {"pass_rates": pass_rates, "samples": samples, "passes": pass_index}


def timed_campaign(seed, seconds, min_units, checker, sims, work) -> dict:
    """A cold then a warm campaign per pass, plus a serial validated reference.

    The reference runs every cold-pass unit through
    ``run_scenario(cfg, validate=True)`` in this process: its summaries
    must equal the campaign's, and its per-call wall times are the
    campaign's ``unit_ms`` samples.
    """
    from repro.experiments.parallel import summarize

    samples: list[float] = []
    pass_rates: list[float] = []
    pass_index = 0
    start = time.perf_counter()
    while True:
        units = workloads.units("campaign", seed, pass_index)
        configs = [unit.config for unit in units]
        root = work / f"pass-{pass_index}"
        cold, (warm,), cold_s, _ = workloads.campaign_pass(configs, root)
        pass_rates.append(cold.report.completed / cold_s)
        for problem in workloads.campaign_problems(cold, warm, len(units)):
            checker.note(problem)
            checker.failed += 1
        for position, unit in enumerate(units):
            sims.clear()
            t0 = time.perf_counter()
            reference = workloads.call(unit, validate=True)
            samples.append(time.perf_counter() - t0)
            ok = reference.completed
            expected = summarize(reference)
            if cold.summaries[position] != expected:
                checker.note(f"pass {pass_index} {unit.label}: campaign != serial run")
                ok = False
            events = sum(sim.events_executed for sim in sims)
            digest = workloads.digest(workloads.outputs("scenario", reference), events)
            checker.unit(pass_index, position, unit.label, ok, digest)
        shutil.rmtree(root)
        pass_index += 1
        if time.perf_counter() - start >= seconds and len(samples) >= min_units:
            break
    return {"pass_rates": pass_rates, "samples": samples, "passes": pass_index}


def timed(args, work: Path) -> dict:
    stored = load_digests().get(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    checker = Checker(args.workload, stored)
    setup_s = measure_setup(args.workload, args.seed, work)
    sims = record_simulators()
    if args.workload == "campaign":
        run = timed_campaign(args.seed, args.seconds, MIN_UNITS, checker, sims, work)
    else:
        run = timed_serial(args.workload, args.seed, args.seconds, MIN_UNITS, checker, sims)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "campaign":
        # Largest child (a pool worker) once per worker.
        peak_kb += workloads.WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    samples = run["samples"] if len(run["samples"]) >= 2 else [0.0, 0.0]
    values = {
        "units_per_s": statistics.median(run["pass_rates"]),
        "unit_ms_p50": statistics.median(samples) * 1000.0,
        "unit_ms_p90": percentile(samples, 90) * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    log(
        f"{args.workload} seed={args.seed}: {run['passes']} passes, "
        f"{checker.attempted} units attempted, {len(run['samples'])} unit_ms samples, "
        f"{checker.digest_checked} digest-checked"
        + ("" if stored is not None else " (no stored digests for this seed: cross-checks only)")
    )
    log(f"failed_ratio = {checker.failed / max(checker.attempted, 1):.6f}")
    for problem in checker.problems:
        log(f"  FAIL {problem}")
    metrics = {}
    for name, unit in metric_names("end_to_end"):
        metrics[name] = {"value": values[name], "unit": unit}
        log(f"{name} = {values[name]:.6g} {unit}")
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------------------
# Maintenance modes
# ---------------------------------------------------------------------------


def record_digests(names, work: Path) -> None:
    """Regenerate the stored per-unit digests at the default seed."""
    stored = load_digests()
    sims = record_simulators()
    for workload in names:
        passes = []
        for pass_index in range(workloads.CYCLE[workload]):
            digests = []
            for unit in workloads.units(workload, workloads.DEFAULT_SEED, pass_index):
                sims.clear()
                result = workloads.call(unit, validate=workload == "campaign")
                if not workloads.completed(unit.kind, result):
                    raise SystemExit(f"{workload} pass {pass_index} {unit.label} did not complete")
                events = sum(sim.events_executed for sim in sims)
                digests.append(workloads.digest(workloads.outputs(unit.kind, result), events))
            passes.append(digests)
            log(f"{workload}: pass {pass_index + 1}/{workloads.CYCLE[workload]}")
        stored[workload] = passes
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def check_bites(workload: str, work: Path) -> bool:
    """One pass at the default seed, stored digests intact then perturbed."""
    stored = load_digests()[workload]
    sims = record_simulators()
    outcomes = []
    for perturb in (False, True):
        digests = [list(p) for p in stored]
        if perturb:
            digests[0][0] = "0" * 16 if digests[0][0] != "0" * 16 else "1" * 16
        checker = Checker(workload, digests)
        if workload == "campaign":
            timed_campaign(workloads.DEFAULT_SEED, 0, 0, checker, sims, work)
        else:
            timed_serial(workload, workloads.DEFAULT_SEED, 0, 0, checker, sims)
        outcomes.append(checker.failed)
        log(f"{workload}: perturbed={perturb} failed={checker.failed}/{checker.attempted}")
    return outcomes[0] == 0 and outcomes[1] == 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--check-bites", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    if args.setup_probe:
        log(repr(setup(args.workload, args.seed, args.work)))
        return 0
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    # Keep every file the program writes inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ["REPRO_BUNDLE_DIR"] = str(work / "bundles")
    os.environ["REPRO_VALIDATE"] = "0"
    try:
        if args.record_digests:
            record_digests([args.workload] if args.workload else workloads.WORKLOADS, work)
            return 0
        if args.check_bites:
            return 0 if check_bites(args.workload, work) else 1
        log("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            import traced

            result = traced.run(args.workload, args.seed, work, OUT, metric_names("per_layer"))
        else:
            result = timed(args, work)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
