#!/usr/bin/env python3
"""hyperhom benchmark: seeded workloads through the CLI, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload z-homology --seed 0 --seconds 25 --trace 0

One client sends requests one after another in this process (a closed
loop, no threads). Each request goes through ``hyperhom.cli.main(argv)``
with stdout captured; persistent Mayer-Vietoris, which has no command,
is called through the library. A run repeats the workload's fixed case
list in rounds, each round on freshly generated documents, while the
next round fits in ``--seconds``.

With ``--trace 0`` rounds alternate between the engine under ``src/`` and
the frozen reference engine in ``perfbench/reference``, each on its own
fresh documents, and both get the same number of rounds. The reported
request times are the engine's, times the reference's nominal round
time over its median round time in this run; ``setup_s`` is scaled the
same way by the reference's own set-up probes. The ratio cancels drift
in machine speed, which a single run cannot see.
With ``--trace 1`` the first half of the time runs untraced and the rest
with every layer boundary wrapped, and the last line reports per-layer
metrics. Earlier lines record the run's conditions and sample counts.
``--write-pins`` stores the stdout hashes of round 0 of the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# The reference engine's medians when the benchmark was defined (2 vCPUs,
# Python 3.11.7): the unit in which the engine's times are reported.
NOMINAL = json.loads((REFERENCE / "nominal.json").read_text())

# One fresh interpreter: import an engine package, answer one tiny request.
PROBE = "import importlib, sys; sys.path.insert(0, sys.argv[1]); " \
        "cli = importlib.import_module(sys.argv[2] + '.cli'); sys.exit(cli.main(sys.argv[3:]))"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-pins", action="store_true",
                   help="record round-0 stdout hashes of the default seed")
    return p.parse_args()


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def write_docs(directory: Path, docs: dict) -> dict:
    directory.mkdir(parents=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[f"@{name}"] = str(path)
    return paths


class Runner:
    """Rounds of one workload against one engine package."""

    def __init__(self, workload: str, seed: int, work: Path, pins: dict | None,
                 engine: str = "hyperhom"):
        self.engine = importlib.import_module(engine)
        self.cli = importlib.import_module(f"{engine}.cli")
        importlib.import_module(f"{engine}.jsonio")
        self.make_round = workloads.WORKLOADS[workload]
        self.workload = workload
        self.stream = f"{engine}:{workload}:{seed}"
        self.pinned = seed == DEFAULT_SEED and engine == "hyperhom"
        self.work = work / engine
        self.pins = pins
        self.tracer = None
        self.rounds = 0
        self.case_times = []
        self.round_walls = []
        self.attempted = 0
        self.failed = 0
        self.hashes = {}
        self.first_round_rss_mb = None

    def run_case(self, case, paths):
        """Run one request; return (seconds, exit code, stdout, exception)."""
        out = io.StringIO()
        spans = self.tracer
        code, error = None, None
        start = time.perf_counter()
        if spans is not None:
            spans.active = True
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if case.call is not None:
                    call, files = case.call
                    doc = call(self.engine, *(paths[f] for f in files))
                    sys.stdout.write(json.dumps(doc) + "\n")
                    code = 0
                else:
                    code = self.cli.main([paths.get(a, a) for a in case.argv])
        except Exception as exc:  # a traceback out of the engine is a failed case
            error = exc
        finally:
            if spans is not None:
                spans.active = False
        return time.perf_counter() - start, code, out.getvalue(), error

    def verify(self, case, code, text, error, pinned: bool) -> tuple:
        """Return (parsed document or None, list of errors)."""
        if error is not None:
            return None, [f"raised {type(error).__name__}: {error}"]
        errors = []
        if code != case.expect_exit:
            errors.append(f"exit {code}, expected {case.expect_exit}")
        lines = text.split("\n")
        if len(lines) != 2 or lines[1] != "":
            return None, errors + [f"stdout has {text.count(chr(10))} lines, expected one"]
        try:
            doc = json.loads(lines[0])
        except json.JSONDecodeError:
            return None, errors + ["stdout is not JSON"]
        if not isinstance(doc, dict):
            return None, errors + ["stdout is not a JSON object"]
        for check in case.checks:
            errors.extend(check(doc))
        if pinned and case.expect_exit == 0:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.hashes[case.name] = digest
            if self.pins is not None and self.pins.get(case.name) != digest:
                errors.append("stdout differs from the pinned hash")
        return doc, errors

    def run_round(self) -> None:
        """Run and check the next round on fresh documents."""
        index = self.rounds
        self.rounds += 1
        rnd = self.make_round(random.Random(f"{self.stream}:{index}"))
        directory = self.work / f"r{index}"
        paths = write_docs(directory, rnd.docs)
        gc.collect()
        results = [(case, *self.run_case(case, paths)) for case in rnd.cases]
        shutil.rmtree(directory)
        pinned = self.pinned and index == 0
        outputs, failures = {}, {}
        for case, seconds, code, text, error in results:
            doc, errors = self.verify(case, code, text, error, pinned)
            if doc is not None and not errors:
                outputs[case.name] = doc
            if errors:
                failures[case.name] = errors
        for name, check in rnd.cross_checks:
            errors = check(outputs)
            if errors:
                failures.setdefault(name, []).extend(errors)
        for name, errors in failures.items():
            print(f"{self.stream} round {index} {name}: {'; '.join(errors)}", file=sys.stderr)
        self.attempted += len(results)
        self.failed += len(failures)
        times = [seconds for _, seconds, *_ in results]
        self.case_times.extend(times)
        self.round_walls.append(sum(times))
        if index == 0:
            self.first_round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(runners: list, seconds: float) -> None:
    """Run turns of one round per runner, in order, while the next turn is
    expected to end within `seconds`; at least one. Every runner ends
    with the same number of rounds."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for runner in runners:
            runner.run_round()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def setup_probes(work: Path) -> dict:
    """Fresh interpreter to first answer, several times for each engine,
    taking turns; seconds each."""
    vs = ["a", "b", "c"]
    paths = write_docs(work / "setup", {
        "cx": workloads.hypergraph(vs, workloads.skeleton_edges(3, 1)),
        "op": workloads.weighted("partial", vs, [1, 2, 3]),
    })
    argv = ["homology", "--operator", paths["@op"], "--ring", "Z", paths["@cx"]]
    times = {"hyperhom": [], "hyperhom_reference": []}
    for _ in range(SETUP_PROBES):
        for engine, path in (("hyperhom", SRC), ("hyperhom_reference", REFERENCE)):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-I", "-c", PROBE, str(path), engine, *argv],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            times[engine].append(time.perf_counter() - start)
            if proc.returncode != 0 or len(proc.stdout.splitlines()) != 1:
                raise RuntimeError(f"setup probe of {engine} failed: exit {proc.returncode}, "
                                   f"stderr {proc.stderr.strip()[-300:]}")
    return times


def quantile95(values: list) -> float:
    """Interpolated between order statistics, never past the largest."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    args = parse_args()
    if args.write_pins and args.seed != DEFAULT_SEED:
        print(f"pins are written for the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if not (SRC / "hyperhom" / "__init__.py").is_file():
        print(f"no hyperhom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(REFERENCE))
    import hyperhom
    if Path(hyperhom.__file__).resolve().parent != SRC / "hyperhom":
        print(f"imported hyperhom from {hyperhom.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    steal0, clock0 = steal_ticks(), time.perf_counter()
    try:
        setup_times = setup_probes(work)
        runner = Runner(args.workload, args.seed, work,
                        None if args.write_pins else pins.get(args.workload, {}))
        reference = Runner(args.workload, args.seed, work, None, "hyperhom_reference")
        # Warm both engines up on separate tiny inputs; not timed, not counted.
        for engine in ("hyperhom", "hyperhom_reference"):
            Runner("small-mixed", -1, work / "warm-up", None, engine).run_round()
        if args.trace:
            result = traced_run(runner, args)
        else:
            run_rounds([runner, reference], args.seconds)
            measured = {r.engine.__name__: {
                "wall_s": statistics.median(r.round_walls),
                "case_p50_s": statistics.median(r.case_times),
                "case_p95_s": quantile95(r.case_times),
                "setup_s": statistics.median(setup_times[r.engine.__name__]),
            } for r in (runner, reference)}
            ref = measured["hyperhom_reference"]
            # One factor per run from the reference's round time, which
            # sums every case of every round and so is its least noisy time.
            scale = NOMINAL["wall_s"][args.workload] / ref["wall_s"]
            result = {name: metric(value * scale, "s")
                      for name, value in measured["hyperhom"].items()}
            result["setup_s"] = metric(
                measured["hyperhom"]["setup_s"] * NOMINAL["setup_s"] / ref["setup_s"], "s")
            # Taken before the reference engine did any real work.
            result["peak_rss_mb"] = metric(runner.first_round_rss_mb, "MB")
        defects = known_defects(runner) if args.workload == "small-mixed" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.write_pins:
        pins[args.workload] = runner.hashes
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    steal1 = steal_ticks()
    print(json.dumps({"conditions": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "src_lines": src_lines(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "steal_s": None if steal0 is None else (steal1 - steal0) / os.sysconf("SC_CLK_TCK"),
        "run_s": round(time.perf_counter() - clock0, 3),
    }}))
    samples = {"rounds": len(runner.round_walls), "cases": len(runner.case_times),
               "setup_probes": len(setup_times["hyperhom"])}
    if not args.trace:
        samples.update({"reference_rounds": len(reference.round_walls),
                        "measured_s": measured})
    print(json.dumps({"samples": samples}))
    if defects is not None:
        print(json.dumps({"known_defects": defects}))
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


def traced_run(runner: Runner, args) -> dict:
    run_rounds([runner], args.seconds / 2)
    untraced = statistics.median(runner.round_walls)
    split = len(runner.round_walls)
    runner.tracer = tracer.Tracer()
    runner.tracer.install()
    run_rounds([runner], args.seconds / 2)
    rounds = len(runner.round_walls) - split
    units = tracer.metric_units()
    values = runner.tracer.metrics(rounds)
    dominant = workloads.DOMINANT[args.workload]
    if values[f"{dominant[0]}.calls"] == 0:
        raise SystemExit(f"traced run: dominant layer {dominant[0]} recorded no calls")
    values["trace.overhead_ratio"] = statistics.median(runner.round_walls[split:]) / untraced
    values["trace.dominant_share"] = (
        sum(values[f"{layer}.self_s"] for layer in dominant)
        / statistics.fmean(runner.round_walls[split:]))
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    runner.tracer.write_spans(out_dir / f"spans-{args.workload}.jsonl")
    if runner.tracer.absent:
        print(json.dumps({"absent": runner.tracer.absent}))
    runner.tracer = None
    return {name: metric(values[name], unit) for name, unit in units.items()}


def known_defects(runner: Runner) -> dict:
    """Probe the reported CLI contract breaks once, untimed and uncounted."""
    rnd = workloads.known_defects(random.Random(f"defects:{runner.stream}"))
    paths = write_docs(runner.work / "defects", rnd.docs)
    report = {}
    for case in rnd.cases:
        _, code, text, error = runner.run_case(case, paths)
        _, errors = runner.verify(case, code, text, error, pinned=False)
        report[case.name] = "ok" if not errors else "; ".join(errors)
    return {"still_broken": sum(v != "ok" for v in report.values()), "cases": report}


if __name__ == "__main__":
    sys.exit(main())
