#!/usr/bin/env python3
"""Benchmark of ``mwc check | analyze | simulate`` on seeded generated scenarios.

Run from the root of the repository::

    python3 perfbench/run.py --workload periodic_windows --seed 1 --seconds 30 --trace 0

One run generates the workload's scenario file from ``--seed`` under
``.perfbench_work/``, computes the reference outputs, and then

* ``--trace 0``: times a fresh interpreter's import and ``load_config``
  (``setup_s``), runs each command once in its own process for peak RSS, and
  runs rounds of warm in-process commands for ``--seconds`` seconds.  Each of
  these timings is scaled by the host's speed when it ran (see
  :class:`Calibrated`); the raw times are printed and recorded next to them;
* ``--trace 1``: alternates plain rounds with rounds in which every layer is
  wrapped by ``spans.Instrumented``, and reports per-layer numbers per round
  (one run of each command, raw span times) plus the tracing overhead from
  the scaled command times.

Every command's output is checked against ``checks.py``.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
environment included, goes to ``.perfbench_work/result-*.json``.
"""

import os

# BLAS threads are pinned before numpy loads, so timings do not depend on how
# many threads the BLAS starts; child processes inherit the pin.
THREAD_ENV = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMANDS = ("check", "analyze", "simulate")
SETUP_REPEATS = 9
MIN_ROUNDS = 2
SLICE_S = 0.25  # within a round a fast command repeats until it has run this long
TAIL_SAMPLES = 10  # a reported percentile has at least this many samples beyond it

LOAD = ("import sys, mwconsensus; from mwconsensus.config import load_config; "
        "load_config(sys.argv[1])")
IMPORT = "import mwconsensus"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with TAIL_SAMPLES samples beyond it, and the count."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s), "tail": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        k = math.ceil(p / 100 * len(s))
        if len(s) - k >= TAIL_SAMPLES:
            out["tail"] = {"p": p, "value": s[k - 1]}
            break
    return out


class Bench:
    """One workload instance: its files, reference outputs and command runs."""

    def __init__(self, workload: gen.Workload, work: Path):
        self.w = workload
        self.work = work
        self.scenario = work / "scenario.json"
        self.scenario_sha256 = workload.write(self.scenario)
        self.ref = checks.reference(workload)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple, list[str]] = {}

    def out_path(self, cmd: str) -> Path:
        return self.work / f"{cmd}.out"

    def argv(self, cmd: str) -> list[str]:
        extra = [] if cmd == "check" else ["--out", str(self.out_path(cmd))]
        return [cmd, "--config", str(self.scenario), *extra]

    def _check(self, cmd: str, stdout: str, out: bytes) -> list[str]:
        problems = checks.check_stdout(cmd, stdout)
        if cmd == "analyze":
            problems += checks.check_report(out.decode(), self.ref)
        elif cmd == "simulate":
            problems += checks.check_csv(out.decode(), self.ref, self.w.n, self.w.d)
        return problems

    def record(self, cmd: str, rc, stdout: str) -> bool:
        """Count one command run and check its output; identical outputs are checked once."""
        self.attempted += 1
        path = self.out_path(cmd)
        out = path.read_bytes() if cmd != "check" and path.exists() else b""
        if rc != 0:
            problems = [f"{cmd} exited with {rc}"]
        else:
            key = (cmd, sha256(stdout.encode()), sha256(out))
            if key not in self._verdicts:
                self._verdicts[key] = self._check(cmd, stdout, out)
            problems = self._verdicts[key]
        if problems:
            self.failed += 1
            self.problems += [p for p in problems if p not in self.problems]
        return not problems

    def run_warm(self, cli, cmd: str) -> tuple[float, bool]:
        """One in-process ``mwc`` run; returns its wall time and whether it passed."""
        self.out_path(cmd).unlink(missing_ok=True)
        buf, err = io.StringIO(), io.StringIO()
        gc.collect()  # every run starts from the same collector state
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(self.argv(cmd))
        except (Exception, SystemExit):
            rc = "an exception:\n" + traceback.format_exc()
        dt = time.perf_counter() - t0
        return dt, self.record(cmd, rc, buf.getvalue())

    def run_cold(self, cmd: str) -> float:
        """One ``python -m mwconsensus.cli`` process; returns its peak RSS in MiB."""
        self.out_path(cmd).unlink(missing_ok=True)
        stdout = self.work / f"cold.{cmd}.stdout"
        with open(stdout, "wb") as so, open(self.work / f"cold.{cmd}.stderr", "wb") as se:
            p = subprocess.Popen([sys.executable, "-m", "mwconsensus.cli", *self.argv(cmd)],
                                 cwd=self.work, env=self.env, stdout=so, stderr=se)
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.record(cmd, p.returncode, stdout.read_text())
        return usage.ru_maxrss / 1024.0

    def fresh_interpreter(self, code: str, *args: str) -> float:
        """Wall time of a new interpreter running ``code``."""
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, "-c", code, *args], cwd=self.work, env=self.env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        dt = time.perf_counter() - t0
        if r.returncode != 0:
            self.problems.append(f"fresh interpreter failed: {r.stderr.strip()[-500:]}")
        return dt


class Calibrated:
    """Timed samples, each scaled by the host's speed at the moment it ran.

    On a shared host the CPU alternates between speeds up to ~1.8x apart for
    seconds to minutes at a time, and a run's raw median follows whichever
    speed it happened to get.  A fixed calibration kernel of interpreter work,
    3x3 ``eigvalsh`` calls and a 160x160 product runs between consecutive
    samples; each sample is scaled by ``REF_S`` over the mean kernel time just
    before and just after it, giving seconds at the reference speed.
    """

    REF_S = 0.0027  # kernel time on an uncontended core of a 2.1 GHz Intel Xeon

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [R @ R.T for R in rng.normal(size=(150, 3, 3))]
        self._big = rng.normal(size=(160, 160))
        self._eigvalsh = np.linalg.eigvalsh  # bound before any tracing: never wrapped
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.kernel_s: list[float] = [self.kernel()]

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, float] = {}
        for k in range(6000):
            acc[k % 97] = acc.get(k % 97, 0.0) + k * 0.5
        for M in self._small:
            self._eigvalsh(M)
        for _ in range(6):
            self._big @ self._big
        return time.perf_counter() - t0

    def time(self, name: str, fn) -> tuple[float, bool]:
        """Run ``fn() -> (seconds, ok)`` and keep its sample when ok."""
        before = self.kernel_s[-1]
        dt, ok = fn()
        self.kernel_s.append(self.kernel())
        if ok:
            self.raw.setdefault(name, []).append(dt)
            speed = (before + self.kernel_s[-1]) / 2
            self.scaled.setdefault(name, []).append(dt * self.REF_S / speed)
        return dt, ok


def measure_plain(bench: Bench, cli, cal: Calibrated, seconds: float) -> None:
    """Rounds of check, analyze, simulate until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        r0 = time.perf_counter()
        for cmd in COMMANDS:
            used, ok = 0.0, True
            while ok and used < SLICE_S:
                dt, ok = cal.time(f"{cmd}_s", lambda: bench.run_warm(cli, cmd))
                used += dt
        rounds += 1
        last = time.perf_counter() - r0


def measure_traced(bench: Bench, cli, cal: Calibrated, seconds: float):
    """Alternate plain and traced rounds (one run per command each) for ``seconds``."""
    rec = spans.Recorder()
    per_round: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    pairs, last = 0, 0.0
    while pairs < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        r0 = time.perf_counter()
        for traced_round in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced_round:
                rec.spans.clear()  # keep the last traced round's spans only
            runs = []
            with spans.Instrumented(rec) if traced_round else contextlib.nullcontext():
                for cmd in COMMANDS:
                    rec.run += 1
                    runs.append(rec.run)
                    kind = "traced" if traced_round else "plain"
                    cal.time(f"{cmd}_s ({kind})", lambda: bench.run_warm(cli, cmd))
                    if cmd == "analyze" and traced_round:
                        rec.count("cli.report_bytes", bench.out_path(cmd).stat().st_size)
            if traced_round:
                per_round.append(spans.layer_metrics(rec, runs))
        pairs += 1
        last = time.perf_counter() - r0
    return per_round, rec.spans


def environment(seed: int, scenario_sha256: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else None
    source = hashlib.sha256()
    for path in sorted((SRC / "mwconsensus").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "workload_sha256": {"scenario.json": scenario_sha256},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mwconsensus" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no mwconsensus sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import mwconsensus.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: mwconsensus was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(gen.BUILDERS[args.workload](args.seed), work)
    bench.run_warm(cli, "check")  # warm-up: lazy numpy and LAPACK set-up
    gc.collect()
    gc.freeze()  # later collections skip the benchmark's own long-lived objects

    cal = Calibrated()
    record: dict = {}
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            cal.time("setup_s", lambda: (bench.fresh_interpreter(LOAD, str(bench.scenario)), True))
        rss = max(bench.run_cold(cmd) for cmd in COMMANDS)
        measure_plain(bench, cli, cal, args.seconds)
    else:
        for _ in range(SETUP_REPEATS):
            cal.time("process.import_s", lambda: (bench.fresh_interpreter(IMPORT), True))
        per_round, last_spans = measure_traced(bench, cli, cal, args.seconds)
    timings = {name: summarize(xs) for name, xs in cal.scaled.items()}
    values = {name: t["median"] for name, t in timings.items()}
    if args.trace == 0:
        values["peak_rss_mb"] = rss
        values["success_frac"] = 1.0 - bench.failed / bench.attempted
        wanted = spec["end_to_end"]
    else:
        untraced = values["analyze_s (plain)"] + values["simulate_s (plain)"]
        with_trace = values["analyze_s (traced)"] + values["simulate_s (traced)"]
        values["trace.overhead_frac"] = with_trace / untraced - 1.0
        for k in sorted({k for r in per_round for k in r}):
            values[k] = statistics.median(r.get(k, 0.0) for r in per_round)
        counts = [{k: v for k, v in r.items() if k.endswith(".calls")} for r in per_round]
        record["counts_repeat"] = all(c == counts[0] for c in counts)
        record["traced_rounds"] = len(per_round)
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run"], "spans": last_spans}))
        wanted = spec["per_layer"]
    timings.update({f"{name} (raw)": summarize(xs) for name, xs in cal.raw.items()})
    timings["calibration kernel"] = summarize(cal.kernel_s)

    correct = bench.failed == 0 and not bench.problems
    env = environment(args.seed, bench.scenario_sha256)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scenario sha256 {bench.scenario_sha256[:16]}")
    for name, t in timings.items():
        tail = f"p{t['tail']['p']:g} {t['tail']['value']:.6f} s" if t["tail"] else "no tail"
        print(f"  {name:<28} median {t['median']:.6f} s  {tail}  n={t['n']}")
    for name, m in metrics.items():
        if name not in timings:
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {bench.failed / bench.attempted:g} "
          f"({bench.failed} of {bench.attempted} commands)")
    for problem in bench.problems:
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    record.update(result=result, timings=timings, all_values=values, env=env,
                  samples={"scaled": cal.scaled, "raw": cal.raw, "kernel_s": cal.kernel_s},
                  problems=bench.problems, workload=args.workload, trace=args.trace)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
