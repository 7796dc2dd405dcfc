"""wristfall benchmark: the CLI as users run it, end to end and per layer.

    python3 bench/run.py --workload erciyes-rf --seed 1 --seconds 20 --trace 0

Each workload generates its inputs from --seed, then runs its chain of
`wristfall` commands, each a separate process, for at least --seconds. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced in-process run of the same chain,
which follows one untraced chain. Outputs are checked; a command that exits
non-zero or fails its check counts as a failed operation. --smoke runs on
tiny inputs. Run records (and spans, with --trace 1) are written to
bench/.out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

SPLIT_SEED = 7  # the CLI's --seed; the workload seed only shapes the inputs
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
STREAM_WINDOW_S = 10.0
STREAM_PACED_ROWS_PER_S = 25_000.0
STREAM_LEAD_S = 0.5  # rows are due from this long after the program is started

# Erciyes tasks in the chain corpus: every fourth ADL and fall task of the
# replica, 17 subjects x 5 trials each: 765 trials, a quarter of the replica
# with its 4:5 class balance, so that a run makes two chains in about 40 s.
ERCIYES_ADL = ("A01", "A05", "A09", "A13")
ERCIYES_FALLS = ("F01", "F05", "F09", "F13", "F17")

END_TO_END_UNITS = {
    "setup_s": "s",
    "chain_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ops_pct": "%",
    "accuracy_pct": "%",
    "sensitivity_pct": "%",
    "specificity_pct": "%",
}

EXTRA_LAYER_UNITS = {
    "chain.ingest_s": "s",
    "chain.analysis_s": "s",
    "stream.latency_p50_ms": "ms",
    "stream.latency_p99_ms": "ms",
    "stream.generator_lag_max_ms": "ms",
    "trace.chain_s": "s",
    "trace.overhead_s": "s",
}


def layer_unit(name: str) -> str:
    if name in EXTRA_LAYER_UNITS:
        return EXTRA_LAYER_UNITS[name]
    suffix = name.rsplit(".", 1)[1]
    return {
        "s": "s",
        "self_s": "s",
        "startup_s": "s",
        "samples_per_s": "1/s",
        "calls": "count",
        "windows": "count",
        "calls_per_window": "ratio",
        "us_per_call": "us",
    }[suffix]


# ---------------------------------------------------------------- processes


def child_env() -> dict[str, str]:
    """What a user's shell would pass: no PYTHONUNBUFFERED, no PYTHONDONTWRITEBYTECODE."""
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL", "TZ") if k in os.environ}
    env.setdefault("PATH", "/usr/local/bin:/usr/bin:/bin")
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Command:
    name: str
    argv: list[str]
    exit: int = -1
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    stdout: str = ""


def _launch(cmd: Command, env: dict, logdir: Path, **streams) -> subprocess.Popen:
    """Start `python -m wristfall.cli <argv>` through launch.py, which times it and takes its peak RSS."""
    report = logdir / f"{cmd.name}.launch.json"
    launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(report)]
    return subprocess.Popen([*launcher, sys.executable, "-m", "wristfall.cli", *cmd.argv], env=env, cwd=ROOT, **streams)


def _finish(proc: subprocess.Popen, cmd: Command, logdir: Path) -> None:
    proc.wait()
    try:
        report = json.loads((logdir / f"{cmd.name}.launch.json").read_text())
    except (OSError, ValueError):
        return  # the launcher itself failed: cmd.exit stays -1
    cmd.exit, cmd.wall_s, cmd.maxrss_mb = report["exit"], report["wall_s"], report["maxrss_kb"] / 1024.0


def run_cli(cmd: Command, env: dict, logdir: Path, stdin_path: Path | None = None) -> Command:
    """Run one command as its own process; fills exit, wall time, peak RSS and stdout."""
    out_path, err_path = logdir / f"{cmd.name}.out", logdir / f"{cmd.name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err, (
        open(stdin_path, "rb") if stdin_path else open(os.devnull, "rb")
    ) as stdin:
        _finish(_launch(cmd, env, logdir, stdin=stdin, stdout=out, stderr=err), cmd, logdir)
    cmd.stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return cmd


def startup_s(env: dict) -> float:
    """Median wall time of a fresh interpreter that imports wristfall.cli."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wristfall.cli"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def paced_stream(cmd: Command, env: dict, logdir: Path, stream_path: Path, rows_per_s: float, closing_rows: list[int]):
    """Open-loop pass: row i is due at T0 + i/rate whatever the program does.

    Returns (latency_ms per window, generator lag samples in ms). A window's
    latency runs from when the row that closes it was due to when its verdict
    line is read.
    """
    lines = stream_path.read_bytes().splitlines(keepends=True)
    header, rows = lines[0], lines[1:]
    proc = _launch(cmd, env, logdir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lag_ms: list[float] = []
    t0 = time.perf_counter() + STREAM_LEAD_S

    def write():
        sent = 0
        proc.stdin.write(header)
        while sent < len(rows):
            now = time.perf_counter()
            due = min(len(rows), int((now - t0) * rows_per_s) + 1) if now >= t0 else 0
            if due > sent:
                proc.stdin.write(b"".join(rows[sent:due]))
                proc.stdin.flush()
                lag_ms.append(1e3 * (time.perf_counter() - (t0 + sent / rows_per_s)))
                sent = due
            time.sleep(0.001)
        proc.stdin.close()

    writer = threading.Thread(target=write)
    writer.start()
    arrivals, out = [], []
    for line in proc.stdout:
        arrivals.append(time.perf_counter())
        out.append(line.decode())
    writer.join()
    proc.stdout.close()
    _finish(proc, cmd, logdir)
    cmd.stdout = "".join(out)
    latency_ms = [1e3 * (at - (t0 + row / rows_per_s)) for at, row in zip(arrivals, closing_rows)]
    return latency_ms, lag_ms


# ---------------------------------------------------------------- workloads


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    ops: list[tuple[str, bool]] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    chains: list[list[Command]] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.ops.append((name, bool(ok)))


def timed_setup(run: Run, work: Path, build) -> Path:
    """Set up SETUP_REPEATS times into fresh directories; keep the last one."""
    base = None
    for i in range(SETUP_REPEATS):
        if base is not None:
            shutil.rmtree(base)
        base = work / f"setup{i}"
        start = time.perf_counter()
        build(base)
        run.setup_s.append(time.perf_counter() - start)
    return base


def _pct(report: dict, key: str) -> float:
    value = report.get(key)
    return float(value) if value is not None else 0.0


ERCIYES_CHAIN = [
    ("ingest", ["ingest", "--manifest", "{raw}/manifest.json", "--out", "{corpus}"]),
    ("calibrate", ["calibrate", "--corpus", "{corpus}", "--signals", "smv_acc,fi,avd", "--seed", "{split}",
                   "--out", "{out}/thresholds.cfg"]),
    ("train", ["train", "--corpus", "{corpus}", "--kind", "rf", "--view", "combined88", "--seed", "{split}",
               "--out", "{out}/rf.json"]),
    ("evaluate", ["evaluate", "--corpus", "{corpus}", "--detector", "rf", "--view", "combined88", "--seed", "{split}",
                  "--predictions", "--out", "{out}/rf-combined88"]),
]

UMAFALL_CHAIN = [
    ("ingest", ["ingest", "--manifest", "{raw}/manifest.json", "--out", "{corpus}"]),
    *[
        (f"evaluate-{kind}-{view}", ["evaluate", "--corpus", "{corpus}", "--detector", kind, "--view", view,
                                     "--seed", "{split}", "--out", f"{{out}}/{kind}-{view}"])
        for kind, view in (("svm", "acc44"), ("svm", "gyr44"), ("svm", "combined88"), ("knn", "combined88"))
    ],
]

CHAINS = {
    "erciyes-rf": (ERCIYES_CHAIN, "rf-combined88"),
    "umafall-views": (UMAFALL_CHAIN, "svm-combined88"),
}


def build_chain_input(workload: str, seed: int, smoke: bool):
    import inputs

    if workload == "erciyes-rf":
        adl, falls = (ERCIYES_ADL[:1], ERCIYES_FALLS[:1]) if smoke else (ERCIYES_ADL, ERCIYES_FALLS)
        return lambda base: inputs.build_erciyes(base, seed, adl, falls)
    counts = (2, 2) if smoke else (None, None)
    return lambda base: inputs.build_umafall(base, seed, *counts)


def _chain_argv(argv: list[str], raw: Path, chain_dir: Path) -> list[str]:
    fill = {"raw": raw, "corpus": chain_dir / "corpus", "out": chain_dir / "out", "split": SPLIT_SEED}
    return [a.format(**fill) for a in argv]


def _reports(out_dir: Path) -> dict[str, bytes]:
    return {p.parent.name: p.read_bytes() for p in sorted(out_dir.glob("*/report.json"))}


def _check_ingest(run: Run, chain_dir: Path, raw: Path) -> None:
    expected = json.loads((raw / "manifest.json").read_text())["expected"]
    try:
        got = json.loads((chain_dir / "corpus" / "ingest_report.json").read_text())
    except (OSError, ValueError):
        got = {}
    ok = (
        got.get("n_adl") == expected["adl_trials"]
        and got.get("n_fall") == expected["fall_trials"]
        and len(got.get("subjects", ())) == expected["participants"]
        and got.get("skipped") == []
    )
    run.check("ingest inventory", ok)


def run_chain_workload(run: Run, workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path, env):
    chain, headline = CHAINS[workload]
    raw = timed_setup(run, work, build_chain_input(workload, seed, smoke))
    first_reports: dict[str, bytes] | None = None
    samples = 0
    start = time.perf_counter()
    chain_dir = None
    while not run.chains or (not trace and time.perf_counter() - start < seconds):
        if chain_dir is not None:
            shutil.rmtree(chain_dir)
        chain_dir = work / f"chain{len(run.chains)}"
        (chain_dir / "out").mkdir(parents=True)
        commands = []
        for name, argv in chain:
            cmd = run_cli(Command(name, _chain_argv(argv, raw, chain_dir)), env, chain_dir)
            run.check(f"{name} exit", cmd.exit == 0)
            commands.append(cmd)
        run.chains.append(commands)
        _check_ingest(run, chain_dir, raw)
        reports = _reports(chain_dir / "out")
        run.check("reports written", len(reports) == sum(1 for _, a in chain if a[0] == "evaluate"))
        if first_reports is None:
            first_reports = reports
            samples = sum(p.read_bytes().count(b"\n") - 1 for p in (chain_dir / "corpus" / "trials").glob("*.csv"))
        else:
            run.check("report.json identical across repeats", reports == first_reports)
    if len(run.chains) == 1 and not trace:
        # one timed chain: repeat its headline evaluate (untimed) so determinism is still checked
        name, argv = next((n, a) for n, a in chain if a[-1] == f"{{out}}/{headline}")
        repeat = _chain_argv(argv[:-1], raw, chain_dir) + [str(chain_dir / "repeat" / headline)]
        cmd = run_cli(Command(f"{name}-repeat", repeat), env, chain_dir)
        run.check(f"{name} repeat exit", cmd.exit == 0)
        repeated = _reports(chain_dir / "repeat").get(headline)
        run.check("report.json identical across repeats", repeated == first_reports.get(headline))
    shutil.rmtree(chain_dir)

    chain_s = statistics.median(sum(c.wall_s for c in cmds) for cmds in run.chains)
    report = json.loads(first_reports.get(headline, b"{}"))
    run.metrics.update(
        chain_s=chain_s,
        rows_per_s=samples / chain_s,
        peak_rss_mb=statistics.median(max(c.maxrss_mb for c in cmds) for cmds in run.chains),
        accuracy_pct=_pct(report, "accuracy_pct"),
        sensitivity_pct=_pct(report, "sensitivity_pct"),
        specificity_pct=_pct(report, "specificity_pct"),
    )
    run.notes.update(samples=samples, chains=len(run.chains))
    if not trace:
        return
    run.layer.update(
        {
            "chain.ingest_s": statistics.median(cmds[0].wall_s for cmds in run.chains),
            "chain.analysis_s": statistics.median(sum(c.wall_s for c in cmds[1:]) for cmds in run.chains),
            "stream.latency_p50_ms": 0.0,  # no stream on this workload
            "stream.latency_p99_ms": 0.0,
            "stream.generator_lag_max_ms": 0.0,
        }
    )
    tracer, passes = traced_chain(run, lambda d: [_chain_argv(argv, raw, d) for _, argv in chain], work, env)
    for label, (chain_dir, _) in passes.items():
        run.check(f"in-process {label} report.json identical", _reports(chain_dir / "out") == first_reports)
    return tracer


def run_stream_workload(run: Run, seed: int, seconds: float, trace: bool, smoke: bool, work: Path, env):
    import inputs
    from wristfall.threshold import load_threshold_config

    n_windows, n_dev = (40, 40) if smoke else (1000, 300)
    built = {}

    def build(base):
        built["paths"] = inputs.build_stream(base, seed, n_windows, n_dev, STREAM_WINDOW_S)

    timed_setup(run, work, build)
    stream_path, config_path, windows = built["paths"]
    reference = inputs.reference_verdicts(windows, load_threshold_config(config_path))
    argv = ["detect-stream", "--threshold-config", str(config_path), "--window-seconds", repr(STREAM_WINDOW_S)]
    n_rows = sum(w.t.shape[0] for w in windows)

    def check_verdicts(cmd: Command, what: str) -> None:
        run.check(f"{what} exit", cmd.exit == 0)
        run.check(f"{what} verdicts match batch reference", cmd.stdout.splitlines() == reference)

    start = time.perf_counter()
    while not run.chains or (not trace and time.perf_counter() - start < seconds):
        cmd = run_cli(Command(f"detect-stream{len(run.chains)}", argv), env, work, stdin_path=stream_path)
        check_verdicts(cmd, "detect-stream")
        run.chains.append([cmd])

    walls = [cmds[0].wall_s for cmds in run.chains]
    verdicts = [line.split(",")[1] if "," in line else "" for line in run.chains[0][0].stdout.splitlines()]
    truth = [w.label.value for w in windows]
    pairs = list(zip(verdicts, truth))
    falls = [v for v, t in pairs if t == "Fall"]
    adls = [v for v, t in pairs if t == "ADL"]
    run.metrics.update(
        chain_s=statistics.median(walls),
        rows_per_s=n_rows / statistics.median(walls),
        peak_rss_mb=statistics.median(cmds[0].maxrss_mb for cmds in run.chains),
        accuracy_pct=100.0 * sum(v == t for v, t in pairs) / len(truth),
        sensitivity_pct=100.0 * falls.count("Fall") / len(falls) if falls else 0.0,
        specificity_pct=100.0 * adls.count("ADL") / len(adls) if adls else 0.0,
    )
    run.notes.update(samples=n_rows, windows=n_windows, passes=len(run.chains))
    if not trace:
        return

    per_window = windows[0].t.shape[0]
    closing_rows = [(k + 1) * per_window for k in range(n_windows - 1)] + [n_rows - 1]
    paced = Command("detect-stream-paced", argv)
    latency_ms, lag_ms = paced_stream(paced, env, work, stream_path, STREAM_PACED_ROWS_PER_S, closing_rows)
    check_verdicts(paced, "paced detect-stream")
    run.layer.update(
        {
            "chain.ingest_s": 0.0,  # no ingest on this workload
            "chain.analysis_s": 0.0,
            "stream.latency_p50_ms": statistics.median(latency_ms),
            "stream.latency_p99_ms": statistics.quantiles(latency_ms, n=100)[98],
            "stream.generator_lag_max_ms": max(lag_ms),
        }
    )
    run.notes.update(paced_rows_per_s=STREAM_PACED_ROWS_PER_S, generator_lag_p50_ms=statistics.median(lag_ms))
    tracer, passes = traced_chain(run, lambda d: [argv], work, env, stdin_path=stream_path)
    for label, (_, stdouts) in passes.items():
        run.check(f"in-process {label} verdicts match batch reference", stdouts[0].splitlines() == reference)
    return tracer


# ---------------------------------------------------------------- tracing


def _call_cli(argv: list[str], stdin_path: Path | None) -> tuple[int, str]:
    """wristfall.cli.main(argv) in this process, with stdin from a file; returns (exit, stdout)."""
    import wristfall.cli

    out = io.StringIO()
    with open(stdin_path or os.devnull, encoding="utf-8") as stdin, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(io.StringIO()):
        saved_stdin, sys.stdin = sys.stdin, stdin
        try:
            code = wristfall.cli.main(argv)
        finally:
            sys.stdin = saved_stdin
    return code, out.getvalue()


def traced_chain(run: Run, make_argvs, work: Path, env, stdin_path: Path | None = None):
    """The chain in-process through wristfall.cli.main, untraced and then with every layer traced.

    `make_argvs(chain_dir)` gives the commands writing under `chain_dir`.
    Returns the tracer and, per pass, (chain_dir, stdout of each command).
    """
    import tracing

    tracer = tracing.Tracer()
    passes, walls = {}, {}
    for label in ("untraced", "traced"):
        chain_dir = work / f"inproc-{label}"
        (chain_dir / "out").mkdir(parents=True)
        argvs = make_argvs(chain_dir)
        stdouts = []
        if label == "traced":
            tracer.install()
        start = time.perf_counter()
        try:
            for argv in argvs:
                with tracer.command(argv) if label == "traced" else contextlib.nullcontext():
                    code, stdout = _call_cli(argv, stdin_path)
                run.check(f"in-process {label} {argv[0]} exit", code == 0)
                stdouts.append(stdout)
        finally:
            walls[label] = time.perf_counter() - start
            tracer.uninstall()
        passes[label] = (chain_dir, stdouts)

    run.layer.update(tracing.layer_metrics(tracer.traces, len(tracer.window_refs), startup_s(env)))
    run.layer["trace.chain_s"] = walls["traced"]
    run.layer["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    run.notes["self_time_vs_wall_s"] = [tracing.self_time_check(t) for t in tracer.traces]
    return tracer, passes


# ---------------------------------------------------------------- main


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wristfall").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*CHAINS, "stream-threshold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one chain")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wristfall" / "cli.py").is_file() or not (TESTS / "replicas.py").is_file():
        print(f"error: {ROOT} does not hold the wristfall sources (src/wristfall, tests/replicas.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import numpy

    env = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], env=env, cwd=ROOT, check=True)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = BENCH / ".out"
    outdir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    run = Run()
    trace = bool(args.trace)
    try:
        if args.workload == "stream-threshold":
            tracer = run_stream_workload(run, args.seed, args.seconds, trace, args.smoke, work, env)
        else:
            tracer = run_chain_workload(run, args.workload, args.seed, args.seconds, trace, args.smoke, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _, ok in run.ops if not ok)
    run.metrics["setup_s"] = statistics.median(run.setup_s)
    run.metrics["ok_ops_pct"] = 100.0 * (len(run.ops) - failed) / len(run.ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "split_seed": SPLIT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "child_env": env,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "setup_s_samples": run.setup_s,
        "commands": [[(c.name, c.exit, c.wall_s, c.maxrss_mb) for c in cmds] for cmds in run.chains],
        "failed_checks": [name for name, ok in run.ops if not ok],
        "end_to_end": run.metrics,
        "per_layer": run.layer,
        **run.notes,
    }
    if trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in run.layer.items()}
    else:
        metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    stem = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with gzip.open(outdir / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(tracer.traces, fh)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
