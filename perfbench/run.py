"""sswm benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload simulate_chi5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference.json

Run from the repository root.  One client sends one op at a time; each op is
a fresh Python child running the `sswm` console-script entry point
(`from sswm.cli import main; sys.exit(main())`) on generated inputs, so
nothing is cached across ops.  Ops run while the next one is expected (by
the mean op time so far) to finish within --seconds; a run makes at least
two ops, or one untraced/traced pair.

--trace 0 reports the end-to-end metrics (op_s_p50, peak_rss_mb, setup_s).
--trace 1 alternates untraced and traced ops (perfbench/tracer.py) and
reports the per-layer metrics.  Every op's outputs are checked, op 0 against
reference.json; fail_frac and every failing op with its cause are printed.
The last stdout line is the JSON result; the full record goes to
.bench_out/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from tracer import RSS_TRACKED, layer_metrics, traced_names  # noqa: E402
from workloads import WORKLOADS, OpInput, Workload  # noqa: E402

#: Wall-clock cap on one benchmark invocation, below the 180 s limit.
HARD_CAP_S = 170.0

#: Untraced child: the console-script entry point, plus a mark of the
#: instant `sswm.cli` finished importing (CLOCK_MONOTONIC is system-wide).
SHIM = ("import sys, time\n"
        "mark = sys.argv.pop(1)\n"
        "from sswm.cli import main\n"
        "open(mark, 'w').write(repr(time.monotonic()))\n"
        "sys.exit(main(sys.argv[1:]))\n")

END_TO_END = {"op_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "susceptibility.spectral_grid.distinct": "count",
        "susceptibility.spectral_grid.useful_ratio": "ratio",
        "susceptibility.spectral_grid.cells": "count",
        "susceptibility.spectral_grid.bytes_computed": "B",
        "susceptibility.spectral_grid.n_singular_replaced": "count",
        "wavepacket.analytic_rate_grid.cells": "count",
        "analysis.fit_errors": "count",
    })
    for name in RSS_TRACKED:
        units[f"{name}.rss_rise_mb"] = "MB"
    units.update({"scenarios.export.bytes": "B", "scenarios.export.files": "count",
                  "cli.cpu_s": "s", "tracing.overhead_frac": "ratio"})
    return units


@dataclass
class OpResult:
    index: int
    traced: bool
    reference: bool
    argv: list[str]
    draw: dict
    wall_s: float = 0.0
    setup_s: float | None = None
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    exit_code: int | None = None
    export_bytes: int = 0
    export_files: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("SSWM_OUT_DIR", None)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(cmd: list[str], cwd: Path, timeout: float, env: dict):
    """Start, wait (pidfd poll with timeout) and reap one child with wait4.

    Returns (exit code or None on timeout, wall s, ru_maxrss MB, cpu s, t0).
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
    fd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        timed_out = not poller.poll(max(timeout, 0.0) * 1000)
        if timed_out:
            proc.kill()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return code, wall, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime, t0


def prepare_op_dir(op: OpInput, op_dir: Path) -> Path:
    """Fresh op directory holding the op's input files; returns its out dir."""
    shutil.rmtree(op_dir, ignore_errors=True)
    out = op_dir / "out"
    out.mkdir(parents=True)
    for fname, text in op.files.items():
        (op_dir / fname).write_text(text)
    return out


def run_op(wl: Workload, op: OpInput, index: int, traced: bool, op_dir: Path,
           timeout: float, env: dict, reference: dict | None) -> OpResult:
    out = prepare_op_dir(op, op_dir)
    mark, spans = op_dir / "imported.txt", op_dir / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans)]
    else:
        cmd = [sys.executable, "-c", SHIM, str(mark)]
    cmd += op.argv + ["--out", str(out)]
    res = OpResult(index=index, traced=traced, reference=op.reference,
                   argv=op.argv, draw=op.draw)
    code, res.wall_s, res.rss_mb, res.cpu_s, t0 = run_child(cmd, op_dir, timeout, env)
    res.exit_code = code
    if code is None:
        res.problems.append(f"timeout after {timeout:.0f} s")
    elif code != 0:
        tail = (op_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        res.problems.append(f"exit {code}: {tail[-1] if tail else ''}")
    else:
        res.problems += wl.check(op, out, reference)
    if mark.exists():
        res.setup_s = float(mark.read_text()) - t0
    files = [p for p in out.rglob("*") if p.is_file()]
    res.export_files = len(files)
    res.export_bytes = sum(p.stat().st_size for p in files)
    if traced and spans.exists():
        res.layers = layer_metrics(json.loads(spans.read_text())["spans"])
    elif traced and not res.problems:
        res.problems.append("traced op left no spans")
    shutil.rmtree(op_dir, ignore_errors=True)
    return res


def environment(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for p in sorted((SRC / "sswm").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".cfg"):
            digest.update(p.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(p.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": nproc(),
            "thread_caps": {k: v for k, v in child_env().items()
                            if k.endswith("_THREADS")},
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(args, reference: dict | None) -> tuple[list[OpResult], float]:
    wl = WORKLOADS[args.workload]
    rng = random.Random(f"{wl.name}:{args.seed}")
    env = child_env()
    work = WORK / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    start = time.monotonic()
    results: list[OpResult] = []
    rounds: list[float] = []
    min_rounds = 1 if args.trace else 2
    i = 0
    while True:
        op = wl.make_op(rng, i)
        r0 = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            left = HARD_CAP_S - (time.monotonic() - start)
            results.append(run_op(wl, op, i, traced, work / f"op{i}{'t' if traced else ''}",
                                  left, env, reference))
        rounds.append(time.monotonic() - r0)
        i += 1
        elapsed = time.monotonic() - start
        if elapsed + max(rounds) > HARD_CAP_S - 5:
            break
        expected_end = elapsed + statistics.mean(rounds)
        if len(rounds) >= min_rounds and expected_end > args.seconds:
            break
    shutil.rmtree(work, ignore_errors=True)
    return results, time.monotonic() - start


def end_to_end(results: list[OpResult]) -> dict[str, float]:
    return {"op_s_p50": median([r.wall_s for r in results]),
            "peak_rss_mb": median([r.rss_mb for r in results]),
            "setup_s": median([r.setup_s for r in results if r.setup_s is not None])}


def per_layer(results: list[OpResult]) -> dict[str, float]:
    plain = [r for r in results if not r.traced]
    traced = [r for r in results if r.traced and r.layers is not None]
    names = per_layer_units()
    m = {}
    for name in names:
        vals = [r.layers[name] for r in traced if name in r.layers]
        m[name] = median(vals)
    m["scenarios.export.bytes"] = median([r.export_bytes for r in plain])
    m["scenarios.export.files"] = median([r.export_files for r in plain])
    m["cli.cpu_s"] = median([r.cpu_s for r in plain])
    base = median([r.wall_s for r in plain])
    m["tracing.overhead_frac"] = (median([r.wall_s for r in traced]) / base - 1
                                  if base and traced else 0.0)
    return m


def record_reference() -> int:
    """Run op 0 (the unperturbed preset) of every workload; store summaries."""
    env = child_env()
    record = {}
    for name, wl in WORKLOADS.items():
        op = wl.make_op(random.Random(0), 0)
        op_dir = WORK / f"reference-{name}"
        out = prepare_op_dir(op, op_dir)
        code, wall, *_ = run_child([sys.executable, "-c", SHIM, str(op_dir / "m")]
                                   + op.argv + ["--out", str(out)], op_dir, 300, env)
        summary, probs = wl.summarize(op, out)
        if code != 0 or probs:
            print(f"{name}: exit {code}, {probs}", file=sys.stderr)
            return 1
        record[name] = summary
        shutil.rmtree(op_dir, ignore_errors=True)
        print(f"{name}: recorded ({wall:.1f} s)")
    REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the unperturbed presets")
    args = ap.parse_args(argv)
    if not (SRC / "sswm" / "cli.py").is_file():
        print(f"error: no sswm sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE.name} is missing", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text()).get(args.workload)

    results, elapsed = run_workload(args, reference)
    failed = [r for r in results if r.failed]
    plain = [r for r in results if not r.traced]
    e2e = end_to_end(plain)
    layers = per_layer(results) if args.trace else {}
    units = per_layer_units() if args.trace else END_TO_END
    metrics = layers if args.trace else e2e
    env = environment(args)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(results)} ops in {elapsed:.1f} s (closed loop, 1 client)")
    for r in results:
        print(f"  op {r.index}{' traced' if r.traced else ''}"
              f"{' [reference]' if r.reference else ''}: {r.wall_s:.3f} s, "
              f"rss {r.rss_mb:.1f} MB, setup "
              f"{'-' if r.setup_s is None else f'{r.setup_s:.3f} s'}, "
              f"{'FAIL' if r.failed else 'ok'}  draw {r.draw}")
        for p in r.problems:
            print(f"      cause: {p}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:.4f} {unit}  (n={len(plain)} untraced ops)")
    print(f"  {'fail_frac':<14} {len(failed) / len(results):.4f}  "
          f"({len(failed)} failed / {len(results)} attempted)")
    if args.trace:
        for name, value in layers.items():
            print(f"  {name:<52} {value:.6g} {units[name]}")
    print("env: " + json.dumps(env, sort_keys=True))

    out = {"correct": not failed, "attempted": len(results), "failed": len(failed),
           "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": out, "end_to_end": e2e,
                    "fail_frac": len(failed) / len(results),
                    "ops": [r.__dict__ for r in results]}, indent=1, default=str))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
