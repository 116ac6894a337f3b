#!/usr/bin/env python3
"""Build the canonical outputs of one source tree, and compare two builds.

    python tools/outputs.py build TREE DIR
    python tools/outputs.py compare A B

`build` runs the canonical set with TREE's `src` first on PYTHONPATH, each
command in DIR so that every path it prints is relative.  Each run writes
into the directory of its name under DIR:

- `sim_<preset>`: `simulate` on every preset in TREE, csv;
- `json_<preset>`: the same in json;
- `sweep`, `sweep_plain` and `sweep_omega_c1`: the three sweeps in SWEEPS;
- `<script>`: each script under TREE/scripts, by its file's stem;
- `acceptance`.

With seven presets and three scripts that is 21 runs.

Each run's stdout, stderr (with TREE's path written as `<tree>`) and exit
code are saved under DIR/logs as `<run>.stdout`, `<run>.stderr` and
`<run>.exit`.  The runs are serial, and they inherit the caller's
environment, so PYTHONWARNINGS reaches every one.  A run that exits non-zero
has its stderr printed after its exit line, and `build` then exits 1.  The
csv preset logs followed by the sweep logs in that order hold the reports
that `tests/golden/reports.txt` pins, line for line:

    cd DIR/logs
    cat sim_*.stdout sweep.stdout sweep_plain.stdout sweep_omega_c1.stdout

`compare` walks both builds and prints one line per file: identical,
different, or only in one build.  A differing file whose text matches once
its numbers are set aside is numeric: its line gives how many numbers differ
and their maximum absolute and relative difference.  The last line is the
summary, and the exit code is 1 on any difference, else 0.

CI runs `build` once under warnings as errors and diffs its logs against
`tests/golden/reports.txt`, then builds again under `taskset -c 0` and
`compare`s the two builds.  The tool itself uses only the standard library.
"""
from __future__ import annotations

import argparse
import filecmp
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

#: The canonical sweeps, each with its output directory.
SWEEPS = {
    "sweep": ["--scenario", "fig3f", "--param", "optical_depth", "--values", "37,74,111",
              "--ideal-rect"],
    "sweep_plain": ["--scenario", "fig3f", "--param", "optical_depth", "--values",
                    "37,74,111"],
    "sweep_omega_c1": ["--scenario", "fig3b", "--param", "omega_c1", "--values",
                       "2gamma31,4gamma31,8gamma31"],
}

#: A number as the exports, reports and logs print it.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def canonical_runs(tree: Path) -> dict[str, list[str]]:
    """Run name -> argv, to be run in the build directory; each run writes
    into the directory of its name."""
    cli = [sys.executable, "-m", "sswm.cli"]
    runs = {}
    for cfg in sorted((tree / "src" / "sswm" / "scenarios").glob("*.cfg")):
        for prefix, fmt in (("sim", "csv"), ("json", "json")):
            name = f"{prefix}_{cfg.stem}"
            runs[name] = cli + ["simulate", "--scenario", cfg.stem, "--format", fmt,
                                "--out", name]
    for name, args in SWEEPS.items():
        runs[name] = cli + ["sweep", *args, "--out", name]
    for script in sorted((tree / "scripts").glob("*.py")):
        runs[script.stem] = [sys.executable, str(script), script.stem]
    runs["acceptance"] = cli + ["acceptance", "--out", "acceptance"]
    return runs


def build(tree: Path, out: Path) -> int:
    tree = tree.resolve()
    if not (tree / "src" / "sswm").is_dir():
        print(f"outputs: {tree} holds no src/sswm", file=sys.stderr)
        return 2
    if out.exists() and any(out.iterdir()):
        print(f"outputs: {out} exists and is not empty", file=sys.stderr)
        return 2
    logs = out / "logs"
    logs.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    runs = canonical_runs(tree)
    failed = 0
    for name, argv in runs.items():
        proc = subprocess.run(argv, cwd=out, env=env, capture_output=True)
        err = proc.stderr.replace(bytes(tree), b"<tree>")
        (logs / f"{name}.stdout").write_bytes(proc.stdout)
        (logs / f"{name}.stderr").write_bytes(err)
        (logs / f"{name}.exit").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
        if proc.returncode:
            failed += 1
            print(err.decode(errors="replace"), end="")
    print(f"built {out}: {len(runs)} runs, {failed} with a non-zero exit")
    return int(failed > 0)


def numeric_difference(a: bytes, b: bytes) -> tuple[int, float, float] | None:
    """(numbers that differ, max absolute and max relative difference) when
    `a` and `b` hold the same text around their numbers, else None."""
    ends = (0, 0)
    n = 0
    max_abs = max_rel = 0.0
    for ma, mb in itertools.zip_longest(NUMBER.finditer(a), NUMBER.finditer(b)):
        if ma is None or mb is None or a[ends[0]:ma.start()] != b[ends[1]:mb.start()]:
            return None
        ends = (ma.end(), mb.end())
        if ma.group() == mb.group():
            continue
        x, y = float(ma.group()), float(mb.group())
        n += 1
        diff = abs(x - y)
        if diff != diff:  # nan on one side only
            diff = float("inf")
        max_abs = max(max_abs, diff)
        scale = max(abs(x), abs(y))
        max_rel = max(max_rel, diff / scale if scale else 0.0)
    if a[ends[0]:] != b[ends[1]:]:
        return None
    return n, max_abs, max_rel


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    counts = {"identical": 0, "different": 0, "only in A": 0, "only in B": 0}
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            kind, note = "only in A", ""
        elif rel not in files_a:
            kind, note = "only in B", ""
        elif filecmp.cmp(a / rel, b / rel, shallow=False):
            kind, note = "identical", ""
        else:
            kind = "different"
            num = numeric_difference((a / rel).read_bytes(), (b / rel).read_bytes())
            note = ("  (text)" if num is None else
                    f"  ({num[0]} differing numbers, max abs diff {num[1]:.3g}, "
                    f"max rel diff {num[2]:.3g})")
        counts[kind] += 1
        print(f"{kind:<10} {rel}{note}")
    print(f"compare: {sum(counts.values())} files, "
          + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
    return int(counts["identical"] != sum(counts.values()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="run the canonical set of TREE into DIR")
    b.add_argument("tree", type=Path)
    b.add_argument("dir", type=Path)
    c = sub.add_parser("compare", help="compare two builds file by file")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "build":
        return build(args.tree, args.dir)
    return compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
