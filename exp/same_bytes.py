"""Check that fedpart writes the same bytes as another revision.

Usage (from the repository root):

    python3 exp/same_bytes.py [REV]

``REV`` (default ``HEAD~1``) is checked out with ``git worktree add
--detach`` into a temporary directory. ``COMMANDS`` runs in that tree and in
this one, each child with ``PYTHONPATH`` at its tree's ``src`` and one BLAS
thread; a command line with ``{seed}`` runs at each of ``SEEDS``, and
``{inputs}`` names a directory holding the config files of ``INPUTS``. Every
output file is compared byte for byte, except the ``output_dir`` line of
``manifest.ini``, as are standard output (with the output path replaced)
and standard error. The script prints ``identical: N files from K command
lines`` and exits 0, or prints each difference with its first differing
line and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (5, 11, 23)
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Groups of command lines, run in order in one directory ``{dir}``; later
# lines may read what earlier ones wrote.
BENCH = ["--workers", "1", "--proportion-slow", "0.0", "--max-delay-slow", "0.0",
         "--seed", "{seed}", "--runs", "1"]
STRAGGLERS = ["--mode", "async", "--freq-updates", "300", "--proportion-slow", "0.34",
              "--max-delay-slow", "0.5", "--seed", "{seed}", "--runs", "1", "--agents", "3"]
ASYNC = ["train", *STRAGGLERS, "--steps-per-agent", "600"]
MULTI = ["--mode", "sync", "--agents", "2", "--steps-per-agent", "1000", "--freq-updates", "500",
         "--seed", "{seed}"]
BASELINE = ["--seed", "{seed}", "--runs", "1", "--agents", "3", "--steps-per-agent", "2000",
            "--output", "{dir}"]
# A replay buffer that wraps three times, and async stragglers whose phases
# of 300-450 steps append to the step logs across the 1000-step window of
# ``ma_violations``.
INPUTS = {"wrap.ini": "[agent]\nbuffer_capacity = 600\nbatch_size = 64\n"}
WRAP = ["train", "--config", "{inputs}/wrap.ini", *STRAGGLERS, "--steps-per-agent", "1800"]
COMMANDS = {
    "single-long": [["train", "--mode", "single", "--freq-updates", "3000", *BENCH,
                     "--agents", "1", "--steps-per-agent", "3000", "--output", "{dir}"]],
    "fed-sync": [["train", "--mode", "sync", "--freq-updates", "500", *BENCH,
                  "--agents", "10", "--steps-per-agent", "1000", "--output", "{dir}"]],
    "async-identity": [[*ASYNC, "--workers", "1", "--output", "{dir}/w1"],
                       [*ASYNC, "--workers", "2", "--output", "{dir}/w2"]],
    "replay-wrap": [[*WRAP, "--workers", "1", "--output", "{dir}/w1"],
                    [*WRAP, "--workers", "2", "--output", "{dir}/w2"]],
    "baseline": [["baseline", "--objective", "latency", *BASELINE],
                 ["baseline", "--objective", "energy", *BASELINE]],
    "zero-step": [["train", "--mode", "single", "--seed", "{seed}", "--runs", "1",
                   "--steps-per-agent", "0", "--output", "{dir}"]],
    "train-report-transfer": [
        ["train", *MULTI, "--runs", "4", "--output", "{dir}/train"],
        ["report", "{dir}/train", "--out", "{dir}/report_band.csv"],
        ["transfer", *MULTI, "--runs", "1", "--checkpoint",
         "{dir}/train/run_{seed}/final_weights.ckpt", "--output", "{dir}/transfer"],
    ],
    "synth": [["traces", "synth", "--wifi-out", "{dir}/wifi.trace",
               "--fiveg-out", "{dir}/fiveg.trace"],
              ["profile", "synth", "--out", "{dir}/default.profile"],
              ["enumerate", "--cuts", "12"]],
}


@contextlib.contextmanager
def worktree(rev: str):
    """A detached checkout of ``rev`` in a temporary directory, removed on exit."""
    parent = Path(tempfile.mkdtemp(prefix="same_bytes_"))
    path = parent / "tree"
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(path), rev],
                   cwd=ROOT, check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT, check=True)
        shutil.rmtree(parent, ignore_errors=True)


def command_lines(commands: dict, seeds) -> list[tuple[str, list[list[str]]]]:
    """Each group's directory name and its command lines, once per seed when
    they name one."""
    out = []
    for name, group in commands.items():
        seeded = any("{seed}" in arg for argv in group for arg in argv)
        for seed in seeds if seeded else (None,):
            label = f"{name}-{seed}" if seeded else name
            out.append((label, [[arg.replace("{seed}", str(seed)) for arg in argv]
                                for argv in group]))
    return out


def start(tree: Path, argv: list[str], workdir: Path, inputs: Path) -> subprocess.Popen:
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(tree / "src")}
    argv = [arg.replace("{dir}", str(workdir)).replace("{inputs}", str(inputs)) for arg in argv]
    return subprocess.Popen([sys.executable, "-m", "fedpart.cli", *argv], env=env, cwd=workdir,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def first_difference(a: bytes, b: bytes) -> str:
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for lineno, (x, y) in enumerate(zip(a_lines, b_lines), start=1):
        if x != y:
            return f"line {lineno}: {x[:100]!r} != {y[:100]!r}"
    n = min(len(a_lines), len(b_lines)) + 1
    return f"line {n}: one side ends at line {n - 1}"


def comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "manifest.ini":
        lines = data.split(b"\n")
        data = b"\n".join(line for line in lines if not line.startswith(b"output_dir = "))
    return data


def compare(tree_a: Path, tree_b: Path, work: Path, commands=COMMANDS, seeds=SEEDS):
    """Run ``commands`` in both trees under ``work``, the two trees' lines side
    by side; return the number of files compared, the number of command lines
    and one line per difference."""
    files, lines, diffs = 0, 0, []
    inputs = work / "inputs"
    inputs.mkdir()
    for name, text in INPUTS.items():
        (inputs / name).write_text(text, encoding="utf-8")
    for label, group in command_lines(commands, seeds):
        dirs = (work / "a" / label, work / "b" / label)
        for d in dirs:
            d.mkdir(parents=True)
        for argv in group:
            lines += 1
            procs = [start(tree, argv, d, inputs) for tree, d in zip((tree_a, tree_b), dirs)]
            (out_a, err_a), (out_b, err_b) = (p.communicate() for p in procs)
            shown = " ".join(argv)
            for stream, x, y in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                x, y = x.replace(str(dirs[0]), "<dir>"), y.replace(str(dirs[1]), "<dir>")
                if x != y:
                    diffs.append(f"{label}: {stream} of `{shown}`: "
                                 + first_difference(x.encode(), y.encode()))
            if procs[0].returncode or procs[1].returncode:
                diffs.append(f"{label}: `{shown}` exited {procs[0].returncode} and "
                             f"{procs[1].returncode}: {(err_a or err_b).strip()[-300:]}")
        found = [{p.relative_to(d): p for p in d.rglob("*") if p.is_file()} for d in dirs]
        for rel in sorted(found[0].keys() | found[1].keys()):
            if rel not in found[0] or rel not in found[1]:
                side = "first" if rel in found[0] else "second"
                diffs.append(f"{label}/{rel}: only in the {side} tree")
                continue
            files += 1
            a, b = comparable(found[0][rel]), comparable(found[1][rel])
            if a != b:
                diffs.append(f"{label}/{rel}: {first_difference(a, b)}")
    return files, lines, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD~1", help="revision to compare against")
    args = parser.parse_args(argv)
    with worktree(args.rev) as other, tempfile.TemporaryDirectory(prefix="same_bytes_") as work:
        files, lines, diffs = compare(ROOT, other, Path(work))
    if diffs:
        print(f"differ from {args.rev}: {len(diffs)} differences among {files} files "
              f"from {lines} command lines")
        for line in diffs:
            print(line)
        return 1
    print(f"identical: {files} files from {lines} command lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
