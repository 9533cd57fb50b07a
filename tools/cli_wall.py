"""Time whole `python -m polaronlab` processes at a git revision and in the working tree.

Usage: python tools/cli_wall.py --against REV [--pairs N] -- SUBCOMMAND [ARGS...]
       (default N: 5)

REV's src/ is extracted with git archive into a temporary directory; the
working tree's side runs the repository's src/.  Each pair runs the same
command once on each side, in a fresh process with PYTHONPATH set to that
side's src/ and its own new --out directory (the tool appends --out, so
ARGS should not give one); which side runs first alternates from pair to
pair.  The wall time of a run is that of the whole process, start-up
included.  Printed per side: the median and the quartiles of the wall
times, the pairs it won (the faster run of a pair wins), the median
peak RSS of its processes in MiB and their median count of minor page
faults, each read from that process's own rusage; then one line per side
with the exit statuses of its runs, and `equal` or `DIFFER`; then one line
per output file and side with the sha256 of that file, and `equal` or
`DIFFER` for the two sides.  A status or a hash that changes between the
runs of one side counts as differing, so a run whose gate fails (exit 1)
compares like any other.  Exit status 1 when the exit statuses differ, or
at once, with that run's stderr, when a run dies by a signal.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _extract_src(rev: str, dest: Path) -> Path:
    """REV's src/ extracted into dest by git archive; returns dest/src."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                         check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest / "src"


def _hashes(out: Path) -> dict:
    """{path relative to out: sha256 hex} of every file under out."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _run(src: Path, command: list, out: Path) -> tuple:
    """Wall seconds, peak RSS in MiB, minor page faults and exit status of
    one `python -m polaronlab COMMAND --out OUT` process on the package in
    src; RuntimeError with its stderr if a signal ends it.  The RSS and the
    faults are the child's own, from os.wait4 on its pid: RUSAGE_CHILDREN
    keeps only the largest RSS over all children so far."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "polaronlab", *command, "--out", str(out)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        stderr = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise RuntimeError(f"signal {-proc.returncode} ended a run on {src}:\n{stderr}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt, proc.returncode  # RSS in KiB


def _quartiles(walls: list) -> list:
    """[q1, median, q3] of the wall times."""
    if len(walls) == 1:
        return walls * 3
    return statistics.quantiles(walls, n=4, method="inclusive")


def main(argv) -> int:
    if "--" not in argv:
        print("usage: cli_wall.py --against REV [--pairs N] -- SUBCOMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="Time whole CLI processes at REV and here.")
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv[1:split])
    command = argv[split + 1:]
    if args.pairs < 1 or not command:
        parser.error("need --pairs >= 1 and a subcommand after --")
    sides = (args.against, "working tree")
    walls = {side: [] for side in sides}
    rss = {side: [] for side in sides}
    minflt = {side: [] for side in sides}
    statuses = {side: set() for side in sides}
    hashes = {side: {} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        srcs = {args.against: _extract_src(args.against, tmp), "working tree": ROOT / "src"}
        for i in range(args.pairs):
            for j, side in enumerate(sides[::1 if i % 2 == 0 else -1]):
                out = tmp / "out" / f"{i}-{j}"
                try:
                    wall, peak, faults, status = _run(srcs[side], command, out)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                walls[side].append(wall)
                rss[side].append(peak)
                minflt[side].append(faults)
                statuses[side].add(status)
                for name, digest in _hashes(out).items():
                    hashes[side].setdefault(name, set()).add(digest)
    wins = {side: sum(a < b for a, b in zip(walls[side], walls[other]))
            for side, other in (sides, sides[::-1])}
    print(f"{'side':<16}{'median':>9}{'q1':>9}{'q3':>9}{'wins':>6}{'rss_mib':>9}{'minflt':>9}")
    for side in sides:
        q1, median, q3 = _quartiles(walls[side])
        print(f"{side:<16}{median:>9.3f}{q1:>9.3f}{q3:>9.3f}{wins[side]:>6}"
              f"{statistics.median(rss[side]):>9.1f}{statistics.median(minflt[side]):>9.0f}")
    for side in sides:
        print(f"exit {side}: {' '.join(map(str, sorted(statuses[side])))}")
    same_exit = len(statuses[sides[0]]) == 1 and statuses[sides[0]] == statuses[sides[1]]
    print(f"exit {'equal' if same_exit else 'DIFFER'}")
    for name in sorted(hashes[sides[0]].keys() | hashes[sides[1]].keys()):
        found = [hashes[side].get(name, set()) for side in sides]
        verdict = "equal" if len(found[0]) == 1 and found[0] == found[1] else "DIFFER"
        for side, digests in zip(sides, found):
            print(f"sha256 {name} {side}: {' '.join(sorted(digests)) or 'missing'}")
        print(f"sha256 {name} {verdict}")
    return 0 if same_exit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
