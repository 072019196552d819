"""Print the self time of each module that ``import hyperinc.cli`` loads.

Each run starts a fresh ``python -S -X importtime`` that imports
``hyperinc.cli``, with ``PYTHONPATH`` set to this checkout's ``src`` and
``PYTHONDONTWRITEBYTECODE=1``, so that no cached bytecode is written and,
with none there, the package's own source is compiled on every run.  With
``--argv`` it then runs ``hyperinc.cli.main`` on those arguments (output
discarded), so the modules a command imports on first use are profiled
too.  It prints each module's self time in milliseconds (the median over
the runs), slowest first, then the total and the share of ``hyperinc``
modules:

    python tests/import_profile.py
    python tests/import_profile.py --runs 9 --top 15
    python tests/import_profile.py --argv "spectra tests/golden/cycle_12_8.txt"

Standard library only; pytest does not collect this file.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


# the command's arguments follow the code; with none, main is not called
CHILD = "import sys, hyperinc.cli\nif sys.argv[1:]:\n    hyperinc.cli.main(sys.argv[1:])"


def self_times(argv: list[str]) -> dict[str, int]:
    """Microseconds of self time per module, from one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", CHILD, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    out = {}
    for line in proc.stderr.splitlines():
        # import time: self [us] | cumulative | imported package
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            out[fields[2].strip()] = int(fields[0])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh interpreters; the median is printed")
    parser.add_argument("--top", type=int, default=0, help="print only the slowest N modules")
    parser.add_argument("--argv", default="", help="hyperinc arguments to run after the import, quoted as one")
    args = parser.parse_args()
    argv = shlex.split(args.argv)
    runs = [self_times(argv) for _ in range(max(1, args.runs))]
    median = {name: statistics.median(run.get(name, 0) for run in runs) for name in runs[0]}
    ranked = sorted(median.items(), key=lambda kv: -kv[1])
    for name, us in ranked[: args.top or None]:
        print(f"{us / 1000:8.2f} ms  {name}")
    total = sum(median.values())
    own = sum(us for name, us in median.items() if name.partition(".")[0] == "hyperinc")
    print(f"{total / 1000:8.2f} ms  total over {len(median)} modules ({args.runs} runs)")
    print(f"{own / 1000:8.2f} ms  in hyperinc's own modules")


if __name__ == "__main__":
    main()
