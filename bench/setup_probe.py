"""Set-up probe, run in a fresh interpreter by run.py.

Times ``import hyperinc.cli`` plus one warm-up call of each op kind given on
the command line, and prints the seconds, the same time calibrated against
the reference computation (run afterwards, so that the import finds no
module preloaded), and the warm-up exit codes as JSON.

    python3 setup_probe.py SRC_DIR '[["rank", "dense0.txt", "--json"], ...]'
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    src, calls = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import hyperinc.cli

    codes = []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(hyperinc.cli.main(argv))
    seconds = time.perf_counter() - start

    from calibration import REFERENCE_S, reference_seconds

    reference = sorted(reference_seconds() for _ in range(3))[1]  # median
    print(json.dumps({
        "seconds": seconds,
        "calibrated": seconds * REFERENCE_S / reference,
        "codes": codes,
        "module": hyperinc.cli.__file__,
    }))


if __name__ == "__main__":
    main()
