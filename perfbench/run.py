"""Pipeline benchmark for anisoeit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
check failures go to standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("cli-stock", "acceptance-l128")
ROOT = Path.cwd()
SRC = ROOT / "src"


def _environment():
    # Import the package from src/.  One caller, one BLAS/OpenMP thread:
    # the pipeline's BLAS calls are small, and a second pool thread only
    # adds jitter on a shared host.  Set before numpy loads; every child
    # process inherits both.
    n = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    return n


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "anisoeit" / "__init__.py").is_file() \
            or not (ROOT / "configs" / "a3.json").is_file():
        print(f"error: {ROOT} is not an anisoeit source checkout "
              f"(src/anisoeit and configs/ are missing)", file=sys.stderr)
        return 2
    threads = _environment()
    if argv[:1] == ["--child-trace"]:
        import spans
        return spans.child_main(argv[1:])

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    import workloads
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"BLAS/OpenMP threads {threads}", file=sys.stderr)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = workloads.run(args.workload, tmp, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass                       # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
