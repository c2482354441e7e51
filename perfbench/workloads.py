"""The workloads, each a closed loop with one caller.

A run sets up several times, reporting the median, then repeats whole
rounds of the same operations while the next round is expected to end
within ``seconds``, so the share of failed operations is the same in
every run.  The seed shuffles the order of operations in each round and
is written into the configs; the numbers the program computes do not
depend on it (noise stays 0).
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT = 150
SETUPS = 5              # set-ups per run

# phantoms as this benchmark defines them: contrast M and background A0
PHANTOMS = {"A1": (1.3, [[1.0, 0.0], [0.0, 1.3]]),
            "A2": (1.3, [[1.3, 0.0], [0.0, 1.0]]),
            "A3": (4.0, [[1.0, 0.0], [0.0, 4.0]]),
            "A4": (4.0, [[4.0, 0.0], [0.0, 1.0]])}
# criterion 7: L=128, h=0.012, z=2.5e-4, coverage 0.5, lattice 33, grid 61
C7_RADII = {"A1": (1.8, 2.0), "A2": (1.8, 2.0),
            "A3": (2.0, 2.3), "A4": (2.0, 2.3)}
# the one operation kept although it fails: A4's x-axis background at
# R=2.3 is 2.14, outside the band (documented fault of the program)
KNOWN_FAULT = ("A4", 2.3, "background band")
# cli-stock: the stock configs
STOCK = ("a1", "a3", "identity")


class ChildError(RuntimeError):
    pass


class Run:
    """Operation counts, check failures and timings of one run."""

    def __init__(self, trace):
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # operation kind -> input -> seconds
        self.times = defaultdict(lambda: defaultdict(list))
        self.round_s = []                   # timed seconds per round
        self.round_bytes = []
        self.setup_s = []
        self.import_s = []
        self.l2 = []
        self.recons = 0
        self.layers = []                    # per-round per-layer figures
        self._round = 0.0

    def op(self, kind, key, fn, check, known_fault=False):
        """Time one operation, then run its checks outside the timing.

        ``key`` names the operation's input; ``fn`` returns the result;
        ``check(result)`` returns a list of problems.  Any problem makes
        the operation failed; with ``known_fault`` a failure made up only
        of the named fault's check leaves the run correct.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except (ChildError, RuntimeError, ValueError, OSError,
                np.linalg.LinAlgError, subprocess.SubprocessError) as exc:
            self.failed += 1
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            raise
        dt = time.perf_counter() - t0
        self.times[kind][key].append(dt)
        self._round += dt
        try:
            problems = check(out)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if not (known_fault and all(p.startswith(KNOWN_FAULT[2])
                                        for p in problems)):
                self.problems += [f"{kind}: {p}" for p in problems]
        return out

    def flag(self, problems):
        self.problems += problems

    def rounds(self, seconds, do_round, tracer=None):
        """Whole rounds, at least one, while the next is expected to end
        within ``seconds`` of wall time."""
        start = time.perf_counter()
        while True:
            lap = time.perf_counter()
            self._round = 0.0
            mark, counts = (tracer.mark(), Counter(tracer.counts)) \
                if tracer else (0, None)
            do_round(len(self.round_s))
            self.round_s.append(self._round)
            if tracer:
                fig = dict(tracer.self_times(mark))
                fig.update(tracer.counts - counts)
                fig["spans"] = tracer.mark() - mark
                self.layers.append(fig)
            now = time.perf_counter()
            if self.problems or now + (now - lap) - start > seconds:
                return


def child(argv, timeout=CHILD_TIMEOUT):
    """Run ``python argv`` from the checkout root; wall seconds, stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *map(str, argv)], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildError(f"{' '.join(map(str, argv[:3]))} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return dt, proc.stdout


def import_probe():
    """Wall time of a fresh interpreter importing the package, and the
    import time measured inside it."""
    wall, out = child(["-c", "import time; t = time.perf_counter(); "
                             "import anisoeit; "
                             "print(time.perf_counter() - t)"])
    return wall, float(out)


def cli(run, tmp, argv, layer):
    """One CLI command in its own process; traced runs drive
    ``anisoeit.cli.main`` in that process under the span recorder."""
    if not run.trace:
        return child(["-m", "anisoeit.cli", *argv])[0]
    rec = tmp / "child-trace.json"
    wall = child([HERE / "run.py", "--child-trace", rec, *argv])[0]
    doc = json.loads(rec.read_text())
    run.import_s.append(doc["import_s"])
    layer.update(doc["self"])
    layer.update(doc["counts"])
    layer["spans"] += doc["spans"]
    return wall


def stock_config(name, outdir, seed, path):
    """A stock config with its outdir moved under the run's directory."""
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["outdir"] = str(outdir)
    doc["seed"] = seed
    path.write_text(json.dumps(doc, indent=2))
    phantom = doc["phantom"]
    if isinstance(phantom, str):
        M, A0 = PHANTOMS[phantom]
    else:
        M, A0 = phantom["M"], phantom["A0"]
    return doc, float(M), np.array(A0, dtype=float)


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def recon_checks(run, out, tag, M, j1_ref=False):
    """Check one written reconstruction; returns (problems, figures)."""
    problems, fig, a, axis = checks.check_recon_files(
        out / f"recon_R{tag}.json", out / f"fhat_R{tag}.json", M,
        j1_ref=j1_ref)
    run.l2.append(fig["l2_rel"])
    run.recons += 1
    return problems, fig, a, axis


# ---------------------------------------------------------------------------
# cli-stock


def cli_stock(run, tmp, seed, seconds):
    rng = random.Random(seed)
    for i in range(SETUPS):
        t0 = time.perf_counter()
        d = tmp / f"setup{i}"
        d.mkdir()
        cfgs = {n: (d / f"{n}.json",
                    *stock_config(n, tmp / f"out_{n}", seed, d / f"{n}.json"))
                for n in STOCK}
        run.import_s.append(import_probe()[1])
        run.setup_s.append(time.perf_counter() - t0)

    def one_config(name, layer):
        path, doc, M, A0 = cfgs[name]
        out = Path(doc["outdir"])
        isotropic = M == 1.0 and np.array_equal(A0, np.eye(2))
        cmd = lambda *argv: lambda: cli(run, tmp, [*argv, "--config", path],
                                        layer)

        def check_simulate(_):
            dn = checks.read_dn(out / "dn.json")
            return checks.check_dn(dn) + (checks.check_disk_eigenvalues(
                dn, doc["L"]) if isotropic else [])

        run.op("simulate", name, cmd("simulate"), check_simulate)
        run.op("map", name, cmd("map"),
               lambda _: checks.check_map_file(out / "map.bin", A0))
        slopes, grids = {}, {}

        def check_recons(_):
            problems = []
            for R in doc["truncation_radii"]:
                p, fig, a, axis = recon_checks(run, out, "%g" % R, M,
                                               j1_ref=isotropic)
                problems += [f"R={R}: {x}" for x in p]
                slopes[R], grids[R] = fig["slope"], (a, axis)
            return problems + checks.check_slopes(slopes)

        run.op("reconstruct", name, cmd("reconstruct"), check_recons)
        for R in doc["truncation_radii"]:
            tag = "%g" % R
            run.op("evaluate", (name, R),
                   cmd("evaluate", "--recon", out / f"recon_R{tag}.json"),
                   lambda _: checks.check_evaluate(json.loads(
                       (out / f"metrics_recon_R{tag}.json").read_text()),
                       *grids[R], M))

    def do_round(_):
        layer = Counter()
        order = list(STOCK)
        rng.shuffle(order)
        for name in order:
            one_config(name, layer)
        run.round_bytes.append(sum(dir_bytes(tmp / f"out_{n}")
                                   for n in order))
        for n in order:
            shutil.rmtree(tmp / f"out_{n}")
        if run.trace:
            run.layers.append(dict(layer))

    run.rounds(seconds, do_round)


# ---------------------------------------------------------------------------
# acceptance-l128


def acceptance(run, tmp, seed, seconds):
    rng = random.Random(seed)
    for _ in range(SETUPS):
        wall, imp = import_probe()
        run.setup_s.append(wall)
        run.import_s.append(imp)
    import anisoeit as A
    tracer = _tracer(run)

    def do_round(r):
        out = tmp / f"round{r}"
        out.mkdir()

        def build():
            layout = A.place_electrodes(128, 0.5, 2.5e-4)
            return A.build_disk_mesh(1.0, 0.012, layout), layout

        mesh, layout = run.op(
            "mesh", None, build, lambda ml: checks.check_mesh(
                ml[0].nodes, ml[0].triangles, ml[0].boundary_nodes))
        names = list(PHANTOMS)
        rng.shuffle(names)
        for name in names:
            M, A0 = PHANTOMS[name]
            A0 = np.array(A0)
            ph = A.phantom_by_name(name)
            run.flag([f"{name}: {p}" for p in _check_phantom(ph, M, A0)])
            dn = run.op("simulate", name, lambda: A.dn_matrix(
                A.simulate_voltages(mesh, ph.tensor, layout)),
                lambda dn: checks.check_dn(dn.dn))
            qc = run.op("map", name,
                        lambda: A.solve_beltrami(A.extend_mu(ph.A0)),
                        lambda qc: checks.check_affine_map(
                            qc.phi, qc.mu.n, qc.mu.s, A0))
            slopes = {}
            for R in C7_RADII[name]:
                tag = f"{name}_R{R:g}"

                def reconstruct():
                    f = A.reconstruct_field(dn, qc, ph.A0, R=R, lattice=33,
                                            grid=61)
                    A.save_field(f, out / f"recon_R{tag}.json",
                                 out / f"recon_R{tag}.bin")
                    A.save_fhat(f.fhat, out / f"fhat_R{tag}.json",
                                out / f"fhat_R{tag}.bin")

                def check(_):
                    p, fig, _a, _axis = recon_checks(run, out, tag, M)
                    slopes[R] = fig["slope"]
                    return p

                run.op("reconstruct", (name, R), reconstruct, check,
                       known_fault=(name, R) == KNOWN_FAULT[:2])
            run.flag([f"{name}: {p}" for p in checks.check_slopes(slopes)])
        run.round_bytes.append(dir_bytes(out))
        shutil.rmtree(out)

    run.rounds(seconds, do_round, tracer)


def _check_phantom(ph, M, A0):
    """The program's phantom against the definition in this benchmark."""
    t = np.linspace(-1.0, 1.0, 41)
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    problems = []
    if not np.array_equal(ph.true_scalar(pts), checks.truth(pts, M)):
        problems.append("phantom multiplier differs from M inside |x| < 0.5")
    if not np.allclose(ph.A0, A0, rtol=0, atol=1e-15):
        problems.append(f"phantom background {ph.A0.tolist()} != "
                        f"{A0.tolist()}")
    return problems


def _tracer(run):
    if not run.trace:
        return None
    tracer = spans.Tracer()
    tracer.install()
    return tracer


# ---------------------------------------------------------------------------


WORKLOADS = {"cli-stock": cli_stock, "acceptance-l128": acceptance}


def _median(xs):
    return float(statistics.median(xs))


def _per_input(by_key):
    """Mean over the inputs of each input's median time: the inputs of a
    kind differ in cost, and a median across them would sit in the gap."""
    return statistics.fmean(_median(ts) for ts in by_key.values())


def run(workload, tmp, seed, seconds, trace):
    seed = seed % 2 ** 31
    r = Run(trace)
    try:
        WORKLOADS[workload](r, tmp, seed, seconds)
    except (ChildError, RuntimeError, ValueError, OSError,
            np.linalg.LinAlgError, subprocess.TimeoutExpired) as exc:
        if not r.problems:
            r.problems.append(f"{type(exc).__name__}: {exc}")
    for p in r.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{len(r.round_s)} rounds, {r.attempted} operations, "
          f"{r.failed} failed; seconds per round "
          f"{' '.join('%.3f' % t for t in r.round_s)}", file=sys.stderr)
    for kind, by_key in r.times.items():
        for key, ts in by_key.items():
            print(f"  {kind} {key}: {' '.join('%.3f' % t for t in ts)}",
                  file=sys.stderr)
    result = {"correct": not r.problems, "attempted": r.attempted,
              "failed": r.failed}
    if not r.round_s or not r.times.get("reconstruct"):
        result["metrics"] = {}
        return result
    run_s = _median(r.round_s)
    if trace:
        fig = {k: _median([lay.get(k, 0) for lay in r.layers])
               for k in set().union(*r.layers)}
        print(f"traced run_s {run_s:.4f} s, {fig['spans']:.0f} spans per "
              f"round", file=sys.stderr)
        m = {k: (fig.get(k, 0.0), "s") for k in spans.SELF_TIME}
        m.update({k: (fig.get(k, 0), "count") for k in spans.COUNTS})
        m["beltrami.map_mb"] = (fig.get("beltrami.map_bytes", 0) / 1e6, "MB")
        m["cli.import_s"] = (_median(r.import_s), "s")
    else:
        usage = resource.RUSAGE_CHILDREN if workload == "cli-stock" \
            else resource.RUSAGE_SELF
        m = {"setup_s": (_median(r.setup_s), "s"),
             "run_s": (run_s, "s"),
             "simulate_s": (_per_input(r.times["simulate"]), "s"),
             "map_s": (_per_input(r.times["map"]), "s"),
             "reconstruct_s": (_per_input(r.times["reconstruct"]), "s"),
             "recon_per_s": (r.recons / sum(r.round_s), "1/s"),
             "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024,
                             "MB"),
             "output_mb": (_median(r.round_bytes) / 1e6, "MB"),
             "l2_rel": (_median(r.l2), "ratio")}
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in m.items()}
    return result
