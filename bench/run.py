"""Run one voltlift benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports voltlift from ``src/`` of
the same checkout and refuses to run without it. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the inputs' hash, the
failed ops and the environment. The exit code is 0 only when every op
passed its check.

With ``--trace 0`` the run sets up the workload several times (``setup_s``
is the median), then repeats passes over the workload's ops until
``--seconds`` have elapsed; each end-to-end time is the sum, over the ops
of one kind, of each op's median run time, in reference seconds (each run
time scaled by a calibration probe run around it). With ``--trace 1`` the same passes
run first untraced for half the time, then with spans around the library's
public functions for the other half; it reports per-layer metrics and the
tracing overhead, and writes the spans to ``.bench_out/``. See README.md.
"""

import os
import sys

# Pin the BLAS thread pool before numpy loads it: one thread, at most nproc,
# keeps runs steady on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up repeats at least MIN_SETUPS times and until it has taken
# SETUP_SECONDS in total, so cheap set-ups still get a steady median.
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 2.0
# Within a pass, an op repeats until it has run MIN_OP_SECONDS (at most
# MAX_REPEATS times).
MIN_OP_SECONDS = 0.25
MAX_REPEATS = 10
# Reported times are in reference seconds: seconds on a machine where one
# probe() takes PROBE_REF_S (see README.md, "Why reference seconds").
PROBE_REF_S = 0.0035


def load_library():
    if not (SRC / "voltlift" / "__init__.py").is_file():
        sys.exit(f"bench: no voltlift sources at {SRC / 'voltlift'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import voltlift
    from voltlift import cli, groups, reps, spectra, voltage

    if Path(voltlift.__file__).resolve().parent != (SRC / "voltlift").resolve():
        sys.exit(f"bench: imported voltlift from {voltlift.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        package=voltlift, groups=groups, reps=reps, voltage=voltage, spectra=spectra, cli=cli
    )


def blas_threads(np):
    """The thread count the loaded OpenBLAS reports, or None."""
    libdirs = [Path(np.__file__).parent.parent / d for d in ("numpy.libs", "scipy_openblas64", "scipy_openblas32")]
    for libdir in libdirs:
        for path in glob.glob(str(libdir / "**" / "*openblas*.so*"), recursive=True):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    return None


def environment(np):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def warm_up(np):
    """First-call BLAS/LAPACK start-up, outside every timed region."""
    m = np.random.default_rng(0).standard_normal((96, 96))
    np.linalg.eig(m)
    np.linalg.eig(m.astype(complex))
    np.linalg.norm(m, 2)
    np.linalg.cond(m)


def run_setups(setup, lib, seed, workdir, probe, count=None):
    """Set up ``count`` times, or per MIN_SETUPS/SETUP_SECONDS. Returns the
    last state, each set-up's time in reference seconds, and the input
    hashes seen."""
    times, digests = [], set()
    while True:
        before = probe()
        t0 = time.perf_counter()
        state = setup(lib, seed, workdir)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * PROBE_REF_S * 2 / (before + probe()))
        digests.add(state.inputs_sha256)
        if count is not None:
            if len(times) >= count:
                break
        elif len(times) >= MIN_SETUPS and (sum(times) >= SETUP_SECONDS or len(times) >= MAX_SETUPS):
            break
    return state, times, digests


def make_probe(np):
    """A fixed calibration task: a Python integer loop and a small LAPACK
    eigensolve, about 3.5 ms on the reference machine."""
    m = np.random.default_rng(0).standard_normal((48, 48))

    def probe():
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        np.linalg.eigvals(m)
        return time.perf_counter() - t0

    return probe


def run_pass(ops, failures, probe, tracer=None, repeat=True):
    """Run every op; with ``repeat``, an op shorter than MIN_OP_SECONDS runs
    again until its runs in this pass add up to that (at most MAX_REPEATS
    runs), so cheap ops get as many samples as expensive ones need.

    Each run of an op is bracketed by two probes. Returns (per op name, a
    list of (run time, mean probe time) pairs; wall time of the pass; runs
    attempted). An op that raises or fails its check adds its reason to
    ``failures`` and no time.
    """
    per_op = {}
    attempted = 0
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        samples = []
        while not samples or (
            repeat and sum(t for t, _ in samples) < MIN_OP_SECONDS and len(samples) < MAX_REPEATS
        ):
            attempted += 1
            before = probe()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
                break
            elapsed = time.perf_counter() - t0
            after = probe()
            try:
                op.check(out)
            except Exception as exc:
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                break
            samples.append((elapsed, (before + after) / 2))
        if samples:
            per_op[op.name] = samples
    return per_op, time.perf_counter() - start, attempted


def run_passes(ops, seconds, failures, probe, tracer=None, repeat=True):
    """Passes over ``ops`` until ``seconds`` have elapsed (at least one)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_pass(ops, failures, probe, tracer, repeat))
    return results


def kind_times(ops, kinds, passes):
    """Per kind of op, the sum over its ops of each op's median run time in
    reference seconds: run time * PROBE_REF_S / the probe time around it."""
    totals = dict.fromkeys(kinds, 0.0)
    for op in ops:
        samples = [t * PROBE_REF_S / c for p in passes for t, c in p[0].get(op.name, ())]
        if samples:
            totals[op.kind] += statistics.median(samples)
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    import numpy as np

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    kinds = workloads.KINDS
    warm_up(np)
    probe = make_probe(np)
    failures = []
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as workdir:
        if not args.trace:
            state, setup_times, digests = run_setups(setup, lib, args.seed, workdir, probe)
            passes = run_passes(state.ops, args.seconds, failures, probe)
            metrics = {"setup_s": (statistics.median(setup_times), "s")}
            for kind, total in kind_times(state.ops, kinds, passes).items():
                metrics[f"{kind}_s"] = (total, "s")
            metrics["peak_rss_mb"] = (tracing.peak_rss_mb(), "MB")
            record["setups"] = len(setup_times)
        else:
            state, _, digests = run_setups(setup, lib, args.seed, workdir, probe, count=1)
            plain = run_passes(state.ops, args.seconds / 2, failures, probe, repeat=False)
            tracer = tracing.Tracer(lib)
            tracer.install()
            try:
                tracer.enabled = True
                tracer.op = "setup"
                state, _, more = run_setups(setup, lib, args.seed, workdir, probe, count=1)
                digests |= more
                traced = run_passes(state.ops, args.seconds / 2, failures, probe, tracer, repeat=False)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            passes = plain + traced
            metrics = tracer.metrics(len(traced))
            overhead = sum(kind_times(state.ops, kinds, traced).values()) / sum(
                kind_times(state.ops, kinds, plain).values()) - 1
            metrics["trace.overhead_frac"] = (overhead, "1")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            record["spans"] = str(spans_path.relative_to(ROOT))
    if len(digests) != 1:
        failures.append(f"set-up: inputs differ between set-ups of one seed: {sorted(digests)}")
    attempted = sum(p[2] for p in passes)
    record.update(
        inputs_sha256=sorted(digests)[0],
        passes=len(passes),
        op_times={op.name: [t for p in passes for t, _ in p[0].get(op.name, ())] for op in state.ops},
        probe_times={op.name: [c for p in passes for _, c in p[0].get(op.name, ())] for op in state.ops},
        failed_ops=failures,
        env=environment(np),
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
