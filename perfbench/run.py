"""compapprox benchmark: one workload, timed to certified and verified artifacts.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 35 --trace 0

Every instance takes the path of ``compapprox run`` followed by
``compapprox verify``, in this one process: ``fixture_config`` or
``config_from_dict``, then ``run_experiment``, then ``verify_summary``. A pass
runs every instance of the workload once; passes repeat until ``--seconds``
would be exceeded. After each instance a fixed reference kernel samples the
machine's speed, and pass times are reported in its units (``ref``) as well
as in seconds. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed (see tracing.py). The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the line
before it, prefixed ``info``, holds the machine description, per-instance
outcomes and artifact digests. Exits non-zero without a result when the
source tree under ``src/`` is missing or a run raises.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import compapprox.harness.runner, compapprox.harness.fixtures; "
                 "print(time.perf_counter() - t)")
ARTIFACTS = ("trace.csv", "rates.csv", "summary.json")
REFERENCE_SHARE = 0.2            # kernel time per instance, share of its time
REFERENCE_MIN_CALLS = 10


def _load_package():
    if not (SRC / "compapprox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no compapprox source tree under {SRC}")
    sys.path.insert(0, str(SRC))


def load_instance(name, doc):
    """The config of one instance, loaded and validated as `compapprox run` would."""
    from compapprox.harness.config import config_from_dict
    from compapprox.harness.fixtures import fixture_config
    if doc is None:
        return fixture_config(name)
    return config_from_dict(doc, source=name)


def measure_setup(workload, seed):
    """Median over repeats of: package import (fresh interpreter) + inputs built and validated."""
    import workloads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        t0 = time.perf_counter()
        for name, doc in workloads.instances(workload, seed):
            load_instance(name, doc)
        samples.append(float(probe.stdout.strip()) + time.perf_counter() - t0)
    return statistics.median(samples)


_SMALL = np.linspace(0.0, 1.0, 8)
_MATRIX = np.random.default_rng(0).normal(size=(200, 200)) / 200 ** 0.5


def _python_kernel():
    """Scalar calls on small arrays, like the diagnostics' outer.value loops."""
    total = 0.0
    for i in range(1_000):
        total += float(np.sum(np.maximum(_SMALL * (i % 5) + 1.0, 2.0))) + (i * i) % 7
    return total


def _blas_kernel():
    """Clipped 200 x 200 matrix-vector products, like projected gradient at n = 200."""
    y = np.ones(200)
    for _ in range(400):
        y = np.clip(_MATRIX @ y, -1.0, 1.0)
    return y


# Reference kernels: fixed work, independent of compapprox, a few ms a call.
# A vCPU of a shared host can change speed by 20% and more within minutes
# (measured on a 2-vCPU VM), and every workload's time follows it. After each
# instance the workload's kernel runs for a fifth of that instance's time (at
# least 10 calls), so it samples the machine's speed in proportion to the
# work; a pass's time divided by the mean kernel call time of the same pass
# cancels the drift (see NOTES.md).
REFERENCE_KERNELS = {"python": _python_kernel, "blas": _blas_kernel}


def sample_reference(kernel, seconds):
    """(calls, time) of back-to-back kernel calls lasting at least ``seconds``."""
    calls, start = 0, time.perf_counter()
    while calls < REFERENCE_MIN_CALLS or time.perf_counter() - start < seconds:
        kernel()
        calls += 1
    return calls, time.perf_counter() - start


def check_instance(cfg, status, verify_status, outdir, fixture):
    """Correctness gate of one instance: (failed, incorrect, certified_rows, reasons).

    A run fails when its exit status is not 0, its summary is not complete,
    verify_summary rejects it, or a trace row exceeds delta*(1+factor)+1e-10.
    For a fixture every acceptance assertion must also pass. A failure is
    also incorrect unless it is nonconvergence reported as such (status 2)
    with every trace row it did record certified.
    """
    with open(outdir / f"{cfg.output}_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    factor = cfg.epca.get("subproblem_tolerance_factor", 0.1)
    with open(outdir / f"{cfg.output}_trace.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    over = [r["nu"] for r in rows
            if float(r["res_combined"]) > float(r["delta"]) * (1.0 + factor) + 1e-10]
    reasons = []
    if status != 0:
        reasons.append(f"exit status {status}")
    if summary["status"] != "complete":
        reasons.append(f"summary status {summary['status']!r}")
    if verify_status != 0:
        reasons.append(f"verify returned {verify_status}")
    if over:
        reasons.append(f"trace rows {over} exceed their certification bound")
    broken = [k for k, a in summary["assertions"].items() if not a["pass"]]
    if fixture and broken:
        reasons.append(f"acceptance assertions failing: {broken}")
    incorrect = bool(reasons) and (status != 2 or bool(over))
    return bool(reasons), incorrect, len(rows) - len(over), reasons


class Pass:
    """Outcome of running every instance of the workload once."""

    def __init__(self):
        self.wall_s = 0.0            # instances only: load, run, verify
        self.reference_calls = 0     # reference kernel, after every instance
        self.reference_s = 0.0
        self.elapsed_s = 0.0         # the whole pass, checks included
        self.certified_rows = 0
        self.failed = []
        self.incorrect = []
        self.digest = hashlib.sha256()


def run_pass(instances, outdir, kernel, tracer=None):
    from compapprox.harness import runner
    load, run, verify = load_instance, runner.run_experiment, runner.verify_summary

    def instance(name, doc):
        cfg = load(name, doc)
        status = run(cfg, output_dir=outdir)
        with contextlib.redirect_stdout(io.StringIO()) as log:
            verify_status = verify(outdir / f"{cfg.output}_summary.json")
        return cfg, status, verify_status, log.getvalue()

    if tracer is not None:
        load = tracer.wrap("config.load", load)
        run = tracer.wrap("runner.run", run)
        verify = tracer.wrap("runner.verify", verify)
        instance = tracer.wrap("bench.instance", instance)
    result = Pass()
    start = time.perf_counter()
    for name, doc in instances:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            cfg, status, verify_status, log = instance(name, doc)
            seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        calls, reference_s = sample_reference(kernel, REFERENCE_SHARE * seconds)
        result.wall_s += seconds
        result.reference_calls += calls
        result.reference_s += reference_s
        failed, incorrect, certified, reasons = check_instance(
            cfg, status, verify_status, outdir, fixture=doc is None)
        result.certified_rows += certified
        if failed:
            result.failed.append(name)
            print(f"perfbench: {name} failed: {'; '.join(reasons)}\n{log}",
                  file=sys.stderr, end="")
        if incorrect:
            result.incorrect.append(name)
        for suffix in ARTIFACTS:
            result.digest.update((outdir / f"{cfg.output}_{suffix}").read_bytes())
    result.elapsed_s = time.perf_counter() - start
    return result


def run_passes(instances, outdir, kernel, seconds, tracer=None):
    """Alternate untraced and (when tracing) traced passes while time remains.

    A new pass starts only while the last one would still fit in the time
    left; the first pass of each kind always runs.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    modes = [None] if tracer is None else [None, tracer]
    while True:
        for mode in modes:
            (untraced if mode is None else traced).append(
                run_pass(instances, outdir, kernel, mode))
        elapsed = time.perf_counter() - start
        last = sum(p[-1].elapsed_s for p in (untraced, traced) if p)
        if elapsed + last > seconds:
            return untraced, traced


def tail(values):
    """(value, label): the highest percentile with ten samples beyond it.

    Below 20 samples no percentile above the median has ten samples beyond
    it, so the tail is then the slowest sample, labelled p100.
    """
    n = len(values)
    if n >= 20:
        return sorted(values)[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}"
    return max(values), f"p100 of {n}"


def end_to_end_metrics(setup_s, passes, attempted, failed):
    """Metrics and info; pass times are in reference kernel calls (ref)."""
    walls = [p.wall_s for p in passes]
    refs = [p.wall_s * p.reference_calls / p.reference_s for p in passes]
    tail_value, tail_label = tail(refs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(refs), "ref"),
        "wall_ref.tail": (tail_value, "ref"),
        "certified_stages_per_ref": (statistics.median(
            p.certified_rows / r for p, r in zip(passes, refs)), "1/ref"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"tail": tail_label, "fail_frac": failed / attempted,
            "wall_s": statistics.median(walls), "wall_s.tail": tail(walls)[0],
            "certified_stages_per_s": statistics.median(
                p.certified_rows / p.wall_s for p in passes),
            "pass_wall_s": walls,
            "reference_call_s": [p.reference_s / p.reference_calls for p in passes]}
    return metrics, info


def per_layer_metrics(tracer, untraced, traced):
    n = len(traced)
    self_s = {k: v / n for k, v in tracer.self_s.items()}
    calls = {k: v / n for k, v in tracer.calls.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    m = {}
    for layer in ("uniform_outer_gap", "graph_excess", "estimate_eta", "epi_probe",
                  "transfer", "halton"):
        m[f"consistency.{layer}_s"] = (self_s.get(f"consistency.{layer}", 0.0), "s")
        m[f"consistency.{layer}_calls"] = (calls.get(f"consistency.{layer}", 0), "count")
    for span in ("outer.value", "outer.prox", "outer.grad", "outer.subdiff",
                 "inner.eval", "inner.jacobian", "model.residual", "model.eval_phi",
                 "geometry.project", "geometry.normal_cone"):
        m[f"{span}_s"] = (self_s.get(span, 0.0), "s")
        m[f"{span}_calls"] = (calls.get(span, 0), "count")
    m["epca.run_s"] = (tracer.total_s.get("epca.run", 0.0) / n, "s")
    m["epca.self_s"] = (self_s.get("epca.run", 0.0), "s")
    m["epca.inner_iters"] = (counts.get("epca.inner_iters", 0), "count")
    for branch in ("smooth", "splitting"):
        m[f"epca.subproblem_calls.{branch}"] = (calls.get(f"epca.subproblem.{branch}", 0),
                                                "count")
        m[f"epca.subproblem_s.{branch}"] = (self_s.get(f"epca.subproblem.{branch}", 0.0),
                                            "s")
        m[f"epca.subproblem_iters.{branch}"] = (
            counts.get(f"epca.subproblem_iters.{branch}", 0), "count")
    m["epca.subproblem_failed"] = (counts.get("epca.subproblem_failed", 0), "count")
    m["epca.run_failed"] = (counts.get("epca.run_failed", 0), "count")
    attempted = counts.get("epca.stages_attempted", 0)
    m["epca.certified_ratio"] = (
        counts.get("epca.stages_certified", 0) / attempted if attempted else 0.0, "ratio")
    m["runner.self_s"] = (self_s.get("runner.run", 0.0), "s")
    m["runner.verify_s"] = (self_s.get("runner.verify", 0.0), "s")
    m["config.load_s"] = (self_s.get("config.load", 0.0), "s")
    m["families.build_stages_s"] = (self_s.get("families.build_stages", 0.0), "s")
    m["bench.self_s"] = (self_s.get("bench.instance", 0.0), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m, sum(self_s.values()), statistics.fmean(p.wall_s for p in traced)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    _load_package()
    import scipy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(expected one of {workloads.WORKLOADS})")
    setup_s = measure_setup(args.workload, args.seed)
    instances = workloads.instances(args.workload, args.seed)
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    tracer = None
    if args.trace:
        from tracing import EXPECTED_SPANS, Tracer
        tracer = Tracer()
    kernel = REFERENCE_KERNELS[workloads.REFERENCE_KERNEL[args.workload]]
    untraced, traced = run_passes(instances, outdir, kernel, args.seconds, tracer)
    passes = untraced + traced
    attempted = len(instances) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    incorrect = sorted({name for p in passes for name in p.incorrect})
    digests = {p.digest.hexdigest() for p in passes}
    problems = [f"incorrect output: {name}" for name in incorrect]

    if tracer is None:
        metrics, extra = end_to_end_metrics(setup_s, passes, attempted, failed)
    else:
        metrics, self_sum, traced_wall = per_layer_metrics(tracer, untraced, traced)
        silent = [span for span, where in EXPECTED_SPANS.items()
                  if args.workload in where and not tracer.calls[span]]
        if silent:
            problems.append(f"spans that never fired: {silent}")
        slack = max(abs(metrics["trace.overhead_s"][0]), 1e-3 * traced_wall)
        if abs(self_sum - traced_wall) > slack:
            problems.append(f"self times sum to {self_sum:.6f} s, traced wall "
                            f"is {traced_wall:.6f} s")
        extra = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                 "self_time_sum_s": self_sum, "traced_pass_mean_s": traced_wall}
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)

    info = {
        "workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "instances": [name for name, _ in instances],
        "failed": sorted({name for p in passes for name in p.failed}),
        # sha256 over every instance's trace, rates and summary artifacts
        "artifact_sha256": sorted(digests), **extra,
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
