#!/usr/bin/env python3
"""The dimerfield benchmark: one workload, timed, checked, one JSON result.

    python3 bench/run.py --workload phase --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run instead.  Full records and span files go to ``.bench_out/``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# single-threaded numerics: pin every BLAS/OpenMP pool before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
CLI_PROBES = 3
CHILD_TIMEOUT = 60

if not (SRC / "dimerfield" / "__init__.py").is_file():
    sys.exit(f"error: package sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bench_workloads as wl  # noqa: E402
import dimerfield as df  # noqa: E402

WORKLOADS = wl.WORKLOADS


def parse_args(argv):
    p = argparse.ArgumentParser(description="dimerfield benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(cmd) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed, proc


def setup_seconds(workload: str, seed: int, count: int) -> list[float]:
    """Wall time of fresh processes that import, build inputs and warm up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return [timed_child(cmd)[0] for _ in range(count)]


def run_round(ops, tracer=None, tag=""):
    """One pass over the ops.  Returns (outputs, op seconds, round seconds)."""
    outputs, times = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is None:
            out, dt = wl.run_op(op)
        else:
            tracer.request = f"{tag}/{i}"
            with tracer.span(f"bench.{op.kind}"):
                out, dt = wl.run_op(op)
        outputs.append(out)
        times.append(dt)
    return outputs, times, time.perf_counter() - start


def measure(ops, seconds, verdicts):
    """Whole rounds for about ``seconds`` (at least one), checked afterwards.

    The last round is the one whose end falls nearest to ``seconds``, so a
    round of up to 2/3 of ``seconds`` still runs twice.
    Checks run after the timed rounds, so they take no time from them.
    """
    walls, times, rounds = [], [], []
    start = time.perf_counter()
    while True:
        outputs, op_times, wall = run_round(ops)
        rounds.append(outputs)
        walls.append(wall)
        times.extend(op_times)
        if time.perf_counter() - start + 0.5 * wall >= seconds:
            break
    for outputs in rounds:
        verdicts.add(outputs)
    return walls, times


def provenance() -> dict:
    import scipy

    return {
        "backend": df.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(args):
    # half the set-up probes run before the timed rounds and half after, so
    # their median does not rest on one stretch of the host's speed
    setups = setup_seconds(args.workload, args.seed, SETUP_PROBES // 2)
    ops = wl.build(args.workload, args.seed)
    wl.warm_up(args.workload)
    verdicts = wl.Verdicts(args.workload, ops, args.seed)
    walls, times = measure(ops, args.seconds, verdicts)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += setup_seconds(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "op_p50_ms": metric(1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    detail = {
        "rounds": len(walls),
        "ops_per_round": len(ops),
        "round_s": walls,
        "setup_runs_s": setups,
        "op_ms_by_kind": _median_by_kind(ops, times),
    }
    return verdicts, metrics, detail


def _median_by_kind(ops, times):
    by_kind: dict[str, list[float]] = {}
    for k, t in enumerate(times):
        by_kind.setdefault(ops[k % len(ops)].kind, []).append(1e3 * t)
    return {kind: statistics.median(v) for kind, v in by_kind.items()}


# ------------------------------------------------------------------ traced


def import_times() -> dict[str, float]:
    """Milliseconds from ``python -X importtime -c 'import dimerfield'``."""
    _, proc = timed_child([sys.executable, "-X", "importtime", "-c", "import dimerfield"])
    total = numpy_us = scipy_us = 0.0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        top = name.split(".")[0]
        numpy_us += self_us if top == "numpy" else 0
        scipy_us += self_us if top == "scipy" else 0
        if name == "dimerfield":
            total = cum_us
    return {"import": total / 1e3, "numpy": numpy_us / 1e3, "scipy": scipy_us / 1e3}


def cli_metrics() -> dict:
    imports = [import_times() for _ in range(CLI_PROBES)]
    cmd = [sys.executable, "-m", "dimerfield.cli", "critical", "--alpha", "1e-3"]
    cold = [timed_child(cmd)[0] for _ in range(CLI_PROBES)]
    med = statistics.median
    return {
        "cli.import_ms": metric(med(i["import"] for i in imports), "ms"),
        "cli.import_numpy_ms": metric(med(i["numpy"] for i in imports), "ms"),
        "cli.import_scipy_ms": metric(med(i["scipy"] for i in imports), "ms"),
        "cli.critical_cold_ms": metric(1e3 * med(cold), "ms"),
    }


def traced_round(tracer, ops, tag):
    """One round with tracing installed.  Returns (outputs, seconds, spans)."""
    first = len(tracer.spans)
    with tracer:
        outputs, _, wall = run_round(ops, tracer, tag)
    return outputs, wall, tracer.spans[first:]


def traced(args):
    """Traced run: overhead on this workload, per-layer figures on all four.

    Untraced and traced rounds of ``--workload`` alternate for ``--seconds``;
    the overhead is the difference of their medians.  The per-layer figures
    come from one traced round of every workload (the first traced round of
    ``--workload`` and one round of each other).
    """
    import bench_trace as bt  # not needed by the set-up probes

    cli = cli_metrics()
    ops = {w: wl.build(w, args.seed) for w in WORKLOADS}
    for w in WORKLOADS:
        wl.warm_up(w)
    tracer = bt.Tracer()
    verdicts = {w: wl.Verdicts(w, ops[w], args.seed) for w in WORKLOADS}
    plain, with_trace, pass_spans = [], [], []
    start = time.perf_counter()
    while True:
        outputs, _, wall = run_round(ops[args.workload])
        verdicts[args.workload].add(outputs)
        plain.append(wall)
        outputs, wall_t, spans = traced_round(tracer, ops[args.workload], f"{args.workload}/{len(with_trace)}")
        verdicts[args.workload].add(outputs)
        with_trace.append(wall_t)
        pass_spans = pass_spans or spans
        if time.perf_counter() - start + wall + wall_t > args.seconds:
            break
    for w in WORKLOADS:
        if w != args.workload:
            outputs, _, spans = traced_round(tracer, ops[w], f"{w}/0")
            verdicts[w].add(outputs)
            pass_spans = pass_spans + spans

    # validated construction of every full parameter set the ops use
    first = len(tracer.spans)
    with tracer:
        for w in WORKLOADS:
            for i, op in enumerate(ops[w]):
                for p in op.args:
                    if isinstance(p, df.ModelParams):
                        tracer.request = f"{w}/construct/{i}"
                        with tracer.span("bench.construct"):
                            df.ModelParams(p.alpha, h=p.h, J=p.J)
    pass_spans = pass_spans + tracer.spans[first:]

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    metrics = dict(cli)
    metrics.update(layer_metrics(pass_spans, ops))
    for layer, seconds in bt.self_times(pass_spans).items():
        if layer != "bench":
            metrics[f"{layer}.self_s"] = metric(seconds, "s")
    metrics["trace.overhead_s"] = metric(statistics.median(with_trace) - statistics.median(plain), "s")
    metrics["trace.spans"] = metric(len(pass_spans), "count")
    detail = {"rounds": len(plain), "plain_round_s": plain, "traced_round_s": with_trace}
    # attempted/failed describe --workload; the other workloads' single
    # rounds only feed the correctness verdict
    main = verdicts[args.workload]
    for v in verdicts.values():
        if v is not main:
            main.problems += [dict(p, workload=v.workload) for p in v.problems]
    return main, metrics, detail


def layer_metrics(spans, ops) -> dict:
    med = statistics.median
    by_id = {s.id: s for s in spans}

    def op_of(span):
        workload, _, index = span.request.split("/")
        return workload, ops[workload][int(index)]

    def top_level(span):
        parent = by_id.get(span.parent)
        return parent is not None and parent.layer == "bench"

    def durations(name, workload=None, kind=None, top=False, ok_only=False, n=None):
        out = []
        for s in spans:
            if s.name != name or (ok_only and s.error) or (top and not top_level(s)):
                continue
            w, op = op_of(s)
            if workload in (None, w) and kind in (None, op.kind) and n in (None, op.meta.get("n")):
                out.append(s.duration)
        return out

    m = {}
    kernel_s = sum(durations("kernels.partition_sums", "finite_n"))
    m["kernels.partition_sums_ms"] = metric(1e3 * kernel_s, "ms")
    lpe = "model.log_partition_exact"
    for n in wl.FINITE_SIZES:
        m[f"{lpe}.n{n}_ms"] = metric(1e3 * med(durations(lpe, "finite_n", top=True, n=n)), "ms")
    classes = sum(
        df.admissible_count(df.split_sizes(op.args[0], op.args[1].alpha)) for op in ops["finite_n"]
    )
    m["model.classes"] = metric(classes, "count")
    m["model.classes_per_s"] = metric(classes / kernel_s, "1/s")
    m["model.small_n_ms"] = metric(1e3 * med(durations(lpe, "moments", top=True)), "ms")
    for regime in ("generic", "subcritical", "near_critical", "coexistence", "critical"):
        vals = durations("variational.maximize_psi", "phase", f"maximize_psi.{regime}", top=True)
        m[f"variational.maximize_psi.{regime}_ms"] = metric(1e3 * med(vals), "ms")
    n_max = len(durations("variational.maximize_psi", "phase", top=True))
    m["variational.psi_calls"] = metric(len(durations("variational.psi", "phase")) / n_max, "count")
    m["critical.critical_point_us"] = metric(1e6 * med(durations("critical.critical_point")), "us")
    m["critical.solve_branches_us"] = metric(1e6 * med(durations("critical.solve_branches")), "us")
    m["critical.coexistence_field_ms"] = metric(1e3 * med(durations("critical.coexistence_field")), "ms")
    coex_ids = {s.id for s in spans if s.name == "critical.coexistence_field"}
    nested = sum(1 for s in spans if s.name == "critical.solve_branches" and s.parent in coex_ids)
    m["critical.solve_branches_per_coexistence"] = metric(nested / len(coex_ids), "count")
    m["critical.exponent_scan_ms"] = metric(1e3 * med(durations("critical.exponent_scan", ok_only=True)), "ms")
    for name in ("scaled_coupling_critical", "d_mix_scan"):
        m[f"critical.{name}_ms"] = metric(1e3 * med(durations(f"critical.{name}")), "ms")
    m["gaussian.z_via_gaussian_ms"] = metric(1e3 * med(durations("gaussian.z_via_gaussian")), "ms")
    for rule in ("jacobi", "legendre"):
        vals = durations("gaussian.z_star", "moments", f"z_star.{rule}", top=True)
        m[f"gaussian.z_star.{rule}_ms"] = metric(1e3 * med(vals), "ms")
    for name in ("superadditivity_check", "laplace_maximum"):
        m[f"gaussian.{name}_ms"] = metric(1e3 * med(durations(f"gaussian.{name}")), "ms")
    m["params.model_params_us"] = metric(1e6 * med(durations("params.ModelParams")), "us")
    m["params.constructions"] = metric(sum(1 for s in spans if s.layer == "params"), "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        wl.build(args.workload, args.seed)
        wl.warm_up(args.workload)
        return 0
    if args.trace:
        verdicts, metrics, detail = traced(args)
    else:
        verdicts, metrics, detail = end_to_end(args)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "failures": verdicts.problems,
        "known_faults": verdicts.known,
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"provenance": record["provenance"], "rounds": detail["rounds"], "failures": verdicts.problems}, default=str))
    result = {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
