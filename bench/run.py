#!/usr/bin/env python3
"""Benchmark of the eigenlfm CLI on three fixed workloads.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload queue-track --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --quick                  # seconds-long schema/output check
    python3 bench/run.py --repeat 10 --workload queue-track --seconds 28
    python3 bench/run.py --record-references      # writes .bench_out/references.json

One pass is one in-process `eigenlfm` CLI call (`--jobs 1`) over the
workload's dataset seeds and methods, data generation included, because the
CLI regenerates its data on every call. A run makes one untimed warm-up pass
and then timed passes until `--seconds` have gone by. Each (dataset, method)
output is checked against `references.json`; a non-zero exit, a non-finite
value or a mismatch counts that item as failed, and the run goes on.

Times are in reference seconds: each timed step is rescaled by a
calibration kernel timed next to it in the same process (calibration.py).
Raw times and calibrations go to the run's detail file in .bench_out/.
With `--trace 0` the last stdout line reports the end-to-end metrics:

    setup_s       median time for a fresh interpreter to import eigenlfm.cli
    wall_s        median pass time (a run has too few passes for a tail percentile)
    peak_rss_mb   peak resident memory of the benchmark process
    rmse_vs_ref   mean over items of held-out rmse / stored reference rmse
    ell_vs_ref    exp(mean over items of held-out ell - stored reference ell)

Failed items are the result line's `failed` out of `attempted`.

With `--trace 1` untraced and traced passes alternate, and the last line
reports per-layer metrics from the traced passes: per wrapped function its
calls per pass (`.calls`), the share of traced pass time spent in its own
code (`.self_pct`) and work counts; plus `traced_wall_s` and
`trace_overhead_frac`, traced over untraced `wall_s` minus 1. Counts must be
identical on every traced pass, or the run is reported as not correct.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads: at state sizes of 20-25
# extra threads only add scheduler noise on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibration
from tracing import LAYERS, ROOT as ROOT_SPAN, WORK, Tracer
from workloads import POOL_SIZE, WORKLOADS, check_record, load_references

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 170


def _import_cli():
    """Import eigenlfm.cli from this checkout's sources, or exit non-zero."""
    if not (SRC / "eigenlfm" / "__init__.py").is_file():
        raise SystemExit(f"error: no eigenlfm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from eigenlfm import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: eigenlfm was imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "eigenlfm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Speedometer:
    """Times steps, each followed by a calibration, in reference seconds."""

    def __init__(self):
        self.calibrations = [calibration.calibrate()]
        self.raw: list[float] = []

    def measure(self, step) -> float:
        """Run step(), which returns its own raw seconds; return scaled seconds."""
        raw = step()
        self.calibrations.append(calibration.calibrate())
        self.raw.append(raw)
        return calibration.scaled(raw, 0.5 * (self.calibrations[-2] + self.calibrations[-1]))


# Timed inside the fresh interpreter, with the calibration on the same CPU
_SETUP_PROBE = """
import time
start = time.perf_counter()
import eigenlfm.cli
ready = time.perf_counter() - start
import calibration
print(ready, calibration.calibrate())
"""


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds for a fresh interpreter to import eigenlfm.cli,
    per sample. One untimed import first writes the bytecode caches, which
    users have too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))

    def once() -> tuple[float, float]:
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        ready, cal = map(float, proc.stdout.split())
        return ready, calibration.scaled(ready, cal)

    once()
    return [once() for _ in range(samples)]


class PassRunner:
    """Runs one workload's CLI call in-process and checks its outputs."""

    def __init__(self, cli, workload, dataset_seeds, references, quick: bool):
        self.cli = cli
        self.items = workload.items(dataset_seeds)
        self.references = references
        self.out_dir = OUT / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        config_path = self.out_dir / "config.json"
        config_path.write_text(json.dumps(workload.config(dataset_seeds, quick), indent=2))
        self.args = workload.cli_args(config_path, self.out_dir)
        self.metrics_path = self.out_dir / "metrics.json"
        self.failures: list[str] = []
        self.attempted = 0
        self.rmse_ratios: list[float] = []
        self.ell_gaps: list[float] = []

    def _invoke(self) -> int:
        try:
            self.cli.main.main(args=self.args, prog_name="eigenlfm")
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                return exc.code or 0
            return 1
        except Exception:  # a crash fails every item of the pass; the run goes on
            traceback.print_exc()
            return 1
        return 0

    def run(self, tracer: Tracer | None = None, pass_index: int = 0) -> float:
        """One pass; returns its wall time in seconds."""
        self.metrics_path.unlink(missing_ok=True)
        sink = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                code = self._invoke()
            else:
                code = tracer.run_root(pass_index, self._invoke)
        elapsed = time.perf_counter() - start
        self._check(code, sink.getvalue())
        return elapsed

    def _check(self, code: int, output: str) -> None:
        self.attempted += len(self.items)
        if code != 0:
            tail = output.strip().splitlines()[-1:] or [""]
            self.failures += [f"{d}/{m}: exit {code}: {tail[0]}" for d, m in self.items]
            return
        try:
            records = json.loads(self.metrics_path.read_text())
        except (OSError, ValueError) as exc:
            self.failures += [f"{d}/{m}: unreadable metrics.json: {exc}" for d, m in self.items]
            return
        by_item = {(r.get("dataset"), r.get("method")): r for r in records}
        for dataset, method in self.items:
            record = by_item.get((dataset, method))
            reference = self.references.get(dataset, {}).get(method)
            error = check_record(record, reference)
            if error is not None:
                self.failures.append(f"{dataset}/{method}: {error}")
            if reference is not None and record is not None and all(
                isinstance(record.get(k), (int, float)) and math.isfinite(record[k])
                for k in ("rmse", "ell")
            ):
                self.rmse_ratios.append(record["rmse"] / reference["rmse"])
                self.ell_gaps.append(record["ell"] - reference["ell"])


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _count_metrics(tracer: Tracer) -> dict:
    counts = {f"{layer}.calls": tracer.calls[layer] for layer in LAYERS}
    for layer, (key, _) in WORK.items():
        counts[f"{layer}.{key}"] = tracer.work[f"{layer}.{key}"]
    return counts


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_pct", "%")]
    names += [(f"{layer}.{key}", "count") for layer, (key, _) in WORK.items()]
    names += [
        (f"{ROOT_SPAN}.self_pct", "%"),
        ("traced_wall_s", "s"),
        ("trace_overhead_frac", "frac"),
    ]
    return names


def _timed_passes(runner: PassRunner, seconds: float, speed: Speedometer) -> list[float]:
    deadline = time.perf_counter() + seconds
    walls = [speed.measure(runner.run)]
    while time.perf_counter() < deadline:
        walls.append(speed.measure(runner.run))
    return walls


def _traced_passes(runner: PassRunner, seconds: float, speed: Speedometer):
    """Alternate untraced and traced passes; at least two traced ones."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, counts, self_ns = [], [], [], []

    def traced_pass() -> float:
        tracer.reset_counts()
        tracer.install()
        try:
            return runner.run(tracer, pass_index=len(traced))
        finally:
            tracer.uninstall()

    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(speed.measure(runner.run))
        traced.append(speed.measure(traced_pass))
        counts.append(_count_metrics(tracer))
        self_ns.append(dict(tracer.self_ns))
    return tracer, plain, traced, counts, self_ns


def run_workload(cli, workload, seed: int, seconds: float, trace: bool, *,
                 quick: bool = False, setup_samples: int = SETUP_SAMPLES,
                 warmup: bool = True):
    """One benchmark run. Returns (result line dict, detail record dict)."""
    dataset_seeds = workload.dataset_seeds(seed)
    references = load_references()["quick" if quick else "full"][workload.name]
    runner = PassRunner(cli, workload, dataset_seeds, references, quick)
    detail = {"workload": workload.name, "seed": seed, "dataset_seeds": dataset_seeds,
              "quick": quick, "trace": trace, "environment": environment()}
    if warmup:
        runner.run()
    speed = Speedometer()
    errors = []
    if not trace:
        setup = measure_setup(setup_samples)
        walls = _timed_passes(runner, seconds, speed)
        metrics = {
            "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "rmse_vs_ref": _metric(
                statistics.fmean(runner.rmse_ratios) if runner.rmse_ratios else None, "ratio"),
            "ell_vs_ref": _metric(
                math.exp(statistics.fmean(runner.ell_gaps)) if runner.ell_gaps else None,
                "ratio"),
        }
        detail.update({"setup_raw_s": [r for r, _ in setup],
                       "setup_s": [s for _, s in setup], "pass_wall_s": walls})
    else:
        tracer, plain, traced, counts, self_ns = _traced_passes(runner, seconds, speed)
        if any(c != counts[0] for c in counts):
            errors.append("work counts differ between traced passes of the same inputs")
        total_ns = 1e9 * sum(speed.raw[1::2])
        units = dict(per_layer_names())
        values = dict(counts[0])
        for name in (*LAYERS, ROOT_SPAN):
            values[f"{name}.self_pct"] = 100.0 * sum(s.get(name, 0) for s in self_ns) / total_ns
        values["traced_wall_s"] = statistics.median(traced)
        values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
        detail.update({
            "pass_wall_s": plain,
            "traced_pass_wall_s": traced,
            "counts_per_traced_pass": counts,
            "self_ms_per_traced_pass": {
                name: sum(s.get(name, 0) for s in self_ns) / 1e6 / len(traced)
                for name in (*LAYERS, ROOT_SPAN)
            },
            "spans": _span_columns(tracer),
        })
    failed = len(runner.failures)
    errors += runner.failures[:20]
    detail.update({"raw_s": speed.raw, "calibration_s": speed.calibrations,
                   "attempted": runner.attempted, "failed": failed, "errors": errors})
    result = {"correct": not errors, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def _span_columns(tracer: Tracer) -> dict:
    spans = tracer.spans
    names = sorted({s[1] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "pass": [s[0] for s in spans],
        "name": [index[s[1]] for s in spans],
        "start_ns": [s[2] for s in spans],
        "end_ns": [s[3] for s in spans],
        "parent": [s[4] for s in spans],
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def _write_detail(detail: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{detail['workload']}-s{detail['seed']}-trace{int(detail['trace'])}.json"
    path.write_text(json.dumps(detail))
    return path


def _schema_errors(result: dict, expected: list[tuple[str, str]]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if list(metrics) != [name for name, _ in expected]:
        errors.append(f"metric names {sorted(set(metrics) ^ {n for n, _ in expected})} differ")
    for name, unit in expected:
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            errors.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors


def quick(cli) -> int:
    """Every workload at a small size: one timed pass, then two untraced and two
    traced passes. Checks outputs against the quick references and the result schema
    against BENCHMARK.json."""
    spec = _spec()
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from bench/workloads.py")
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if per_layer != per_layer_names():
        errors.append("BENCHMARK.json per_layer differs from the traced metrics")
    results = {}
    for name, workload in WORKLOADS.items():
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result, detail = run_workload(cli, workload, 0, 0.0, trace, quick=True,
                                          setup_samples=1, warmup=False)
            _write_detail(detail)
            errors += [f"{name} trace={int(trace)}: {e}" for e in _schema_errors(result, expected)]
            errors += [f"{name}: {e}" for e in detail["errors"]]
            results[f"{name}/trace{int(trace)}"] = result
    for error in errors:
        print(f"quick: {error}", file=sys.stderr)
    print(json.dumps({"ok": not errors, "results": results}))
    return 0 if not errors else 1


def repeat(workload_name: str, runs: int, seconds: int, trace: int, base_seed: int) -> int:
    """Run the benchmark command `runs` times with seeds base_seed.. and print
    each metric's median and quartile spread, against its bound."""
    if runs < 2:
        raise SystemExit("error: --repeat needs at least 2 runs")
    spec = _spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    ok = True
    for i in range(runs):
        seed = base_seed + i
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                  if k in bounds and bounds[k] is not None), flush=True)
        for key, entry in result["metrics"].items():
            values.setdefault(key, []).append(entry["value"])
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for key, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(key)
        print(f"{key:48s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else f'{bound:6.3f}'}")
    return 0 if ok else 1


def record_references(cli) -> int:
    """Record the held-out rmse/ell of every pool dataset seed (and of the
    quick configuration) to .bench_out/references.json. Run only at a commit
    whose outputs are meant to be the reference."""
    refs = {"full": {}, "quick": {}}
    for name, workload in WORKLOADS.items():
        for kind, seeds, quick_mode in (
            ("full", list(range(POOL_SIZE)), False),
            ("quick", workload.dataset_seeds(0), True),
        ):
            runner = PassRunner(cli, workload, seeds, {}, quick_mode)
            runner.run()
            records = json.loads(runner.metrics_path.read_text())
            table = refs[kind].setdefault(name, {})
            for r in records:
                if not (math.isfinite(r["rmse"]) and math.isfinite(r["ell"])):
                    raise SystemExit(f"error: non-finite reference {r}")
                table.setdefault(r["dataset"], {})[r["method"]] = {
                    "rmse": r["rmse"], "ell": r["ell"]}
            if len(records) != len(runner.items):
                raise SystemExit(f"error: {name} produced {len(records)} records, "
                                 f"expected {len(runner.items)}")
            print(f"{name} {kind}: {len(records)} records", flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--repeat", type=int, metavar="RUNS")
    mode.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if args.repeat is not None:
        if args.workload is None:
            parser.error("--repeat needs --workload")
        return repeat(args.workload, args.repeat, args.seconds, args.trace, args.seed)
    cli = _import_cli()
    if args.quick:
        return quick(cli)
    if args.record_references:
        return record_references(cli)
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace))
    path = _write_detail(detail)
    print(json.dumps({"environment": detail["environment"]}))
    print(f"{args.workload}: dataset seeds {detail['dataset_seeds']}, "
          f"{len(detail['pass_wall_s'])} timed passes, failed {detail['failed']} of "
          f"{detail['attempted']} items (failed_frac {detail['failed'] / detail['attempted']:.4g}); "
          f"details in {path.relative_to(ROOT)}")
    for error in detail["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
