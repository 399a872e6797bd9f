"""Smoke test of the benchmark: the quick mode runs every workload at a small
size, checks outputs against the stored quick references and the result
schema against BENCHMARK.json. Speed is not checked.

    python -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracing import Tracer  # noqa: E402


def _quick() -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_mode_checks_schema_and_counts_repeat():
    first, second = _quick(), _quick()
    assert first["ok"] and second["ok"]

    def counts(report):
        return {
            run: {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
            for run, result in report["results"].items() if run.endswith("trace1")
        }

    assert counts(first) == counts(second)
    assert all(any(c.values()) for c in counts(first).values())


def test_tracer_patches_every_binding():
    import eigenlfm.apps.queueing  # noqa: F401
    import eigenlfm.apps.thermal  # noqa: F401
    import eigenlfm.baselines.resonator  # noqa: F401
    from eigenlfm import filtering

    original = filtering.update
    tracer = Tracer()
    tracer.install()
    try:
        bindings = tracer.patched_bindings()
        assert filtering.update is not original
    finally:
        tracer.uninstall()
    assert filtering.update is original
    for name in (
        "eigenlfm.filtering.update",
        "eigenlfm.apps.queueing.update",
        "eigenlfm.apps.thermal.update",
        "eigenlfm.apps.thermal.rbpf_predict_day",
        "eigenlfm.baselines.resonator.update",
        "eigenlfm.filtering.rbpf_predict_day",
    ):
        assert name in bindings
