"""Smoke test of the benchmark's own code (not of the server's speed).

Usage, from the root of a checkout::

    python3 perfbench/smoke_check.py

For every workload it runs one tiny untraced and one tiny traced pass
against a live ``repro serve`` process (small datasets, one-second
windows) and asserts that every metric named in ``BENCHMARK.json`` is
printed with its unit.  It then reruns one workload with a deliberately
corrupted reference answer and asserts that the run reports a failure.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

SCALE = 0.05
SECONDS = 1.0


def printed(name: str, unit: str, text: str) -> bool:
    """Whether a report line names *name* and ends with *unit*."""
    return any(line.split()[:1] == [name] and line.split()[-1] == unit
               for line in text.splitlines() if line.strip())


def tiny_run(name: str, trace: bool, workdir: Path, **kwargs) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(name, 5, SECONDS, trace, workdir, scale=SCALE,
                                  setups=1, **kwargs)
    return result, out.getvalue()


def main() -> int:
    from workloads import WORKLOADS

    sys.path.insert(0, str(harness.SRC))
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    import layers

    assert [(m["name"], m["unit"], m["better"] == "higher") for m in spec["per_layer"]] == [
        (name, unit, name in layers.HIGHER_IS_BETTER) for name, unit in layers.UNITS.items()]
    problems = []
    with harness.workspace() as workdir:
        for name in WORKLOADS:
            for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                result, text = tiny_run(name, trace, workdir)
                if not result["correct"]:
                    problems.append(f"{name} trace={trace}: run reported wrong answers")
                missing = [m["name"] for m in metrics
                           if not printed(m["name"], m["unit"], text)
                           or m["name"] not in result["metrics"]]
                if missing:
                    problems.append(f"{name} trace={trace}: not printed: {missing}")
                print(f"{name} trace={trace}: {result['attempted']} requests, "
                      f"{len(metrics) - len(missing)}/{len(metrics)} metrics printed")
        result, text = tiny_run("interactive", False, workdir, corrupt_reference=True)
        if result["correct"] or result["failed"] < 1 or "WRONG" not in text:
            problems.append("a corrupted reference answer was not reported as a failure")
        else:
            print(f"corrupted reference: reported ({result['failed']} failed)")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
