#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at the tiny size.

    python3 perfbench/selftest.py

Run from the root of the repository. For each workload it checks that
`run.py` prints, with `--trace 0`, exactly the end-to-end metrics of
BENCHMARK.json and, with `--trace 1`, exactly the per-layer ones, each
with its unit, and that no attempt failed. It then runs once more with
a deliberately wrong expected fingerprint and checks that every attempt
failed. Exits non-zero on the first broken check.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(doc, wanted, what):
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(k for k in set(got) & set(units) if got[k] != units[k])
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in doc["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} is not a number: {m['value']!r}")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            doc = run(name, trace)
            check_metrics(doc, wanted, f"{name} --trace {trace}")
            if not doc["correct"] or doc["failed"] != 0 or doc["attempted"] < 1:
                raise AssertionError(f"{name} --trace {trace}: {doc['failed']} of "
                                     f"{doc['attempted']} attempts failed")
        doc = run(name, 0, "--expect-fingerprint", "0000000000000000")
        if doc["correct"] or doc["failed"] != doc["attempted"]:
            raise AssertionError(f"{name}: a wrong fingerprint failed only {doc['failed']} of "
                                 f"{doc['attempted']} attempts")
        print(f"{name}: ok", flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
