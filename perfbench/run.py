#!/usr/bin/env python3
"""Runs one bosim benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload core-462 --seed 7 --seconds 10 --trace 0

Run from the root of the repository. The script builds the `perfbench`
binary (this directory's Cargo package, into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs one repetition per child process
until `--seconds` have passed, checking every result, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the repetitions. With `--trace 1` they are the per-layer
ones: repetitions alternate between untraced and traced, the traced ones
record spans around every call into bosim, and the layer replay kernels
run once. See README.md for what each workload and metric means.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_SEED = 1
# Fewest timed repetitions per kind, whatever --seconds says.
MIN_REPS = 3
# Longest the loop may run past --seconds to reach MIN_REPS.
GRACE_S = 60
CHILD_TIMEOUT_S = 150
# Seconds one pass of the host-speed kernel (src/hostspeed.rs) takes on
# the reference host, a 2-vCPU x86-64 cloud VM, when nothing else
# contends for its cores. Times are scaled to it.
REFERENCE_HOST_S = 0.025


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(checkout):
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = checkout / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=checkout, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return target / "release" / "perfbench"


class Runner:
    """Runs child processes of the perfbench binary, each in a fresh
    work directory under the checkout."""

    def __init__(self, binary, workload, size, work_root):
        self.binary = binary
        self.workload = workload
        self.size = size
        self.work_root = work_root
        self.count = 0

    def child(self, mode, seed, *flags):
        self.count += 1
        work = self.work_root / str(self.count)
        cmd = [str(self.binary), mode, "--workload", self.workload, "--seed", str(seed),
               "--size", self.size, "--work", str(work), *flags]
        env = dict(os.environ, BOSIM_ARTIFACT_DIR=str(work / "artifacts"))
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"{mode} timed out"
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return json.loads(proc.stdout.strip().splitlines()[-1]), None


median = statistics.median


def host_scale(rep):
    """How much slower than the reference host this repetition's host ran:
    the mean of the host-speed samples taken around it, over the
    reference time. Dividing a host time by it gives reference seconds."""
    return statistics.fmean(rep["host_s"]) / REFERENCE_HOST_S


def end_to_end(reps, totals):
    """Medians over the timed repetitions, in reference-host seconds.
    `totals` gives the simulated cycles and core-0 retired instructions
    of one repetition."""
    def rate(work, key):
        return median([work * host_scale(r) / r[key] for r in reps])
    return {
        "mcycles_per_s": (rate(totals["cycles"] / 1e6, "run_s"), "Mcycles/s"),
        "minstr_per_s": (rate(totals["retired"] / 1e6, "run_s"), "Minstr/s"),
        "jobs_per_s": (rate(reps[0]["jobs"], "job_s"), "1/s"),
        "setup_s": (median([r["setup_s"] / host_scale(r) for r in reps]), "s"),
        "peak_rss_mb": (median([r["peak_rss_kb"] / 1024 for r in reps]), "MB"),
    }


def raw_rates(reps, totals):
    """Unscaled medians, for the log."""
    return (f"unscaled: {median([totals['cycles'] / 1e6 / r['run_s'] for r in reps]):.4g} "
            f"Mcycles/s, {median([r['setup_s'] for r in reps]):.4g} s set-up, "
            f"host {median([host_scale(r) for r in reps]):.3f}x the reference")


def self_times(spans):
    """Seconds of span self time per layer: a span's duration minus the
    part its child spans cover."""
    out = {}
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    for s, covered in zip(spans, child_ns):
        out[s["layer"]] = out.get(s["layer"], 0) + (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return out


def per_layer(untraced, traced, counts, kernels, serve):
    """The per-layer metrics of one traced run. Host times are in
    reference-host units, each scaled by the host speed sampled in the
    process that measured it."""
    c = counts
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def ref_median(key, reps):
        return median([r[key] / host_scale(r) for r in reps])

    put("sim.cycles", c["cycles"], "count")
    put("sim.steps", c["steps"], "count")
    put("sim.step_frac", c["steps"] / c["cycles"], "frac")
    for k in ("retired", "branches", "mispredicts", "dl1_misses"):
        put(f"cpu.{k}", c[k], "count")
    for k in ("l2_accesses", "l2_misses", "l3_accesses", "l3_misses", "l2_fill_merges"):
        put(f"cache.{k}", c[k], "count")
    put("core.bo_issued", c["bo_issued"], "count")
    put("core.bo_useful", c["bo_useful"], "count")
    put("core.bo_accuracy", c["bo_useful"] / c["bo_issued"] if c["bo_issued"] else 0.0, "frac")
    put("core.bo_late", c["bo_late"], "count")
    put("dram.reads", c["dram_reads"], "count")
    put("dram.writes", c["dram_writes"], "count")
    cas = c["dram_reads"] + c["dram_writes"]
    # Every CAS goes to an open row; a row hit is one that needed no
    # activate first.
    put("dram.row_hit_frac", 1.0 - c["dram_row_opens"] / cas if cas else 0.0, "frac")
    store = traced[0].get("store", {})
    for k in ("decodes", "hits", "spills"):
        put(f"trace.store_{k}", store.get(k, 0), "count")
    put("cli.jobs_run", traced[0].get("jobs_run", 0), "count")
    put("cli.jobs_stolen", median([r.get("jobs_stolen", 0) for r in traced]), "count")

    # Host time per simulated event. Parallel shards count once each.
    cpu_run_s = median([r["run_s"] * r["threads"] / host_scale(r) for r in traced])
    put("sim.ns_per_step", cpu_run_s * 1e9 / c["steps"], "ns")
    put("sim.ns_per_kinstr", cpu_run_s * 1e12 / c["retired"], "ns")

    kscale = host_scale(kernels)
    k = {name: value * kscale if name.endswith("_per_s") else value / kscale
         for name, value in kernels["values"].items()}
    for name, value in k.items():
        put(name, value, "MB/s" if name.endswith("_mb_per_s") else "ns")
    bench = {key: median([r["bench_kernels"][key] / host_scale(r) for r in traced])
             for key in ("row_ns", "report_s")}
    put("bench.row_ns", bench["row_ns"], "ns")
    put("bench.report_s", bench["report_s"], "s")

    spans = [{layer: secs / host_scale(r) for layer, secs in self_times(r["spans"]).items()}
             for r in traced]
    span_s = {layer: median([s.get(layer, 0.0) for s in spans])
              for layer in ("trace", "sim", "bench", "cli")}
    for layer, secs in span_s.items():
        put(f"{layer}.span_s", secs, "s")

    # Estimated share of the run's host time per layer: replay-kernel
    # cost per call times the run's call count, over the run's time
    # (set-up plus run, parallel shards counted once each).
    budget = median([(r["setup_s"] + r["run_s"] * r["threads"]) / host_scale(r) for r in traced])
    ns = {
        "trace": k["trace.next_uop_ns"] * c["retired"] + span_s["trace"] * 1e9,
        "cpu": k["cpu.tage_ns"] * c["branches"] + k["cpu.tlb_ns"] * (c["loads"] + c["stores"]),
        "cache": k["cache.array_ns"] * (c["l2_accesses"] + c["l3_accesses"]),
        "core": k["core.bo_ns"] * c["l2_accesses"],
        "dram": k["dram.ns_per_read"] * c["dram_reads"],
        # serve distils a row per job and assembles the report itself.
        "bench": span_s["bench"] * 1e9 + (
            bench["row_ns"] * median([r["jobs_run"] for r in traced]) + bench["report_s"] * 1e9
            if serve else 0),
    }
    shares = {layer: v / 1e9 / budget for layer, v in ns.items()}
    for layer, share in shares.items():
        put(f"{layer}.est_share", share, "frac")
    put("unattributed_share", 1.0 - sum(shares.values()), "frac")

    plain = ref_median("total_s", untraced)
    put("trace_overhead_frac", (ref_median("total_s", traced) - plain) / plain, "frac")
    put("host_scale", median([host_scale(r) for r in untraced + traced]), "x")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs about 1/20 of the work (self-test)")
    ap.add_argument("--expect-fingerprint", default=None,
                    help="override the committed default-seed fingerprint (self-test)")
    args = ap.parse_args()

    checkout = pathlib.Path.cwd()
    expected = json.loads((HERE / "fingerprints.json").read_text())[args.size].get(args.workload)
    if expected is None:
        log(f"unknown workload {args.workload!r}")
        return 2
    if args.expect_fingerprint is not None:
        expected = args.expect_fingerprint
    binary = build(checkout)
    if binary is None:
        log("build failed")
        return 1

    work_root = checkout / ".bench_work" / str(os.getpid())
    runner = Runner(binary, args.workload, args.size, work_root)
    attempted = failed = 0

    def verdict(doc, err, want=None):
        """Counts one attempt. Returns the document of a repetition that
        completed, even if its result failed a check, or None."""
        nonlocal attempted, failed
        attempted += 1
        if err is None and doc["invariants"] != "ok":
            err = doc["invariants"]
        if err is None and want is not None and doc["fingerprint"] != want:
            err = f"fingerprint {doc['fingerprint']} != expected {want}"
        if err is not None:
            failed += 1
            if failed <= 3:
                log(f"FAILED: {err}")
        return doc

    try:
        serve = args.workload == "serve-grid"
        # The committed fingerprint is checked on every run, whatever
        # the seed: at the default seed by the timed repetitions, at
        # other seeds by one extra untimed repetition.
        if args.seed != DEFAULT_SEED:
            verdict(*runner.child("rep", DEFAULT_SEED), want=expected)
        # serve-grid's simulated totals come from running every job
        # directly, which also checks serve's report against them.
        totals = None
        if serve:
            doc = verdict(*runner.child("rep", args.seed, "--replay"),
                          want=expected if args.seed == DEFAULT_SEED else None)
            totals = doc and doc["counts"]

        reps = {False: [], True: []}
        first = expected if args.seed == DEFAULT_SEED else None
        deadline = time.monotonic() + args.seconds
        i = 0
        while time.monotonic() < deadline + GRACE_S and (
                time.monotonic() < deadline
                or min(len(reps[False]), len(reps[True]) if args.trace else MIN_REPS) < MIN_REPS):
            traced = bool(args.trace) and i % 2 == 1
            i += 1
            doc = verdict(*runner.child("rep", args.seed, *(["--traced"] if traced else [])),
                          want=first)
            if doc is not None:
                first = first or doc["fingerprint"]
                reps[traced].append(doc)
        if not reps[False] or (args.trace and not reps[True]):
            log("no repetition succeeded")
            return 1
        if totals is None:
            if serve:
                log("the direct replay of the serve-grid jobs failed")
                return 1
            totals = reps[False][0]["counts"]
        if args.trace:
            # The DRAM kernel is paced at the run's own cycles per read.
            gap = totals["cycles"] / max(totals["dram_reads"], 1)
            kernels, err = runner.child("kernels", args.seed, "--dram-gap", str(gap))
            if err is not None:
                log(f"kernels failed: {err}")
                return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (checkout / ".bench_work").rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(reps[False], reps[True], totals, kernels, serve)
    else:
        metrics = end_to_end(reps[False], totals)
        log(raw_rates(reps[False], totals))
    log(f"{len(reps[False])} untraced + {len(reps[True])} traced repetitions, "
        f"{failed} of {attempted} attempts failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
