"""The repository benchmark: cold-process passes of the ``htree`` CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workloads and why they exist are described in ``corpus.py``.

This process stays single-threaded and starts one worker process at a
time (``worker.py``).  Every timed pass is a fresh interpreter making one
pass over the seeded corpus through ``hubbardtrees.cli.main``, because the
library's caches and intern table live as long as the process.  Each
client waits for its answer before sending the next input (a closed loop
with one client).

With ``--trace 0`` it reports the end-to-end metrics:

- ``throughput_inputs_per_s``: inputs per second of a pass, median over
  the passes of the run;
- ``latency_p50_ms``, ``latency_p95_ms``: wall time of one ``main(argv)``
  call, over all calls of all passes;
- ``setup_s``: from the start of a fresh interpreter until the CLI is
  imported and the corpus made, median over several interpreters;
- ``peak_rss_mb``: peak RSS of a pass process before its checks, median.

The error rate (failed inputs over inputs attempted) is printed beside
them and is the ``failed``/``attempted`` pair of the result line.  An
input fails if it raises, exits with another code than declared, or fails
its output check (``checks.py``), which runs after the timed pass of the
first pass process; later passes must print the same bytes.

With ``--trace 1`` it runs one untraced pass, one traced pass and one pass
of the same inputs as a single ``--batch`` file, and reports the
per-layer metrics derived from the spans (``tracing.py``), the tracing
overhead, and the batch call's wall time beside the untraced pass's
(``cli.batch.wall_s``, ``cli.batch.sequential_s``): the CLI's thread pool
against a plain loop of ``main()`` calls.

The last line of stdout is the JSON result; the full result, with the run
metadata, and the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from corpus import WORKLOADS  # noqa: E402
from tracing import TRACED  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("throughput_inputs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, attr in TRACED:
        base = f"{module}.{attr}"
        out += [(f"{base}.calls", "count"), (f"{base}.total_s", "s"),
                (f"{base}.self_s", "s")]
    out += [
        ("critpath.lower_sequence.calls_per_input", "calls/input"),
        ("treebuild.build_tree.calls_per_input", "calls/input"),
        ("treebuild.meet.hit_ratio", "ratio"),
        ("cli.batch.wall_s", "s"),
        ("cli.batch.sequential_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return out


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.start = time.monotonic()

    def worker(self, mode: str, *extra: str) -> dict:
        """Run one fresh worker process; its setup time is measured from
        just before the interpreter starts."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode,
                "--workload", self.workload, "--seed", str(self.seed), *extra]
        if self.tiny:
            argv.append("--tiny")
        left = RUN_LIMIT_S - (time.monotonic() - self.start)
        t0 = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, left))
        t1 = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["setup_done"] - t0
        res["lifetime_s"] = t1 - t0
        return res


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-q * len(s) // 100) - 1))
    return s[int(k)]


def count_failures(passes):
    """Failed inputs over all passes: a pass's own failures, plus any
    input whose output differs from the first pass's."""
    ref = passes[0]["digests"]
    failed = 0
    for p in passes:
        bad = {i for i, _ in p["failures"]}
        if "digests" in p:
            bad |= {i for i, (a, b) in enumerate(zip(ref, p["digests"])) if a != b}
        failed += len(bad)
    return failed


def measure(r: Runner, seconds: float):
    setups = [r.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = [r.worker("pass", "--check")]
    deadline = r.start + seconds
    # start another pass when it would end nearer the deadline than not
    while True:
        est = statistics.median(p["lifetime_s"] - p.get("check_s", 0.0)
                                for p in passes)
        if time.monotonic() + est / 2 >= deadline:
            break
        passes.append(r.worker("pass"))
    setups += [p["setup_s"] for p in passes]
    lat = [x for p in passes for x in p["latencies"]]
    metrics = {
        "throughput_inputs_per_s": statistics.median(
            p["inputs"] / p["wall_s"] for p in passes),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p95_ms": percentile(lat, 95) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {"passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
            "latency_samples": len(lat),
            "beyond_p95": sum(x * 1e3 > metrics["latency_p95_ms"] for x in lat),
            "setup_samples": len(setups)}
    return metrics, END_TO_END, passes, info


def measure_traced(r: Runner, spans_path: str):
    plain = r.worker("pass", "--check")
    traced = r.worker("pass", "--trace", spans_path)
    passes = [plain, traced]
    n = plain["inputs"]
    metrics = {}
    for name, row in traced["layers"].items():
        for key, value in row.items():
            metrics[f"{name}.{key}"] = value
    metrics["critpath.lower_sequence.calls_per_input"] = (
        metrics["critpath.lower_sequence.calls"] / n)
    metrics["treebuild.build_tree.calls_per_input"] = (
        metrics["treebuild.build_tree.calls"] / n)
    metrics["treebuild.meet.hit_ratio"] = traced.get("meet_hit_ratio", 0.0)
    batch = r.worker("batch")
    passes.append(batch)
    metrics["cli.batch.wall_s"] = batch["wall_s"]
    metrics["cli.batch.sequential_s"] = plain["wall_s"]
    metrics["trace.overhead"] = plain["wall_s"] / traced["wall_s"]
    info = {"absent": traced["absent"], "spans_file": spans_path}
    return metrics, per_layer_names(), passes, info


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "python": sys.version.split()[0],
            "git_commit": git_commit(), "loadavg_start": os.getloadavg(),
            "clients": 1, "loop": "closed"}
    r = Runner(workload, seed, tiny)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    if trace:
        metrics, names, passes, info = measure_traced(r, stem + "-spans.json")
    else:
        metrics, names, passes, info = measure(r, seconds)
    attempted = sum(p["inputs"] for p in passes)
    failed = count_failures(passes)
    failures = [f for p in passes for f in p["failures"]][:20]
    meta.update(info, numpy=passes[0]["numpy"], inputs=passes[0]["inputs"],
                input_hash=passes[0]["input_hash"], elapsed_s=time.monotonic() - r.start,
                error_rate=failed / attempted, failures=failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names}}
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)
    return {"meta": meta, **result}


def report(res: dict) -> None:
    meta = res["meta"]
    print(json.dumps({"meta": meta}))
    w = meta["workload"]
    for name, m in res["metrics"].items():
        extra = ""
        if name == "latency_p95_ms":
            extra = (f"  ({meta['latency_samples']} samples, "
                     f"{meta['beyond_p95']} beyond)")
        print(f"{w:15s} {name:45s} {m['value']:14.6f} {m['unit']}{extra}")
    print(f"{w:15s} {'error_rate':45s} {meta['error_rate']:14.6f} "
          f"failed/attempted  ({res['failed']}/{res['attempted']})")
    for name in meta.get("absent", []):
        print(f"{w:15s} {name:45s} {'absent':>14s}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hubbardtrees", "cli.py")):
        print(f"no hubbardtrees sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in workloads:
        res = run_one(w, args.seed, args.seconds, bool(args.trace))
        report(res)
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
