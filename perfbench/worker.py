"""One fresh-process pass of a workload; started by ``run.py``.

    python3 perfbench/worker.py MODE --workload W --seed N [--tiny]
        [--trace SPANS_FILE] [--check] [--corrupt]

MODE is ``setup`` (import and make the corpus, nothing else), ``pass``
(one timed pass: one ``hubbardtrees.cli.main(argv)`` call per input) or
``batch`` (the same inputs as the lines of one ``--batch`` file, run by
one ``main(["--batch", FILE])`` call, which uses the CLI's thread pool).
The result is one JSON object on the last line of stdout.

Each pass needs a fresh process: ``meet``'s and ``_diff_exact``'s caches
and the ``EPSeq`` intern table live as long as the process, so a second
pass in the same process would be answered from them, which no CLI user
sees.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import shlex
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import corpus  # noqa: E402


def call(main, argv):
    """(code, stdout, stderr, seconds, error) of one ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed input, not a failed benchmark
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), seconds, error


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def failure(case, result):
    """Why an input failed before its output check, or None."""
    code, _, _, _, error = result
    if error is not None:
        return error.strip().splitlines()[-1]
    if code != case.code:
        return f"exited {code}, declared {case.code}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "pass", "batch"])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one output before checking (self-test)")
    args = ap.parse_args()

    # -- set-up: import the CLI and make the corpus ---------------------------
    from hubbardtrees import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported hubbardtrees from {cli.__file__}, "
                         f"not from {SRC}")
    sizes = corpus.TINY if args.tiny else corpus.FULL
    cases = corpus.make_corpus(args.workload, args.seed, sizes)
    result = {"setup_done": time.monotonic(), "inputs": len(cases),
              "input_hash": corpus.input_hash(cases)}
    if args.mode == "pass":
        result.update(timed_pass(args, cli, cases))
    elif args.mode == "batch":
        result.update(batch_pass(cli, cases))
    print(json.dumps(result))
    return 0


def timed_pass(args, cli, cases) -> dict:
    tracer = None
    main = cli.main
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        main, meet = tracer.install()

    # -- the timed region -----------------------------------------------------
    results = []
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.input_id = i
        results.append(call(main, list(case.argv)))
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    res = {"wall_s": wall, "latencies": [r[3] for r in results],
           "peak_rss_mb": rss_mb,
           "digests": [short_digest(r[1] + r[2]) for r in results]}
    reasons = [failure(c, r) for c, r in zip(cases, results)]

    if tracer is not None:
        res["layers"] = tracer.table()
        res["absent"] = list(tracer.absent)
        info = getattr(meet, "cache_info", None)
        if info is None:
            res["absent"].append("treebuild.meet.cache_info")
        else:
            ci = info()
            res["meet_hit_ratio"] = ci.hits / max(1, ci.hits + ci.misses)
        tracer.write(args.trace)

    if args.check:
        start = time.perf_counter()
        if args.corrupt:
            results = corrupt(args.workload, results)
        checked = check_outputs(args.workload, cases, results)
        reasons = [r or c for r, c in zip(reasons, checked)]
        res["check_s"] = time.perf_counter() - start
    res["failures"] = [[i, r] for i, r in enumerate(reasons) if r is not None]
    import numpy

    res["numpy"] = numpy.__version__
    return res


def batch_pass(cli, cases) -> dict:
    """The corpus through one ``--batch`` file.  Each line's section of
    the output gets the digest a lone run of the line gets in a pass (a
    lone run prints an error to stderr, the batch in the section)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"batch-{os.getpid()}.txt")
    try:
        with open(path, "w") as fh:
            fh.writelines(shlex.join(c.argv) + "\n" for c in cases)
        code, out, _, wall, error = call(cli.main, ["--batch", path])
    finally:
        os.remove(path)
    heads = [f"### {' '.join(c.argv)}\n" for c in cases]
    digests, pos = [], 0
    for i, head in enumerate(heads):
        if not out.startswith(head, pos):
            digests.append(None)
            continue
        pos += len(head)
        end = out.find(heads[i + 1], pos) if i + 1 < len(heads) else len(out)
        end = len(out) if end < 0 else end
        digests.append(short_digest(out[pos:end]))
        pos = end
    declared = next((c.code for c in cases if c.code), 0)
    why = error.strip().splitlines()[-1] if error else (
        f"batch exited {code}, declared {declared}" if code != declared else None)
    return {"wall_s": wall, "digests": digests,
            "failures": [[i, why] for i in range(len(cases))] if why else []}


def corrupt(workload, results):
    """Alter the first output the way a plausible bug would."""
    code, out, err, secs, error = results[0]
    if workload == "tree-sweep":
        out = out.replace('"fatou": false', '"fatou": true', 1)
        if out == results[0][1]:
            out = out.replace('"fatou": true', '"fatou": false', 1)
    elif workload == "classify-sweep":
        out = re.sub(r"(?m)^(entropy:\s+)(\S+)$",
                     lambda m: f"{m[1]}{float(m[2]) + 1e-3:.12f}", out, count=1)
    else:
        lines = out.splitlines(keepends=True)
        out = "".join(lines[:2] + lines[3:])  # drop the first path point
    return [(code, out, err, secs, error)] + list(results[1:])


def check_outputs(workload, cases, results):
    """The workload's output check per input: None or a reason."""
    import checks

    ref = corpus.load_reference()
    fn = checks.CHECKS[workload]
    reasons = []
    for case, (code, out, _, _, _) in zip(cases, results):
        try:
            reasons.append(fn(case, out, ref) if code == 0 else None)
        except Exception as exc:  # a malformed output fails its check
            reasons.append(f"check raised {exc!r}")
    return reasons


if __name__ == "__main__":
    sys.exit(main())
