#!/usr/bin/env python3
"""Builds and runs the swandb measured host-time benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_hot --seed 1 --seconds 5 --trace 0

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, runs the generator self-test, then runs one
workload of swan_perfbench. Its output is passed through; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the span file the binary writes is validated here, per-layer
self times are computed from it, and they join the per-layer metrics.

    python3 perfbench/run.py --selftest     # build and run the self-test only
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

--workload all runs every workload in turn, each with its own result
line, then prints whether all of them were correct and exits 1 if not.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "swan_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
TRACES = os.path.join(BUILD, "traces")

WORKLOADS = ["paper_hot", "paper_cold", "sparql_mixed"]

# Layers of the span names (the prefix before the first '.'); "backend"
# is the Match time the timing backend records inside core.execute_plan.
LAYERS = ["bench", "storage", "core", "backend", "serve", "sparql", "plan"]

RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stderr=None):
    """Runs cmd in its own process group and returns (exit code, stdout).

    On timeout the whole group (make's compilers included) is killed and
    reaped before this fails, so no process outlives the benchmark.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out.decode(errors="replace")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    code, out = run(cmd, timeout, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-20000:])
        fail("failed (exit %d): %s" % (code, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; the benchmark builds "
              "the library from the repository", file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(max(1, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "swan_perfbench", "perfbench_selftest"], 850)
    run_logged([SELFTEST], 60)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        code, out = run(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                        stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return out.strip() if code == 0 and out.strip() else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def load_spans(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines:
        fail("empty span file " + path)
    return lines[0], lines[1:]


def validate_spans(spans, workload):
    """Checks the span file; returns a list of problems (empty = valid)."""
    problems = []
    by_id = {}
    for s in spans:
        if s["end_ns"] < 0:
            problems.append("span %d (%s) never closed" % (s["id"], s["name"]))
        elif s["end_ns"] < s["start_ns"]:
            problems.append("span %d ends before it starts" % s["id"])
        by_id[s["id"]] = s
    roots = [s for s in spans if s["parent"] == 0]
    root_requests = set()
    for r in roots:
        if r["request"] in root_requests:
            problems.append("request id %d has two roots" % r["request"])
        root_requests.add(r["request"])
    serve_per_request = {}
    for s in spans:
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append("span %d has no parent %d" % (s["id"], s["parent"]))
            continue
        if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            problems.append("span %d (%s) is not inside its parent %d"
                            % (s["id"], s["name"], parent["id"]))
        if s["request"] != parent["request"]:
            problems.append("span %d changes request id" % s["id"])
        if s["name"] == "serve.request":
            serve_per_request[s["request"]] = \
                serve_per_request.get(s["request"], 0) + 1
        if s["name"].split(".")[0] not in LAYERS:
            problems.append("span %d has unknown layer %s" % (s["id"], s["name"]))
    if workload == "sparql_mixed":
        for r in roots:
            if serve_per_request.get(r["request"], 0) != 1:
                problems.append("request %d has %d served requests"
                                % (r["request"],
                                   serve_per_request.get(r["request"], 0)))
    if not roots:
        problems.append("no spans recorded")
    return problems


def self_times(spans):
    """Per-layer self time (ms per operation) and the unaccounted share.

    A span's self time is its duration minus its children's (the benchmark's
    calls never overlap). Match time recorded inside core.execute_plan
    goes to the "backend" layer. The unaccounted share is the roots' own
    self time over the roots' duration: operation time no layer covers.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    self_ns = {layer: 0.0 for layer in LAYERS}
    root_ns = root_self_ns = 0
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        own = duration - sum(c["end_ns"] - c["start_ns"]
                             for c in children.get(s["id"], []))
        match_ns = s["counters"].get("match_ns", 0.0)
        self_ns[s["name"].split(".")[0]] += own - match_ns
        self_ns["backend"] += match_ns
        if s["parent"] == 0:
            root_ns += duration
            root_self_ns += own
    ops = max(1, len(children.get(0, [])))
    per_op = {layer: ns / 1e6 / ops for layer, ns in self_ns.items()}
    return per_op, 100.0 * root_self_ns / root_ns if root_ns else 0.0


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, args):
    """Runs one workload; prints its output and result line, returns it."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git", git_commit(), "--source-digest", source_digest()]
    trace_path = os.path.join(TRACES, "%s-seed%d.jsonl"
                              % (workload, args.seed))
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        cmd += ["--trace-out", trace_path]
    code, out = run(cmd, RUN_TIMEOUT_S)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("swan_perfbench exited with %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("swan_perfbench printed no result line")
    print("\n".join(lines[:-1]))

    if args.trace:
        header, spans = load_spans(trace_path)
        problems = validate_spans(spans, workload)
        for p in problems[:20]:
            print("SPAN FILE INVALID: " + p)
        if problems:
            result["correct"] = False
        per_op, unaccounted = self_times(spans)
        print("span file %s: %d spans, valid: %s"
              % (os.path.relpath(trace_path, ROOT), len(spans),
                 "yes" if not problems else "NO"))
        print("per-layer self time, %s (ms per operation, %d operations):"
              % (workload, header.get("operations", 0)))
        for layer in LAYERS:
            print("  %-8s %12.4f ms" % (layer, per_op[layer]))
        print("  unaccounted by any layer span: %.2f%% of operation wall time"
              % unaccounted)
        print("  obs.trace_overhead_pct: %.2f%%"
              % result["metrics"]["obs.trace_overhead_pct"]["value"])
        for layer in LAYERS:
            result["metrics"]["obs.self_ms." + layer] = {
                "value": per_op[layer], "unit": "ms"}
        result["metrics"]["obs.unaccounted_pct"] = {
            "value": unaccounted, "unit": "%"}

    expected = expected_metrics(args.trace)
    got = list(result["metrics"].keys())
    if sorted(expected) != sorted(got):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    print(json.dumps(result))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.selftest:
        return
    if args.workload is None:
        fail("--workload is required")
    if args.workload != "all":
        run_workload(args.workload, args)
        return
    incorrect = []
    for workload in WORKLOADS:
        print("== workload %s" % workload)
        if not run_workload(workload, args)["correct"]:
            incorrect.append(workload)
    print("all workloads: %s" % ("correct" if not incorrect else
                                 "INCORRECT: " + ", ".join(incorrect)))
    if incorrect:
        sys.exit(1)


if __name__ == "__main__":
    main()
