#!/usr/bin/env python3
"""Self-check of the ndv end-to-end benchmark.

Runs every workload at the tiny size twice with the same seed, untraced and
traced, and asserts that:
  * each run is correct, attempted at least one op and failed none;
  * the JSON result carries exactly the metrics BENCHMARK.json names;
  * every workload-level end-to-end metric is printed for its workload;
  * the deterministic numbers repeat exactly between the two runs: the
    quality metrics, pack_bytes_per_row and the ingest counts.

Run from the repository root:  python3 perfbench/selfcheck.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

# The workload-level metric lines each workload prints.
PRINTED = {
    "analyze": ["setup_s", "rss_peak_mb", "analyze_ms_p50", "analyze_ms_p90",
                "wall.analyze_ms_p50", "pack_bytes_per_row", "refresh_ms_p50",
                "q_error_max", "q_error_p50", "bracket_miss_share",
                "bracket_width_p50", "speed_scale"],
    "serve": ["setup_s", "rss_peak_mb", "get_stats_us_p50",
              "get_stats_us_p90", "serve_req_per_cpu_s", "wall.serve_rps",
              "refresh_ms_p50", "q_error_max", "q_error_p50",
              "bracket_width_p50", "speed_scale"],
    "ingest": ["setup_s", "rss_peak_mb", "append_us_p50", "append_us_p90",
               "ingest_rows_per_cpu_s", "wall.ingest_rows_per_s",
               "refresh_ms_p50", "q_error_max", "q_error_p50",
               "bracket_miss_share", "bracket_width_p50", "speed_scale"],
}
# Numbers that depend only on the seed, never on timing.
DETERMINISTIC = {
    0: ["q_error_max", "q_error_p50", "bracket_hit_share",
        "bracket_width_p50", "pack_bytes_per_row"],
    1: ["storage.pack_bytes", "ingest.drift_fires", "ingest.reanalyzes",
        "ingest.reanalyze_failures", "ingest.publications",
        "ingest.useful_reanalyze_share", "ingest.useful_publication_share"],
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit("%s trace=%d exited %d:\n%s"
                 % (workload, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            name, value = line[len("metric "):].split(" = ")
            printed[name] = float(value.split()[0])
    return result, printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            first, first_printed = run(workload, trace)
            second, second_printed = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            for result in (first, second):
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append("%s: result keys %s"
                                    % (tag, sorted(result)))
                if not result["correct"] or result["failed"] != 0 or \
                        result["attempted"] < 1:
                    problems.append("%s: correct=%s attempted=%s failed=%s" % (
                        tag, result["correct"], result["attempted"],
                        result["failed"]))
                if sorted(result["metrics"]) != sorted(names[trace]):
                    problems.append("%s: metrics %s, expected %s" % (
                        tag, sorted(result["metrics"]), sorted(names[trace])))
            if trace == 0:
                missing = [n for n in PRINTED[workload]
                           if n not in first_printed]
                if missing:
                    problems.append("%s: not printed: %s" % (tag, missing))
            for name in DETERMINISTIC[trace]:
                a = first_printed.get(name)
                b = second_printed.get(name)
                if a != b:
                    problems.append("%s: %s differs between runs: %s vs %s"
                                    % (tag, name, a, b))
            print("ok  %s" % tag, flush=True)
    if problems:
        sys.exit("self-check failed:\n  " + "\n  ".join(problems))
    print("self-check passed")


if __name__ == "__main__":
    main()
