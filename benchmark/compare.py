"""A/A and cross-seed spread checks over the runner's last-line JSON.

Called by run.sh; reads workloads, bounds and run length from BENCHMARK.json.
"""
import json
import statistics
import subprocess
import sys


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def aa(binary, bench, seed):
    """Every workload twice on one seed: set A, then set B."""
    names = [w["name"] for w in bench["workloads"]]
    sets = [{w: run(binary, w, seed, bench["run_seconds"]) for w in names} for _ in range(2)]
    bad = 0
    print(f"{'workload':<20} {'metric':<24} {'A':>14} {'B':>14} {'gap':>8} {'bound':>7}")
    for w in names:
        for metric in bench["end_to_end"]:
            a, b = (s[w][metric["name"]] for s in sets)
            gap = abs(worse_by(metric, a, b))
            exact = metric["bound"] < 0.01
            failed = (a != b) if exact else gap > metric["bound"]
            bad += failed
            flag = "  FAIL" if failed else ""
            print(f"{w:<20} {metric['name']:<24} {a:>14.6g} {b:>14.6g} {gap:>8.2%} {metric['bound']:>7.1%}{flag}")
    return bad


def spread(binary, bench, runs):
    """Every workload on seeds 1..runs: quartile distance over median."""
    bad = 0
    print(f"{'workload':<20} {'metric':<24} {'median':>14} {'spread':>8} {'bound':>7}  (want spread < bound/3)")
    for w in (w["name"] for w in bench["workloads"]):
        results = [run(binary, w, seed, bench["run_seconds"]) for seed in range(1, runs + 1)]
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            over = share > metric["bound"] and metric["name"] != "setup_s"
            bad += over
            flag = "  FAIL" if over else ("  wide" if share > metric["bound"] / 3 else "")
            print(f"{w:<20} {metric['name']:<24} {statistics.median(values):>14.6g} {share:>8.2%} {metric['bound']:>7.1%}{flag}", flush=True)
    return bad


def main():
    binary, bench_path, mode, *rest = sys.argv[1:]
    with open(bench_path) as f:
        bench = json.load(f)
    if mode == "--aa":
        bad = aa(binary, bench, int(rest[0]) if rest else 1)
    else:
        bad = spread(binary, bench, int(rest[0]) if rest else 10)
    sys.exit(1 if bad else 0)


main()
