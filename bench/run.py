"""qnnbench benchmark: time-to-table and table quality for one workload.

Usage, from the root of the repository:

    python3 bench/run.py --workload gates|iris|witness --seed N \
        --seconds S --trace 0|1 [--base-seed B]

Set-up time is taken as the median of several fresh interpreters that import
qnnbench and build the workload's datasets. The workload itself then runs in
one more fresh interpreter (bench/workload.py) with BLAS threads pinned to 1.
The table's trial seeds are base-seed + 0, 1, ...; --seed only fixes the
order in which nets and seeds reach the runner, which must not change the
table. With --trace 1 the per-layer metrics are reported instead of the
end-to-end ones.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_SCRIPT = os.path.join(HERE, "workload.py")

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# Metrics printed for reading but not part of BENCHMARK.json: each is 0 on
# some workload at this commit, or exists on one workload only.
EXTRA_UNITS = {
    "converged_frac": "frac",
    "accuracy_pct_mean": "%",
    "failed_frac": "frac",
    "rows_moved": "count",
    "cvnn.skipped_pairs": "count",
    "qnn.param_norm_max": "1",
}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, deadline):
    """Run workload.py with args; return its last stdout line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, WORKLOAD_SCRIPT] + args,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload, base_seed, deadline):
    """Median time from starting an interpreter to the end of set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        ready = float(
            run_child(
                ["--workload", workload, "--base-seed", str(base_seed), "--setup-only"],
                deadline,
            )
        )
        samples.append(ready - start)
    return statistics.median(samples), samples


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description="qnnbench time-to-table benchmark")
    parser.add_argument("--workload", required=True, choices=("gates", "iris", "witness"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.base_seed < 0:
        parser.error("seeds must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "qnnbench", "__init__.py")):
        print(f"error: no qnnbench sources under {ROOT}/src", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_specs()
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    setup_s, setup_samples = setup_seconds(args.workload, args.base_seed, deadline)
    result = json.loads(
        run_child(
            [
                "--workload", args.workload,
                "--base-seed", str(args.base_seed),
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
    )

    attempted = result["attempted"]
    failed = min(len(result["failed"]), attempted)
    correct = failed == 0 and not result["problems"]
    values = {
        "wall_s": result["wall_s"],
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted,
        "rows_moved": result["rows_moved"],
        "cvnn.skipped_pairs": result["skipped_pairs"],
        "qnn.param_norm_max": result["param_norm_max"],
        **result["quality"],
        **result.get("layers", {}),
    }

    versions = result["versions"]
    print(
        f"# workload {args.workload}  base seed {args.base_seed}  order seed {args.seed}"
        f"  trace {args.trace}  passes {result['passes']}"
    )
    print(
        "# python {python}  numpy {numpy}  blas {blas}  nproc {nproc}"
        "  blas threads {blas_threads}".format(**versions)
    )
    print(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in setup_samples)}")
    for key, problems in result["failed"]:
        print(f"# FAILED {tuple(key)}: {'; '.join(problems)}")
    for problem in result["problems"]:
        print(f"# PROBLEM {problem}")
    if "spans" in result:
        print(f"# {result['spans']['count']} spans written to {result['spans']['file']}")
        for name, own in result["self_s"].items():
            print(f"# self time {name:<30} {own:12.4f} s")
    listed = end_to_end + (per_layer if args.trace else [])
    names = [m["name"] for m in listed]
    units = {m["name"]: m["unit"] for m in listed}
    units.update(EXTRA_UNITS)
    for name in names + [n for n in EXTRA_UNITS if n not in names]:
        if values.get(name) is not None:
            print(f"{name:<36} {values[name]:>16.6f} {units[name]}")

    reported = per_layer if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(
        os.path.join(out_dir, f"result_{args.workload}_trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as handle:
        json.dump({"args": vars(args), "values": values, "child": result}, handle, indent=1)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
