"""regpart benchmark: seeded workloads, each one regpart CLI command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run writes its inputs from --seed into
bench/.work/NAME/, then repeats until --seconds have passed: a repetition
may time one set-up (loading those files through regpart.io), then runs
the workload's CLI command, each in a fresh interpreter (bench/worker.py).
Every repetition's output is checked by bench/checker.py outside the timed
region.

--trace 0 reports the end-to-end metrics. The command and set-up times are
host-normalized seconds: each wall time is divided by that of a fixed
reference loop run in the same interpreter right before and after it
(bench/worker.py) and multiplied by NOMINAL_REF_S, which cancels most of a
shared host's drifting speed. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced
repetition with the median command time, plus trace_overhead_s and
uncertified_mass_share. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
details (input hashes, every sample, every failure). See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import checker
import inputs
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")

MIN_REPS = 3
SETUP_SHARE = 0.25
# Stop starting repetitions this many seconds into a run, whatever --seconds
# says, so that a run ends within its 180 s limit even if the program slows
# badly; a repetition started late is cut off 20 s after this limit.
HARD_LIMIT_S = 130
# A timing is reported as the seconds it would take on a host that runs the
# reference loop in exactly this long: about what a 2-vCPU Xeon guest takes
# while the machine under it is quiet (it took 33-75 ms as load varied).
NOMINAL_REF_S = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "regularize" or "check"
    family: str  # "graded" or "half"
    class_sizes: tuple  # input partition: consecutive classes of these sizes
    epsilon: str
    exit_codes: tuple

    @property
    def n(self):
        return sum(self.class_sizes)


# Why each workload was chosen and what it stresses: bench/README.md. Exit
# codes: graded-refine must end regular (0); large-check is heuristically
# regular (2) while its large pairs stay unknown, irregular (4) if its
# witnessed mass ever passes eps * n^2, or regular (0) once all are certified.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("graded-refine", "regularize", "graded", (192,), "1/8", (0,)),
        Workload(
            "large-check",
            "check",
            "half",
            (244, 244, 12, 12, 12, 12, 244, 244),
            "1/3",
            (0, 2, 4),
        ),
    )
}


def make_inputs(workload, seed, workdir):
    """Write the workload's edge and partition files; return paths, edges, hashes."""
    n = workload.n
    if workload.family == "graded":
        edges = inputs.graded_edges(n, seed)
    else:
        edges = inputs.half_edges(n, seed)
    classes = inputs.consecutive_classes(workload.class_sizes)
    paths = {
        "graph": os.path.join(workdir, "graph.txt"),
        "partition": os.path.join(workdir, "partition.txt"),
    }
    hashes = {
        "graph.txt": inputs.write_file(paths["graph"], inputs.edge_list_text(edges)),
        "partition.txt": inputs.write_file(
            paths["partition"], inputs.partition_text(classes)
        ),
    }
    return paths, edges, classes, hashes


def command_argv(workload, paths, outputs):
    argv = [
        workload.command,
        "--graph", paths["graph"],
        "--partition", paths["partition"],
        "--epsilon", workload.epsilon,
    ]
    if workload.command == "regularize":
        argv += ["--out", outputs["out"], "--trace", outputs["trace"]]
    return argv


def run_worker(spec, timeout):
    """One worker in a fresh interpreter: (result dict or None, problem or None)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"no result within {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, f"worker printed no result: {lines[-1][:200]!r}"


def time_left(start):
    """Timeout for a worker started now, in a run that started at start."""
    return max(10.0, HARD_LIMIT_S + 20 - (time.perf_counter() - start))


def read_outputs(outputs):
    files = {}
    for key, path in outputs.items():
        with open(path) as fh:
            files[key] = fh.read()
    return files


def uncertified_share(workload, body, paths):
    """Mass of unknown ordered pairs in the final report over n^2.

    body is the command's stdout JSON.
    """
    n = workload.n
    if workload.command == "check":
        sizes = [len(c) for c in body["classes"]]
        mass = sum(
            sizes[e["pair"][0]] * sizes[e["pair"][1]]
            for e in body["classifications"]
            if e["kind"] == checker.UNKNOWN
        )
        return float(Fraction(mass, n * n))
    # The final report of regularize is check_partition of its final
    # partition, which is deterministic; recompute it outside any timing.
    from regpart import Partition, check_partition
    from regpart.io import load_edge_list

    graph = load_edge_list(paths["graph"], n=n)
    final = Partition.from_sets(body["final"], n)
    report = check_partition(graph, final, workload.epsilon)
    mass = sum(
        final[a].size * final[b].size
        for (a, b), clf in report.classifications.items()
        if clf.kind == checker.UNKNOWN
    )
    return float(Fraction(mass, n * n))


def run(workload, seed, seconds, trace):
    """Run one workload; return (details, summary), the last two output lines.

    A repetition may time one set-up, then runs the command, each in its own
    fresh interpreter, so set-up samples spread over the whole run as
    command samples do.
    """
    start = time.perf_counter()
    workdir = os.path.join(WORK, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    paths, edges, classes, hashes = make_inputs(workload, seed, workdir)
    check = checker.Checker(
        workload.command, workload.n, edges, classes, workload.epsilon, workload.exit_codes
    )
    del edges
    outputs = {}
    if workload.command == "regularize":
        outputs = {
            "out": os.path.join(workdir, "final.txt"),
            "trace": os.path.join(workdir, "trace.json"),
        }
    argv = command_argv(workload, paths, outputs)
    spans_path = os.path.join(workdir, "spans.json")

    untraced, traced, failures, setup_samples = [], [], [], []
    attempted = 0
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now - start >= HARD_LIMIT_S or (
            now - loop_start >= seconds and attempted >= MIN_REPS
        ):
            break
        traced_rep = trace and attempted % 2 == 1
        run_id = f"{workload.name}-s{seed}-r{attempted}"
        attempted += 1
        for path in outputs.values():
            if os.path.exists(path):
                os.remove(path)
        # Set-up is timed on as many repetitions as keep it under a quarter
        # of the run: every one for small inputs, fewer for large-check,
        # whose load costs about half of the command.
        problem = result = None
        wall_setup_s = sum(sample["setup_s"] for sample in setup_samples)
        if wall_setup_s <= SETUP_SHARE * (now - loop_start):
            loaded, problem = run_worker({"src": SRC, "load": paths}, time_left(start))
            if loaded is not None:
                setup_samples.append(loaded)
        if problem is None:
            spec = {
                "src": SRC,
                "argv": argv,
                "run_id": run_id,
                "spans": spans_path if traced_rep else None,
            }
            result, problem = run_worker(spec, time_left(start))
        if result is not None:
            try:
                files = read_outputs(outputs)
            except OSError as exc:
                problem = f"output file missing: {exc}"
            else:
                problems = check.check(result["exit_code"], result["stdout"], files)
                if traced_rep:
                    problems = problems + trace_problems(result["layers"])
                if problems:
                    problem = "; ".join(problems)
            (traced if traced_rep else untraced).append(result)
        if problem is not None:
            failures.append(f"{run_id}: {problem}")
            print(failures[-1], file=sys.stderr)

    if not untraced or not setup_samples or (trace and not traced):
        raise SystemExit(f"{workload.name}: no repetition produced a measurement")
    run_s = [normalized(r, "run_s") for r in untraced]
    setup_s = [normalized(sample, "setup_s") for sample in setup_samples]
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "n": workload.n,
        "input_sha256": hashes,
        "samples": {
            "run_s": run_s,
            "setup_s": setup_s,
            "wall_run_s": [r["run_s"] for r in untraced],
            "wall_setup_s": [sample["setup_s"] for sample in setup_samples],
            "ref_s": [r["ref_s"] for r in untraced + setup_samples],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "traced_run_s": [r["run_s"] for r in traced],
        },
        "exit_codes": sorted({r["exit_code"] for r in untraced + traced}),
        "failures": failures,
    }
    if trace:
        # Report one whole traced repetition, so its self times still add up.
        traced_s = statistics.median_low(r["run_s"] for r in traced)
        rep = next(r for r in traced if r["run_s"] == traced_s)
        layers = dict(rep["layers"])
        body = json.loads(rep["stdout"])
        layers["driver.refine_rounds"] = body.get("refine_count", 0)
        layers["driver.final_classes"] = body.get("num_classes", len(classes))
        layers["trace_overhead_s"] = traced_s - statistics.median(
            r["run_s"] for r in untraced
        )
        layers["uncertified_mass_share"] = uncertified_share(workload, body, paths)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    else:
        metrics = {
            "run_s": (statistics.median(run_s), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, summary


def normalized(sample, key):
    """sample[key], a wall time in seconds, scaled to the nominal host speed."""
    return sample[key] * NOMINAL_REF_S / statistics.fmean(sample["ref_s"])


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def trace_problems(layers):
    """The self times of a traced command must add up to its root span."""
    self_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    if abs(self_sum - layers["trace.span_wall_s"]) > 1e-6:
        return [f"layer self times sum to {self_sum}, root span is {layers['trace.span_wall_s']}"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regpart", "__init__.py")):
        print(f"regpart sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    details, summary = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
