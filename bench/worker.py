"""Run one regpart CLI command, or one set-up, in a fresh interpreter.

    python3 bench/worker.py '<spec>'

spec is a JSON object. "src" is the directory holding the regpart package.
With "load" ({"graph": path, "partition": path}) the worker times loading
those files the way the CLI does and prints {"setup_s": seconds, "ref_s":
[seconds, seconds]}.
Otherwise it runs "argv" through regpart.cli.main; "run_id" names the run
and "spans" is a path to write the span trace to, or null for an untraced
run, which installs no wrapper at all. The command is timed after every
import, with stdout and stderr captured in memory, and the worker prints
one JSON line: exit_code, run_s, peak_rss_mb, stdout, stderr, and for a
traced run the per-layer metrics of its spans. The reference loop runs
right before and right after the timed load or command, and its two times
are printed as ref_s, so that the timed work can be read relative to the
speed the host gave this interpreter at that moment.
"""

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from itertools import combinations


def reference_loop():
    """Time a fixed piece of pure-Python work; return its wall time in seconds.

    It mixes the kinds of work regpart does: parsing "u v" lines into a dict,
    int-bitmask intersections over subset enumeration, and Fraction sums. It
    takes 33-75 ms on a 2-vCPU Xeon guest, as the load on the machine under
    it varies. Nothing in it depends on regpart, so its time changes only
    with the speed of the host.
    """
    lines = [f"{u} {v}" for u in range(200) for v in range(u + 1, 200, 2)]
    rows = [(u * 2654435761) & ((1 << 18) - 1) for u in range(18)]
    start = time.perf_counter()
    seen = {}
    for lineno, line in enumerate(lines):
        u, v = (int(part) for part in line.split())
        seen[(min(u, v), max(u, v))] = lineno
    hits = 0
    for xs in combinations(range(20), 4):
        mask = 0
        for x in xs:
            mask |= 1 << x
        hits += sum((row & mask).bit_count() for row in rows)
    total = Fraction(0)
    for k in range(1, 3000):
        total += Fraction(k % 11, k)
    if len(seen) != len(lines) or hits <= 0 or total <= 0:
        raise AssertionError("reference loop computed a wrong result")
    return time.perf_counter() - start


def load(paths):
    from regpart.io import load_edge_list, load_partition

    ref_before = reference_loop()
    start = time.perf_counter()
    partition = load_partition(paths["partition"])
    load_edge_list(paths["graph"], n=partition.ground_size)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "ref_s": [ref_before, reference_loop()]}


def command(spec):
    import regpart.cli

    tracer = None
    if spec["spans"]:
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    out = io.StringIO()
    err = io.StringIO()
    ref_before = reference_loop()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = regpart.cli.main(spec["argv"])
        run_s = time.perf_counter() - start
    ref_after = reference_loop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "exit_code": code,
        "run_s": run_s,
        "ref_s": [ref_before, ref_after],
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(spec["spans"])
        result["layers"] = layer_metrics(tracer.spans)
    return result


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    result = load(spec["load"]) if "load" in spec else command(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
