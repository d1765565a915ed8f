"""Command-line front end.

Three subcommands: gen writes a seeded random edge list, regularize runs the
alternating iteration on a graph file, check classifies a given partition.
Machine-readable JSON goes to stdout, human-readable progress to stderr.

Exit codes: regularize 0 regular, 2 heuristically regular, 3 class budget
exceeded; check 0 regular and balanced, 2 heuristically regular, 4 irregular
or unbalanced; 1 for a usage error, malformed input or I/O trouble on any
subcommand.
"""

import argparse
import json
import sys

from .driver import (
    DEFAULT_MAX_CLASSES,
    STATUS_BUDGET,
    balanced_irregularity_bound,
    regularize,
)
from .errors import BadParamsError, RegPartError
from .generate import gnp, planted
from .graph import energy, require_epsilon
from .io import (
    dump_edge_list,
    dump_partition,
    dump_trace_json,
    load_edge_list,
    load_partition,
    plain,
    report_json,
)
from .refine import is_balanced
from .regularity import (
    VERDICT_HEURISTICALLY_REGULAR,
    VERDICT_REGULAR,
    check_partition,
)

_REGULARIZE_EXIT = {
    VERDICT_REGULAR: 0,
    VERDICT_HEURISTICALLY_REGULAR: 2,
    STATUS_BUDGET: 3,
}
# any other verdict, or an unbalanced partition, exits 4
_CHECK_EXIT = {VERDICT_REGULAR: 0, VERDICT_HEURISTICALLY_REGULAR: 2}
# each gen model's generator and the options it takes, in call order
_MODELS = {
    "gnp": (gnp, ("n", "p")),
    "planted": (planted, ("blocks", "block_size", "p_in", "p_out")),
}


def _log(message):
    print(message, file=sys.stderr)


def _emit(payload):
    print(json.dumps(payload, indent=2))


def cmd_gen(args):
    generator, names = _MODELS[args.model]
    params = {name: getattr(args, name) for name in names}
    for name, value in params.items():
        if value is None:
            flag = name.replace("_", "-")
            raise BadParamsError(f"--{flag} is required for this model")
    g = generator(*params.values(), args.seed)
    dump_edge_list(g, args.out)
    _log(f"wrote {args.out}: n={g.n}, {g.edge_count} edges")
    _emit(
        {
            "model": args.model,
            **params,
            "seed": args.seed,
            "n": g.n,
            "edges": g.edge_count,
            "out": args.out,
        }
    )
    return 0


def cmd_regularize(args):
    eps = require_epsilon(args.epsilon)
    p0 = load_partition(args.partition) if args.partition else None
    n = args.n if args.n is not None else (p0.ground_size if p0 else None)
    g = load_edge_list(args.graph, n=n)
    trace = regularize(g, p0, eps, max_classes=args.max_classes)
    if args.out:
        dump_partition(trace.final, args.out)
        _log(f"wrote final partition to {args.out}")
    if args.trace:
        dump_trace_json(trace, args.trace)
        _log(f"wrote trace to {args.trace}")
    _log(
        f"status {trace.status} after {trace.refine_count} refinement steps; "
        f"{len(trace.final)} classes"
    )
    _emit(
        {
            "status": trace.status,
            "refine_count": trace.refine_count,
            "steps": len(trace.steps),
            "num_classes": len(trace.final),
            # The last step recorded the final partition's energy; a run
            # stopped by the budget before its first check recorded none.
            "energy": plain(
                trace.steps[-1].energy if trace.steps else energy(g, trace.final)
            ),
            "final": plain(trace.final),
        }
    )
    return _REGULARIZE_EXIT[trace.status]


def cmd_check(args):
    eps = require_epsilon(args.epsilon)
    p = load_partition(args.partition)
    g = load_edge_list(args.graph, n=p.ground_size)
    report = check_partition(g, p, eps)
    cert = is_balanced(p, eps)
    bound = balanced_irregularity_bound(report)
    payload = report_json(report)
    payload["balance"] = plain(cert)
    payload["core_irregularity"] = plain(bound)
    _log(f"verdict {report.verdict}; balanced={cert.balanced}")
    _emit(payload)
    return _CHECK_EXIT.get(report.verdict, 4) if cert.balanced else 4


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, not 2, which means "heuristically regular"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="regpart",
        description="Balanced regular partitions of finite graphs, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random edge list")
    gen.add_argument("--model", required=True, choices=list(_MODELS))
    gen.add_argument("--n", type=int, help="vertex count (gnp)")
    gen.add_argument("--p", help="edge probability (gnp), exact rational")
    gen.add_argument("--blocks", type=int, help="block count (planted)")
    gen.add_argument("--block-size", type=int, help="vertices per block (planted)")
    gen.add_argument("--p-in", help="within-block probability (planted)")
    gen.add_argument("--p-out", help="cross-block probability (planted)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="edge-list file to write")
    gen.set_defaults(func=cmd_gen)

    common = {
        "--graph": dict(required=True, help="edge-list file"),
        "--epsilon": dict(required=True, help="exact rational, e.g. 1/4 or 0.25"),
    }

    reg = sub.add_parser("regularize", help="run the alternating iteration")
    for flag, kw in common.items():
        reg.add_argument(flag, **kw)
    reg.add_argument(
        "--n", type=int, help="vertex count override (needed for edgeless files)"
    )
    reg.add_argument("--partition", help="initial partition file (default: one class)")
    reg.add_argument("--max-classes", type=int, default=DEFAULT_MAX_CLASSES)
    reg.add_argument("--trace", help="JSON trace file")
    reg.add_argument("--out", help="file for the final partition")
    reg.set_defaults(func=cmd_regularize)

    chk = sub.add_parser("check", help="classify a given partition")
    for flag, kw in common.items():
        chk.add_argument(flag, **kw)
    chk.add_argument("--partition", required=True, help="partition file to check")
    chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegPartError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
