"""Command-line front end: reproducible, machine-readable output.

Every subcommand prints JSON on stdout (or CSV via --format csv, which only
the subcommands with flat output accept) and diagnostics on stderr, exits 0
on success and 2 on validation problems with the violated invariant named.
Stochastic subcommands take --seed; when it is omitted a fresh seed is drawn
and recorded in the output so any run can be replayed.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Iterator

from .binomial import bin_vs_mode, curve_log_measure
from .feasibility import (
    BasisLimitError,
    InfeasibleError,
    constrained_moment_bounds,
    constrained_vertices,
    feasible_point,
)
from .measure import (
    LN2,
    LogMeasure,
    _dirichlet_pdf,
    density_l,
    maximal_pmf,
    normalizing_constant,
    polytope_measure,
)
from .pmf import SumPmf, _num_to_json, entropy
from .polytope import _sigma_stream, entropy_bounds, moment_bounds
from .sampling import (
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
    estimate_tv_neighborhood_bound,
    sample_polytope_uniform,
)


def _parse_json_or_file(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if os.path.exists(text):
            with open(text) as fh:
                return json.load(fh)
        raise ValueError(f"not valid inline JSON and not a readable file: {text!r}")


def _load_sum_pmf(text: str) -> SumPmf:
    return SumPmf.from_json_obj(_parse_json_or_file(text))


def _load_theta(text: str) -> list:
    obj = _parse_json_or_file(text)
    if not isinstance(obj, list):
        raise ValueError("theta must be a JSON array of means")
    return obj


def _jsonable(v):
    return int(v) if isinstance(v, float) and v.is_integer() else _num_to_json(v)


def _log_or_none(m: LogMeasure):
    return None if m.is_zero else m.log_value


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record))
    else:
        _emit_rows([record], fmt)


def _emit_rows(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows))
        return
    if not rows:
        return
    keys = list(rows[0])
    print(",".join(keys))
    for row in rows:
        print(",".join("" if row[k] is None else str(row[k]) for k in keys))


def _require_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "big") >> 1  # 63 random bits, without importing secrets


def _extremal_lines(p: SumPmf, offset: int) -> Iterator[str]:
    """The `extremals` records, each exactly as json.dumps writes
    {"sigma": [...], "pmf": {"d": d, "atoms": [[i, p_k], ...]}}.

    Each level's mass is encoded once per stream.  A level's sigma digit and
    its atom fragment are rebuilt only when the odometer moves the level;
    a line then sorts the at most d + 1 atoms by index and joins the parts.
    """
    d = p.d
    support = p.support
    masses = [json.dumps(_jsonable(v)) for v in p.values]
    digits = [""] * (d + 1)
    atoms: list[tuple[int, str]] = [(0, "")] * len(support)
    head, mid, tail = '{"sigma": [', f'], "pmf": {{"d": {d}, "atoms": [', "]}}"
    for sigma, elems, low in _sigma_stream(p, offset):
        for k in range(low):
            digits[k] = str(sigma[k])
        for j, k in enumerate(support):
            if k >= low:
                break
            atoms[j] = (elems[k], f"[{elems[k]}, {masses[k]}]")
        yield head + ", ".join(digits) + mid + ", ".join([a for _, a in sorted(atoms)]) + tail


def _cmd_extremals(args) -> int:
    if args.offset < 0:
        raise ValueError("--offset must be >= 0")
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be >= 0")
    p = _load_sum_pmf(args.p)
    lines = itertools.islice(_extremal_lines(p, args.offset), args.limit)
    while batch := list(itertools.islice(lines, 1024)):
        sys.stdout.write("\n".join(batch) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    p = _load_sum_pmf(args.p)
    lower, upper = moment_bounds(p, args.order)
    _emit({"order": args.order, "lower": _jsonable(lower), "upper": _jsonable(upper)}, args.format)
    return 0


def _cmd_entropy_bounds(args) -> int:
    p = _load_sum_pmf(args.p)
    lo, hi = entropy_bounds(p)
    unit = "bits" if args.bits else "nats"
    if args.bits:
        lo, hi = lo / LN2, hi / LN2
    _emit({"min": lo, "max": hi, "unit": unit}, args.format)
    return 0


def _cmd_feasible(args) -> int:
    p = _load_sum_pmf(args.p)
    witness = feasible_point(p, _load_theta(args.theta))
    record: dict = {"feasible": witness is not None}
    if witness is not None:
        record["witness"] = witness.to_json_obj()
    print(json.dumps(record))
    return 0


def _cmd_constrained_vertices(args) -> int:
    p = _load_sum_pmf(args.p)
    for vertex in constrained_vertices(p, _load_theta(args.theta), max_bases=args.max_bases):
        print(json.dumps(vertex.to_json_obj()))
    return 0


def _cmd_constrained_bounds(args) -> int:
    p = _load_sum_pmf(args.p)
    subset = [int(tok) for tok in args.subset.split(",") if tok]
    lower, upper = constrained_moment_bounds(p, _load_theta(args.theta), subset, args.max_bases)
    _emit(
        {"subset": "|".join(str(j) for j in subset),
         "lower": _jsonable(lower), "upper": _jsonable(upper)},
        args.format,
    )
    return 0


def _cmd_measure(args) -> int:
    p = _load_sum_pmf(args.p)
    measures = polytope_measure(p)
    density = density_l(p)
    _emit(
        {
            "log_ambient": _log_or_none(measures["ambient"]),
            "log_intrinsic": _log_or_none(measures["intrinsic"]),
            "log_density": _log_or_none(density),
            "dirichlet_pdf": _dirichlet_pdf(density, p.d),
            "log_normalizing_constant": normalizing_constant(p.d).log_value,
        },
        args.format,
    )
    return 0


def _cmd_mode(args) -> int:
    p = maximal_pmf(args.d)
    if args.format == "json":
        print(json.dumps({"p": [_jsonable(float(v)) for v in p.values]}))
    else:
        _emit({f"p{k}": float(v) for k, v in enumerate(p.values)}, args.format)
    return 0


def _cmd_density(args) -> int:
    p = _load_sum_pmf(args.p)
    density = density_l(p)
    _emit(
        {"log_density": _log_or_none(density),
         "dirichlet_pdf": _dirichlet_pdf(density, p.d),
         "entropy_nats": entropy(p)},
        args.format,
    )
    return 0


def _cmd_sample(args) -> int:
    p = _load_sum_pmf(args.p)
    seed = _require_seed(args)
    gen = RngStream(seed, 0).generator()
    print(json.dumps({"seed": seed, "n": args.n, "d": p.d}))
    for _ in range(args.n):
        f = sample_polytope_uniform(p, gen)
        print(json.dumps(f.to_json_obj()))
    return 0


def _cmd_neighborhood(args) -> int:
    p = _load_sum_pmf(args.p)
    seed = _require_seed(args)
    spec = NeighborhoodSpec(
        center=p, epsilon=args.eps, metric=args.metric, paper_region=args.paper_sigma_s
    )
    rng = RngStream(seed, 0)
    if args.metric == "sup":
        report = estimate_neighborhood_measure(spec, args.n, rng, threads=args.threads)
    else:
        report = estimate_tv_neighborhood_bound(spec, args.n, rng, threads=args.threads)
    _emit(
        {
            "metric": args.metric,
            "epsilon": args.eps,
            "seed": seed,
            "n": report.n_samples,
            "log_estimate": _log_or_none(report.point_estimate),
            "estimate": report.point_estimate.value,
            "std_error": report.std_error,
            "acceptance_rate": report.acceptance_rate,
        },
        args.format,
    )
    return 0


def _cmd_binomial_scan(args) -> int:
    if args.points < 2:
        raise ValueError("need at least 2 scan points")
    rows = []
    for j in range(args.points):
        theta = j / (args.points - 1)
        rows.append({"theta": theta, "log_measure": _log_or_none(curve_log_measure(theta, args.d))})
    _emit_rows(rows, args.format)
    return 0


def _cmd_bin_vs_mode(args) -> int:
    rows = []
    for d in range(2, args.dmax + 1):
        r = bin_vs_mode(d)
        rows.append({"d": d, "d_sup": r["d_sup"], "log_measure_gap": r["log_measure_gap"]})
    _emit_rows(rows, args.format)
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _at_least(low: int):
    """An argparse type: an integer that must be >= low."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


_at_least_one = _at_least(1)  # --threads, --max-bases, binomial-scan --d
_at_least_zero = _at_least(0)  # sample -n: 0 prints the header alone


def _thread_count(text: str) -> int:
    """--threads: an integer >= 1; the default "auto" counts usable CPUs at each parse."""
    return _usable_cpus() if text == "auto" else _at_least_one(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernsum",
        description="Geometry of Bernoulli sum classes: vertices, bounds, measures, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # JSON lines or nested records: these have no CSV form.
    nested = {"extremals", "feasible", "constrained-vertices", "sample"}

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        if name not in nested:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        return sp

    sp = add("extremals", _cmd_extremals, help="stream the vertices of the fiber over p")
    sp.add_argument("--p", required=True, help="sum pmf: inline JSON array or file path")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--offset", type=int, default=0)

    sp = add("bounds", _cmd_bounds, help="sharp cross-moment bounds of a given order")
    sp.add_argument("--p", required=True)
    sp.add_argument("--order", type=int, required=True)

    sp = add("entropy-bounds", _cmd_entropy_bounds, help="entropy range over the fiber")
    sp.add_argument("--p", required=True)
    sp.add_argument("--bits", action="store_true", help="report in bits instead of nats")

    sp = add("feasible", _cmd_feasible, help="decide whether the mean-constrained fiber is nonempty")
    sp.add_argument("--p", required=True)
    sp.add_argument("--theta", required=True, help="mean vector: inline JSON array or file path")

    sp = add("constrained-vertices", _cmd_constrained_vertices,
             help="exact vertices of the mean-constrained fiber")
    sp.add_argument("--p", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--max-bases", type=_at_least_one, default=None,
                    help="abort with an error if the basis walk exceeds this budget")

    sp = add("constrained-bounds", _cmd_constrained_bounds,
             help="cross-moment bounds over the mean-constrained fiber")
    sp.add_argument("--p", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--subset", required=True, help="comma-separated coordinates, e.g. 1,2")
    sp.add_argument("--max-bases", type=_at_least_one, default=None,
                    help="abort with an error if the two LP solves together take more simplex "
                         "pivots than this")

    sp = add("measure", _cmd_measure, help="Hausdorff measures and density at p")
    sp.add_argument("--p", required=True)

    sp = add("mode", _cmd_mode, help="the sum pmf with the largest fiber measure")
    sp.add_argument("--d", type=int, required=True)

    sp = add("density", _cmd_density, help="fiber density and Dirichlet pdf at p")
    sp.add_argument("--p", required=True)

    sp = add("sample", _cmd_sample, help="uniform draws from the fiber over p (JSON lines)")
    sp.add_argument("--p", required=True)
    sp.add_argument("-n", type=_at_least_zero, default=10)
    sp.add_argument("--seed", type=int, default=None)

    sp = add("neighborhood", _cmd_neighborhood, help="Monte Carlo measure of a metric ball")
    sp.add_argument("--p", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--metric", choices=("sup", "tv"), default="sup")
    sp.add_argument("-n", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=_thread_count, default="auto")
    sp.add_argument("--paper-sigma-s", action="store_true",
                    help="use the looser parameterized region without the last-coordinate window")

    sp = add("binomial-scan", _cmd_binomial_scan, help="(theta, log fiber measure) table")
    sp.add_argument("--d", type=_at_least_one, required=True)
    sp.add_argument("--points", type=int, default=101)

    sp = add("bin-vs-mode", _cmd_bin_vs_mode, help="distance of b(1/2) from the maximal pmf by dimension")
    sp.add_argument("--dmax", type=_at_least(2), required=True)

    return parser


# Parsing leaves the parser as it was, so one instance serves every call.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (ValueError, InfeasibleError, BasisLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`bernsum extremals ... | head -1`).
        # Point stdout at devnull so the flush at exit cannot fail again, and
        # exit 141, as a writer killed by SIGPIPE reports under pipefail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
