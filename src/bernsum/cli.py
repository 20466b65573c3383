"""Command-line front end: reproducible, machine-readable output.

Every subcommand prints JSON on stdout (or CSV via --format csv, which only
the subcommands with flat output accept) and diagnostics on stderr, exits 0
on success and 2 on validation problems with the violated invariant named.
--p and --theta take inline JSON or the path of a readable JSON file; a path
that cannot be read, or that holds malformed JSON, exits 2 naming the path.
Stochastic subcommands take --seed; when it is omitted a fresh seed is drawn
and recorded in the output so any run can be replayed.
"""
from __future__ import annotations

import argparse
import bisect
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
from .indexing import _check_dimension
from .measure import (
    LN2,
    LogMeasure,
    density_l,
    dirichlet_pdf,
    maximal_pmf,
    normalizing_constant,
    polytope_measure,
)
from .pmf import SumPmf, _num_to_json, entropy
from .polytope import _runs, entropy_bounds, moment_bounds
from .sampling import (
    NeighborhoodSpec,
    RngStream,
    _usable_cpus,
    estimate_neighborhood_measure,
    sample_polytope_uniform,
)


def _parse_json_or_file(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if not os.path.exists(text):
            raise ValueError(f"not valid inline JSON and not a readable file: {text!r}") from None
    try:
        with open(text) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {text!r}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ValueError(f"{text!r} is not valid JSON: {exc}") from None


def _load_theta(text: str) -> list:
    obj = _parse_json_or_file(text)
    if not isinstance(obj, list):
        raise ValueError("theta must be a JSON array of means")
    return obj


def _jsonable(v):
    return int(v) if isinstance(v, float) and v.is_integer() else _num_to_json(v)


def _log_or_none(m: LogMeasure):
    return None if m.is_zero else m.log_value


def _emit(out: dict | list[dict], fmt: str) -> None:
    """JSON as one value; CSV as a header and one line per row."""
    if fmt == "json":
        print(json.dumps(out))
        return
    rows = out if isinstance(out, list) else [out]
    print(",".join(rows[0]))
    for row in rows:
        print(",".join("" if v is None else str(v) for v in row.values()))


def _require_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "big") >> 1  # 63 random bits, without importing secrets


def _extremal_lines(p: SumPmf, offset: int) -> Iterator[str]:
    """The `extremals` records, each exactly as json.dumps writes
    {"sigma": [...], "pmf": {"d": d, "atoms": [[i, p_k], ...]}}.

    Each level's mass is encoded once per stream, and its sigma digit and
    atom only when the odometer moves the level.  Each run of the fast level
    f (polytope._runs) sorts the other levels' atoms by index and joins,
    for each place f's atom can take among them, the text to its left (the
    sigma digits after sigma_f included) and to its right.  A line then
    bisects f's index into the sorted indices and fills one f-string.
    """
    d = p.d
    masses = [json.dumps(_jsonable(v)) for v in p.values]
    tail = f'], "pmf": {{"d": {d}, "atoms": ['
    seen, digits, atoms = [-1] * (d + 1), [""] * (d + 1), [""] * (d + 1)
    for f, sigma, elems, run in _runs(p, offset):
        for k in range(d + 1):
            if seen[k] != elems[k]:
                seen[k], digits[k], atoms[k] = elems[k], str(sigma[k]), f"[{elems[k]}, {masses[k]}]"
        rest = sorted((k for k in p.support if k != f), key=elems.__getitem__)
        keys = [elems[k] for k in rest]
        pre = '{"sigma": [' + "1, " * f  # the levels below f never move
        lefts = ["".join([", " + digits[k] for k in range(f + 1, d + 1)]) + tail]
        rights = ["]}}"]
        for k, j in zip(rest, reversed(rest)):
            lefts.append(f"{lefts[-1]}{atoms[k]}, ")
            rights.append(f", {atoms[j]}{rights[-1]}")
        rights.reverse()
        mass = masses[f]
        for s, e in run:
            i = bisect.bisect(keys, e)
            yield f"{pre}{s}{lefts[i]}[{e}, {mass}]{rights[i]}"


def _cmd_extremals(args) -> None:
    if args.offset < 0:
        raise ValueError("--offset must be >= 0")
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be >= 0")
    lines = itertools.islice(_extremal_lines(args.p, args.offset), args.limit)
    while batch := list(itertools.islice(lines, 1024)):
        sys.stdout.write("\n".join(batch) + "\n")


def _cmd_bounds(args) -> dict:
    lower, upper = moment_bounds(args.p, args.order)
    return {"order": args.order, "lower": _jsonable(lower), "upper": _jsonable(upper)}


def _cmd_entropy_bounds(args) -> dict:
    lo, hi = entropy_bounds(args.p)
    if args.bits:
        return {"min": lo / LN2, "max": hi / LN2, "unit": "bits"}
    return {"min": lo, "max": hi, "unit": "nats"}


def _cmd_feasible(args) -> dict:
    witness = feasible_point(args.p, _load_theta(args.theta))
    if witness is None:
        return {"feasible": False}
    return {"feasible": True, "witness": witness.to_json_obj()}


def _cmd_constrained_vertices(args) -> None:
    for vertex in constrained_vertices(args.p, _load_theta(args.theta), max_bases=args.max_bases):
        print(json.dumps(vertex.to_json_obj()))


def _cmd_constrained_bounds(args) -> dict:
    theta = _load_theta(args.theta)
    lower, upper = constrained_moment_bounds(args.p, theta, args.subset, args.max_bases)
    return {"subset": "|".join(map(str, args.subset)),
            "lower": _jsonable(lower), "upper": _jsonable(upper)}


def _cmd_measure(args) -> dict:
    measures = polytope_measure(args.p)
    return {
        "log_ambient": _log_or_none(measures["ambient"]),
        "log_intrinsic": _log_or_none(measures["intrinsic"]),
        "log_density": _log_or_none(density_l(args.p)),
        "dirichlet_pdf": dirichlet_pdf(args.p),
        "log_normalizing_constant": normalizing_constant(args.p.d).log_value,
    }


def _cmd_mode(args) -> dict:
    # The JSON record holds one list; the CSV row spreads it over p0..pd.
    values = [float(v) for v in maximal_pmf(args.d).values]
    if args.format == "json":
        return {"p": [_jsonable(v) for v in values]}
    return {f"p{k}": v for k, v in enumerate(values)}


def _cmd_density(args) -> dict:
    return {"log_density": _log_or_none(density_l(args.p)),
            "dirichlet_pdf": dirichlet_pdf(args.p),
            "entropy_nats": entropy(args.p)}


def _cmd_sample(args) -> None:
    seed = _require_seed(args)
    gen = RngStream(seed, 0).generator()
    _check_dimension(args.p.d)  # before the header, so a refusal prints nothing
    print(json.dumps({"seed": seed, "n": args.n, "d": args.p.d}))
    for _ in range(args.n):
        print(json.dumps(sample_polytope_uniform(args.p, gen).to_json_obj()))


def _cmd_neighborhood(args) -> dict:
    seed = _require_seed(args)
    spec = NeighborhoodSpec(
        center=args.p, epsilon=args.eps, metric=args.metric, paper_region=args.paper_sigma_s
    )
    report = estimate_neighborhood_measure(spec, args.n, RngStream(seed, 0), threads=args.threads)
    return {
        "metric": args.metric,
        "epsilon": args.eps,
        "seed": seed,
        "n": report.n_samples,
        "log_estimate": _log_or_none(report.point_estimate),
        "estimate": report.point_estimate.value,
        "std_error": report.std_error,
        "acceptance_rate": report.acceptance_rate,
    }


def _cmd_binomial_scan(args) -> list[dict]:
    if args.points < 2:
        raise ValueError("need at least 2 scan points")
    thetas = [j / (args.points - 1) for j in range(args.points)]
    return [{"theta": t, "log_measure": _log_or_none(curve_log_measure(t, args.d))} for t in thetas]


def _cmd_bin_vs_mode(args) -> list[dict]:
    return [{"d": d, **bin_vs_mode(d)} for d in range(2, args.dmax + 1)]


def _at_least(low: int):
    """An argparse type: an integer that must be >= low."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


_at_least_one = _at_least(1)  # --threads, --max-bases, binomial-scan --d
_at_least_zero = _at_least(0)  # --seed; sample -n, where 0 prints the header alone


def _thread_count(text: str) -> int:
    """--threads: an integer >= 1; the default "auto" counts usable CPUs at each parse."""
    return _usable_cpus() if text == "auto" else _at_least_one(text)


def _coordinates(text: str) -> list[int]:
    """--subset: comma-separated integer coordinates; empty tokens are skipped."""
    subset = []
    for tok in filter(None, text.split(",")):
        try:
            subset.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer coordinate: {tok!r}") from None
    return subset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernsum",
        description="Geometry of Bernoulli sum classes: vertices, bounds, measures, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # JSON lines or nested records: these have no CSV form.
    nested = {"extremals", "feasible", "constrained-vertices", "sample"}
    # These take a dimension instead of a sum pmf.
    no_p = {"mode", "binomial-scan", "bin-vs-mode"}

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        if name not in nested:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name not in no_p:
            sp.add_argument("--p", required=True, help="sum pmf: inline JSON array or file path")
        return sp

    sp = add("extremals", _cmd_extremals, help="stream the vertices of the fiber over p")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--offset", type=int, default=0)

    sp = add("bounds", _cmd_bounds, help="sharp cross-moment bounds of a given order")
    sp.add_argument("--order", type=int, required=True)

    sp = add("entropy-bounds", _cmd_entropy_bounds, help="entropy range over the fiber")
    sp.add_argument("--bits", action="store_true", help="report in bits instead of nats")

    sp = add("feasible", _cmd_feasible, help="decide whether the mean-constrained fiber is nonempty")
    sp.add_argument("--theta", required=True, help="mean vector: inline JSON array or file path")

    sp = add("constrained-vertices", _cmd_constrained_vertices,
             help="exact vertices of the mean-constrained fiber")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--max-bases", type=_at_least_one, default=None,
                    help="abort with an error if the basis walk exceeds this budget")

    sp = add("constrained-bounds", _cmd_constrained_bounds,
             help="cross-moment bounds over the mean-constrained fiber")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--subset", type=_coordinates, required=True,
                    help="comma-separated coordinates, e.g. 1,2")
    sp.add_argument("--max-bases", type=_at_least_one, default=None,
                    help="abort with an error if the two LP solves together take more simplex "
                         "pivots than this")

    add("measure", _cmd_measure, help="Hausdorff measures and density at p")

    sp = add("mode", _cmd_mode, help="the sum pmf with the largest fiber measure")
    sp.add_argument("--d", type=int, required=True)

    add("density", _cmd_density, help="fiber density and Dirichlet pdf at p")

    sp = add("sample", _cmd_sample, help="uniform draws from the fiber over p (JSON lines)")
    sp.add_argument("-n", type=_at_least_zero, default=10)
    sp.add_argument("--seed", type=_at_least_zero, default=None)

    sp = add("neighborhood", _cmd_neighborhood, help="Monte Carlo measure of a metric ball")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--metric", choices=("sup", "tv"), default="sup")
    sp.add_argument("-n", type=int, default=100_000)
    sp.add_argument("--seed", type=_at_least_zero, default=None)
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
    """Load --p, run the command and print what it returns: a record (a dict)
    or a table (a list of dicts).  A JSON-lines command writes its own lines
    and returns None."""
    args = _shared_parser().parse_args(argv)
    try:
        if "p" in args:
            args.p = SumPmf.from_json_obj(_parse_json_or_file(args.p))
        if (out := args.fn(args)) is not None:
            _emit(out, getattr(args, "format", "json"))
        sys.stdout.flush()
        return 0
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
