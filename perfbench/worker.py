"""Workload child process: runs one job list against the package and checks it.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py JOBS_JSON RESULT_JSON

JOBS_JSON holds {"workload", "seed", "seconds", "trace", "kernel", "spans_path",
"jobs"}; "kernel" names the calibration kernel (see harness.py).
The worker warms up, then repeats the whole job list in timed passes until
the time budget is spent.  With trace on, the first half of the budget runs
untraced and the second half traced, so both pass times come from the same
process.  Outputs are checked after each call, outside the timed region.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pickle
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import harness
import spans


def _bernsum():
    import bernsum
    from bernsum import cli, feasibility, pmf, polytope, sampling

    return bernsum, cli, feasibility, pmf, polytope, sampling


class Runner:
    def __init__(self, spec: dict):
        self.workload = spec["workload"]
        self.seed = spec["seed"]
        self.jobs = spec["jobs"]
        self.kernel = spec["kernel"]
        bernsum, self.cli, self.feas, self.pmf, self.poly, self.samp = _bernsum()
        self.carriers: dict[int, tuple] = {}   # dense group -> (build job, carrier, values, level sums)
        self.first_digest: dict[int, str] = {}
        self.pair_text: dict[int, dict[int, str]] = {}
        self.refs: dict[int, object] = {}
        self.extra: dict[int, dict] = {}        # per-job facts for the report (rse, ...)

    # ---------------------------------------------------------------- set-up

    def references(self) -> None:
        """Everything the checks compare against, computed before any timing."""
        nbhd = [j for j in self.jobs if j["kind"] == "cli_neighborhood"]
        if nbhd:
            self.refs.update(checks.dirichlet_references(
                nbhd, self.seed, lambda d: 200_000 if d <= 5 else 100_000))
        for job in self.jobs:
            if job["kind"] == "region_volume":
                self.refs[job["id"]] = checks.region_volume_reference(job)
            elif job["kind"] == "feasible_point":
                p = [Fraction(v) for v in job["p"]]
                self.refs[job["id"]] = checks.mean_feasible(p, [Fraction(v) for v in job["theta"]])

    # ---------------------------------------------------------------- one job

    def _cli_call(self, argv):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(argv))
            return rc, buf.getvalue()
        return call

    def prepare(self, job):
        """The zero-argument call to time, with its inputs already built."""
        kind = job["kind"]
        if kind in ("cli", "cli_neighborhood"):
            return self._cli_call(job["argv"])
        SumPmf = self.pmf.SumPmf
        if kind == "feasible_point":
            p, theta = SumPmf(job["p"]), [Fraction(t) for t in job["theta"]]
            return lambda: self.feas.feasible_point(p, theta)
        if kind == "constrained_vertices":
            p, theta = SumPmf(job["p"]), [Fraction(t) for t in job["theta"]]
            return lambda: self.feas.constrained_vertices(p, theta)
        if kind == "constrained_moment_bounds":
            p, theta = SumPmf(job["p"]), [Fraction(t) for t in job["theta"]]
            return lambda: self.feas.constrained_moment_bounds(p, theta, job["subset"])
        if kind in ("region_volume", "hit_and_run"):
            spec = self.samp.NeighborhoodSpec(center=SumPmf(job["p"]), epsilon=job["eps"])
            rng = self.samp.RngStream(job["seed"], 0)
            if kind == "region_volume":
                return lambda: self.samp.region_volume(spec, job["n"], rng)
            return lambda: list(itertools.islice(
                self.samp.hit_and_run(spec, job["burn_in"], job["thin"], rng), job["m"]))
        if kind == "exchangeable_pmf":
            p = SumPmf(job["p"])
            return lambda: self.poly.exchangeable_pmf(p)
        if kind == "sample_polytope_uniform":
            p, g = SumPmf(job["p"]), np.random.default_rng(job["seed"])
            return lambda: self.samp.sample_polytope_uniform(p, g)
        if kind == "sample_Fd_uniform":
            g = np.random.default_rng(job["seed"])
            return lambda: self.samp.sample_Fd_uniform(job["d"], g)
        if kind == "read":
            build, f, _, _ = self.carriers[job["group"]]
            op = job["op"]
            if op in ("membership", "decompose"):
                p = SumPmf(build["p"])
                fn = self.poly.membership if op == "membership" else self.poly.decompose
                return lambda: fn(f, p)
            if op == "cross_moment":
                return lambda: self.pmf.cross_moment(f, job["subset"])
            fn = self.pmf.sum_map if op == "sum_map" else self.pmf.entropy
            return lambda: fn(f)
        raise ValueError(f"unknown job kind {kind!r}")

    def check(self, job, out):
        """(failure or None, digest of the output) for one finished call."""
        kind = job["kind"]
        if kind in ("cli", "cli_neighborhood"):
            rc, text = out
            if kind == "cli":
                return checks.check_cli(job, rc, text), _digest(text)
            if "pair" in job:
                texts = self.pair_text.setdefault(job["pair"], {})
                texts[job["id"]] = text
                if any(t != text for t in texts.values()):
                    return ("wrong", "output differs between 1 and nproc threads"), _digest(text)
            fail = checks.check_neighborhood(job, rc, text, self.refs[job["id"]])
            if rc == 0 and job["d"] <= 5:
                rec = json.loads(text)
                if rec["std_error"] > 0:
                    self.extra.setdefault(job["id"], {})["rse"] = rec["std_error"] / rec["estimate"]
            return fail, _digest(text)
        if kind == "feasible_point":
            values = None if out is None else tuple(out.values)
            return checks.check_feasible_point(job, values, self.refs[job["id"]]), _digest(values)
        if kind == "constrained_vertices":
            vertices = [tuple(v.values) for v in out]
            return checks.check_vertices(job, vertices), _digest(sorted(vertices))
        if kind == "constrained_moment_bounds":
            return checks.check_moment_bounds(job, out), _digest(out)
        if kind == "region_volume":
            rep = (out.point_estimate.log, out.std_error, out.point_estimate.value)
            return checks.check_region_volume(job, rep, self.refs[job["id"]]), _digest(rep)
        if kind == "hit_and_run":
            pts = np.array([[float(v) for v in s.values] for s in out])
            return checks.check_chain(job, pts), _digest(pts.tobytes())
        if kind in ("exchangeable_pmf", "sample_polytope_uniform", "sample_Fd_uniform"):
            values = np.fromiter(out.values, dtype=float, count=len(out.values))
            sums = checks.level_sums(values, job["d"])
            self.carriers[job["group"]] = (job, out, values, sums)
            return checks.check_build(job, values, sums), _digest(values.tobytes())
        if kind == "read":
            build, _, values, sums = self.carriers[job["group"]]
            plain = _plain(out)
            fail = checks.check_read(job, build, values, sums, plain)
            if job["op"] in ("sum_map", "decompose"):  # long float sequences: hash their bytes
                blocks = plain if job["op"] == "decompose" else [plain]
                return fail, _digest(b"".join(np.asarray(b, dtype=float).tobytes() for b in blocks))
            return fail, _digest(plain)
        raise ValueError(f"unknown job kind {kind!r}")

    # ---------------------------------------------------------------- passes

    def run_pass(self, tracer=None) -> list[dict]:
        """One timed pass over the job list; returns one record per job."""
        last_read = {}
        for job in self.jobs:
            if "group" in job:
                last_read[job["group"]] = job["id"]
        records = []
        marks = []               # calibration: (index of the next job, kernel seconds)
        last_mark = -float("inf")
        for k, job in enumerate(self.jobs):
            if time.perf_counter() - last_mark >= harness.CAL_EVERY_S:
                marks.append((k, harness.calibration_kernel(self.kernel)))
                last_mark = time.perf_counter()
            try:
                call = self.prepare(job)
            except Exception as exc:  # e.g. the carrier this read needs failed to build
                fail = ("error", f"{type(exc).__name__}: {exc}")
                records.append({"id": job["id"], "wall": None, "fail": fail})
                continue
            if tracer is not None:
                tracer.job_id = job["id"]
            t0 = time.perf_counter()
            try:
                out = call()
                wall = time.perf_counter() - t0
            except Exception as exc:  # a job failure is a result, not a crash
                wall = time.perf_counter() - t0
                fail, digest = ("error", f"{type(exc).__name__}: {exc}"), None
            else:
                try:
                    fail, digest = self.check(job, out)
                except Exception as exc:
                    fail, digest = ("wrong", f"output not checkable: {type(exc).__name__}: {exc}"), None
                del out
            if tracer is not None:
                tracer.job_id = -1
            if digest is not None:
                first = self.first_digest.setdefault(job["id"], digest)
                if first != digest and fail is None:
                    fail = ("wrong", "output differs from the first pass")
            records.append({"id": job["id"], "wall": wall, "fail": fail})
            if "group" in job and last_read[job["group"]] == job["id"]:
                self.carriers.pop(job["group"], None)
        marks.append((len(self.jobs), harness.calibration_kernel(self.kernel)))
        for k, rec in enumerate(records):
            rec["cal"] = harness.local_calibration(marks, k)
            if rec["wall"] is not None:
                rec["t"] = harness.scaled(rec["wall"], rec["cal"], self.kernel)
        return records

    def warm_up(self) -> None:
        """Run the cheapest job of each kind (and its reads), untimed, so
        imports and lazy caches are in place before the first pass."""
        cheapest = {}
        for job in self.jobs:
            if job["kind"] != "read":
                key = (job["kind"], job.get("command"))
                cost = (job.get("d", 0), job.get("n", 0), job.get("limit", 0))
                if key not in cheapest or cost < cheapest[key][0]:
                    cheapest[key] = (cost, job)
        chosen = {job["id"] for _, job in cheapest.values()}
        groups = {job["group"] for _, job in cheapest.values() if "group" in job}
        for job in self.jobs:
            if job["id"] in chosen or job["kind"] == "read" and job["group"] in groups:
                try:
                    self.check(job, self.prepare(job)())
                except Exception:
                    pass  # failures are counted in the timed passes
        self.carriers.clear()
        self.pair_text.clear()


def _plain(out):
    """Package result types reduced to plain numbers for checks and digests."""
    if hasattr(out, "values") and not isinstance(out, dict):
        return tuple(out.values)
    if isinstance(out, list):
        return [tuple(b) for b in out]
    return out


def _digest(obj) -> str:
    data = obj if isinstance(obj, (bytes, str)) else repr(obj)
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_budget(runner: Runner, seconds: float, tracer=None) -> list[list[dict]]:
    """Timed passes while another pass is predicted to fit in `seconds`."""
    passes = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(runner.run_pass(tracer))
        took = time.perf_counter() - start
        print(f"pass {len(passes)}: {took:.2f} s with checks, "
              f"{sum(r['wall'] or 0 for r in passes[-1]):.2f} s in jobs", file=sys.stderr)
        if time.perf_counter() - t0 + took > seconds:
            return passes


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    runner = Runner(spec)
    t0 = time.perf_counter()
    runner.references()
    t1 = time.perf_counter()
    runner.warm_up()
    print(f"references {t1 - t0:.2f} s, warm-up {time.perf_counter() - t1:.2f} s", file=sys.stderr)
    seconds = spec["seconds"]
    result = {"workload": runner.workload, "seed": runner.seed, "n_jobs": len(runner.jobs)}
    if spec["trace"]:
        result["untraced"] = run_budget(runner, seconds / 2)
        tracer = spans.Tracer()
        result["wrapped"] = spans.install(tracer)
        result["traced"] = run_budget(runner, seconds / 2, tracer)
        with open(spec["spans_path"], "wb") as fh:
            pickle.dump({"names": tracer.names, "name": tracer.name, "start": tracer.start,
                         "end": tracer.end, "parent": tracer.parent, "job": tracer.job,
                         "size": tracer.size, "value": tracer.value}, fh)
    else:
        result["passes"] = run_budget(runner, seconds)
    result["extra"] = runner.extra
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import bernsum
    result["bernsum_file"] = bernsum.__file__
    result["numpy"] = np.__version__
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
