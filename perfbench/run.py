"""bernsum benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {mc,exact,dense} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  The job list is generated here from the seed and handed to a fresh
child process (worker.py) that runs it, so the package only ever sees the
generated inputs.  Set-up time is measured in separate fresh interpreters.

Human-readable lines go first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, taken from spans recorded around the package's public
functions.  Full results, the environment and the spans are written under
.perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
import jobs as jobgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import bernsum, bernsum.cli; bernsum.cli.build_parser(); t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def usable_cpus() -> int:
    """The CLI defaults --threads to os.cpu_count(); refuse to measure a
    machine where that would start more threads than this process may use."""
    count = os.cpu_count() or 1
    usable = len(os.sched_getaffinity(0))
    if count > usable:
        raise BenchError(f"os.cpu_count()={count} exceeds the {usable} CPUs this process may use; "
                         "the CLI's default thread count would oversubscribe them")
    return usable


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bernsum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def setup_probes(count: int) -> list[tuple[float, float, float, float]]:
    """(process wall at the reference speed, numpy import, bernsum import +
    parser, raw process wall) per fresh interpreter; the calibration kernel
    runs around each.

    One untimed probe first, so byte-code caches exist as they do for users.
    """
    out = []
    marks = []
    for i in range(count + 1):
        if i:
            marks.append((i - 1, harness.median([harness.calibration_kernel() for _ in range(5)])))
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            numpy_s, bernsum_s = (float(v) for v in proc.stdout.split())
            out.append((wall, numpy_s, bernsum_s))
    marks.append((count, harness.median([harness.calibration_kernel() for _ in range(5)])))
    return [(harness.scaled(w, harness.local_calibration(marks, k)), a, b, w)
            for k, (w, a, b) in enumerate(out)]


def run_worker(spec: dict, tag: str) -> dict:
    jobs_path = OUT / f"jobs-{tag}.json"
    result_path = OUT / f"worker-{tag}.json"
    jobs_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                             str(jobs_path), str(result_path)], env=child_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded {WORKER_TIMEOUT_S} s")
    if code != 0 or not result_path.exists():
        raise BenchError(f"workload process exited with code {code}")
    result = json.loads(result_path.read_text())
    if not Path(result["bernsum_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported bernsum from {result['bernsum_file']}, not from {SRC}")
    return result


# ------------------------------------------------------------------ metrics

def job_times(p) -> list[tuple[int, float]]:
    """(job id, time at the reference machine speed) for each timed job of a pass."""
    return [(r["id"], r["t"]) for r in p if r["wall"] is not None]


def pass_walls(passes) -> list[float]:
    return [sum(t for _, t in job_times(p)) for p in passes]


def failure_counts(passes) -> tuple[int, int, bool, dict]:
    """Counted per job of the list, not per call: a job is attempted once and
    fails if any of its passes failed, so the counts do not depend on how
    many passes fit in the time budget.  (Every later pass also compares its
    output with the first, so a job whose output changes fails too.)"""
    first_fail: dict[int, tuple | None] = {}
    for p in passes:
        for r in p:
            if first_fail.get(r["id"]) is None:
                first_fail[r["id"]] = r["fail"]
    reasons: dict[str, int] = {}
    for fail in first_fail.values():
        if fail:
            reasons[fail[0]] = reasons.get(fail[0], 0) + 1
    correct = not any(r["fail"] and r["fail"][0] == "wrong" for p in passes for r in p)
    return len(first_fail), sum(reasons.values()), correct, reasons


def end_to_end(result, setup) -> dict:
    """name -> (value, unit, samples)."""
    passes = result["passes"]
    lat_ms = [t * 1e3 for p in passes for _, t in job_times(p)]
    m = {
        "setup_s": (harness.median([s[0] for s in setup]), "s", len(setup)),
        "wall_s": (harness.median(pass_walls(passes)), "s", len(passes)),
        "job_p50_ms": (harness.median(lat_ms), "ms", len(lat_ms)),
        "job_p90_ms": (harness.tail_percentile(lat_ms), "ms", len(lat_ms)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }
    raw_ms = [r["wall"] * 1e3 for p in passes for r in p if r["wall"] is not None]
    m["raw.wall_s"] = (harness.median([sum(r["wall"] or 0 for r in p) for p in passes]), "s", len(passes))
    m["raw.job_p50_ms"] = (harness.median(raw_ms), "ms", len(raw_ms))
    m["raw.job_p90_ms"] = (harness.tail_percentile(raw_ms), "ms", len(raw_ms))
    m["raw.setup_s"] = (harness.median([s[3] for s in setup]), "s", len(setup))
    attempted, failed, _, _ = failure_counts(passes)
    m["failed_ratio"] = (harness.failed_ratio(attempted, failed), "ratio", attempted)
    rse = {int(k): v["rse"] for k, v in result["extra"].items() if "rse" in v}
    if rse:
        per_pass = [harness.time_to_rse([(t, rse[i]) for i, t in job_times(p) if i in rse])
                    for p in passes]
        m["time_to_rse_s"] = (harness.median(per_pass), "s", len(rse))
    return m


def per_layer(result, jobs, setup, spans_path: Path) -> tuple[dict, dict]:
    """name -> (value, unit, samples), and self time per pass by module."""
    with open(spans_path, "rb") as fh:
        sp = pickle.load(fh)
    names = sp["names"]
    selfs = harness.self_times(list(zip(sp["start"], sp["end"], sp["parent"])))
    npass = len(result["traced"])
    by_name: dict[str, dict] = {}
    for i, nid in enumerate(sp["name"]):
        agg = by_name.setdefault(names[nid], {"n": 0, "self": 0.0, "dur": 0.0, "size": 0, "spans": []})
        agg["n"] += 1
        agg["self"] += selfs[i]
        agg["dur"] += sp["end"][i] - sp["start"][i]
        agg["size"] += sp["size"][i]
        agg["spans"].append(i)
    empty = {"n": 0, "self": 0.0, "dur": 0.0, "size": 0, "spans": []}

    def get(name):
        return by_name.get(name, empty)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def self_s(name):
        a = get(name)
        return (a["self"] / npass, "s", a["n"])

    def module_self(mod):
        hits = [a for n, a in by_name.items() if n.startswith(mod + ".")]
        return (sum(a["self"] for a in hits) / npass, "s", sum(a["n"] for a in hits))

    est = [get("sampling.estimate_neighborhood_measure"), get("sampling.estimate_tv_neighborhood_bound")]
    est_spans = est[0]["spans"] + est[1]["spans"]
    acc = [sp["value"][i] for i in est_spans]
    job_by_id = {j["id"]: j for j in jobs}
    traced = [r for p in result["traced"] for r in p]
    pair = [(job_by_id[r["id"]], r["t"]) for r in traced
            if "pair" in job_by_id[r["id"]] and r["wall"] is not None]
    one = sum(t for j, t in pair if j["threads"] == 1)
    many = sum(t for j, t in pair if j["threads"] != 1)
    chain_steps = sum(j["burn_in"] + j["thin"] * j["m"] for j in jobs if j["kind"] == "hit_and_run") * npass
    fp = get("feasibility.feasible_point")
    d8 = [(sp["end"][i] - sp["start"][i]) * 1e3 for i in fp["spans"] if sp["size"][i] == 8]
    cv = get("feasibility.constrained_vertices")
    ext = get("polytope.extremal_enumerate")
    lev = get("indexing.level_element")
    untraced = harness.median(pass_walls(result["untraced"]))
    traced_wall = harness.median(pass_walls(result["traced"]))
    return {
        "sampling.estimate.draws_per_s": (rate(est[0]["size"] + est[1]["size"], est[0]["self"] + est[1]["self"]),
                                          "1/s", len(est_spans)),
        "sampling.acceptance_rate": (sum(acc) / len(acc) if acc else 0.0, "ratio", len(acc)),
        "sampling.thread_speedup": (one / many if many > 0 else 0.0, "ratio", len(pair)),
        "sampling.hit_and_run.steps_per_s": (rate(chain_steps, get("sampling.hit_and_run")["dur"]), "1/s",
                                             get("sampling.hit_and_run")["n"]),
        "sampling.sample_polytope_uniform.self_s": self_s("sampling.sample_polytope_uniform"),
        "sampling.sample_Fd_uniform.self_s": self_s("sampling.sample_Fd_uniform"),
        "feasibility.feasible_point.self_s": self_s("feasibility.feasible_point"),
        "feasibility.feasible_point.d8_ms": (harness.median(d8) if d8 else 0.0, "ms", len(d8)),
        "feasibility.constrained_vertices.vertices_per_s": (rate(cv["size"], cv["dur"]), "1/s", cv["n"]),
        "feasibility.vertices": (cv["size"] / npass, "count", cv["n"]),
        "feasibility.constrained_moment_bounds.self_s": self_s("feasibility.constrained_moment_bounds"),
        "polytope.extremal_enumerate.vertices_per_s": (rate(ext["size"], ext["dur"]), "1/s", ext["n"]),
        "indexing.level_element.calls_per_s": (rate(lev["n"], lev["dur"]), "1/s", lev["n"]),
        "polytope.exchangeable_pmf.self_s": self_s("polytope.exchangeable_pmf"),
        "polytope.decompose.self_s": self_s("polytope.decompose"),
        "polytope.membership.self_s": self_s("polytope.membership"),
        "indexing.level_indices.self_s": self_s("indexing.level_indices"),
        "pmf.JointPmf.build_s": self_s("pmf.JointPmf.build"),
        "pmf.SparseJointPmf.build_s": self_s("pmf.SparseJointPmf.build"),
        "pmf.sum_map.self_s": self_s("pmf.sum_map"),
        "pmf.cross_moment.self_s": self_s("pmf.cross_moment"),
        "pmf.entropy.self_s": self_s("pmf.entropy"),
        "measure.self_s": module_self("measure"),
        "binomial.self_s": module_self("binomial"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_numpy_s": (harness.median([s[1] for s in setup]), "s", len(setup)),
        "cli.import_bernsum_s": (harness.median([s[2] for s in setup]), "s", len(setup)),
        "trace.overhead_ratio": (traced_wall / untraced - 1.0, "ratio", len(result["traced"])),
    }, {mod: module_self(mod)[0] for mod in ("indexing", "pmf", "polytope", "feasibility",
                                              "measure", "sampling", "binomial", "cli")}


# ------------------------------------------------------------------ main

def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobgen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "bernsum" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'bernsum'}; run from a source checkout")
        declared = declared_metrics(bool(args.trace))
        nproc = usable_cpus()
        OUT.mkdir(exist_ok=True)
        env = environment(args.seed)
        jobs = jobgen.make_jobs(args.workload, args.seed, nproc)
        tag = f"{args.workload}-{args.seed}-{args.trace}"
        spans_path = OUT / f"spans-{tag}.pkl"
        setup = setup_probes(SETUP_PROBES)
        result = run_worker({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "kernel": jobgen.KERNEL[args.workload],
                             "spans_path": str(spans_path), "jobs": jobs}, tag)
        env["numpy_worker"] = result["numpy"]
        run_passes = result["traced"] + result["untraced"] if args.trace else result["passes"]
        attempted, failed, correct, reasons = failure_counts(run_passes)
        if args.trace:
            metrics, modules = per_layer(result, jobs, setup, spans_path)
        else:
            metrics, modules = end_to_end(result, setup), None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"# bernsum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} jobs={len(jobs)}")
    print(f"# env {json.dumps(env)}")
    print(f"# attempted={attempted} failed={failed} failed_ratio={failed / attempted:.4f} "
          f"by_status={json.dumps(reasons)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} n={samples}")
    if modules is not None:
        print(f"# traced: {result['wrapped']} functions wrapped, {len(result['traced'])} traced and "
              f"{len(result['untraced'])} untraced passes")
        print("# self time per pass by module: " + json.dumps({k: round(v, 6) for k, v in modules.items()}))
    fails = [(r["id"], r["fail"]) for p in run_passes for r in p if r["fail"]]
    for jid, (status, detail) in fails[:5]:
        print(f"# failed job {jid} [{status}]: {detail}")

    out_metrics = {}
    for m in declared:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise AssertionError(f"{m['name']}: unit {unit} differs from BENCHMARK.json {m['unit']}")
        out_metrics[m["name"]] = {"value": value, "unit": unit}
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "env": env, "args": vars(args), "attempted": attempted, "failed": failed,
        "correct": correct, "by_status": reasons, "modules_self_s": modules,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "failures": fails,
    }, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
