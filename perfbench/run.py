"""subcurv benchmark.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload {sweep,touch,cold-cli} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--corrupt K]

Inputs come from ``--seed`` alone (see ``workloads.py``).  subcurv is
driven only through its public API (sweep, touch: one long-lived worker
process) and its CLI (cold-cli: one ``python -m subcurv`` process per
op), straight from ``src/``.  Every output is checked by ``oracles.py``,
which does not use subcurv.

``--trace 0`` measures the end-to-end metrics, with no tracing.  Every
time is a wall time scaled to the host's reference speed by probes of
fixed work (``probe.py``): an op's by ``REF_S / the mean of the probes
timed right before and right after it``, a set-up's by
``REF_START_S / the start probe timed right before it``.  The shared
host this runs on drifts by up to 2x for minutes at a time, which no
statistic of raw wall times within one run can remove; the raw wall
times are in the info line.

  setup_s      median over SETUP_RUNS fresh interpreters of the time from
               launch until ``subcurv.cli`` is imported and every op's
               config is parsed into a ComparisonScenario; half are
               launched before the timed ops and the rest (on sweep and
               touch, the worker that runs the ops among them) after
  op_s_p50     median time per op
  op_s_tail    highest percentile with at least ten samples beyond it
               (the percentile and sample count are in the info line)
  ops_per_s    ops per second of one pass over the configs run, each at
               its mean op time, times the share of ops that passed
  peak_rss_mb  peak RSS of the process running the ops (the largest
               child process on cold-cli)

``--trace 1`` runs a fixed op list repeatedly, first untraced and then
under ``tracer.py``, and reports per-layer metrics per pass over that
list, plus the tracing overhead.

The last line of standard output is the JSON result; the line before it
(prefixed ``perfbench-info:``) records the environment, the input sizes,
why the workload was chosen, failures, ``failed_frac`` and where the
per-config sha256 digests of every report and CSV were written.
``--size tiny`` and ``--corrupt K`` (corrupt the output copy of the
first K ops before checking it) exist for ``test_smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import workloads
from probe import REF_S, REF_START_S, probe, scaled

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 6
OP_TIMEOUT_S = 120
_perf = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# span name -> the fields reported for it
TIMED = {
    "calculus.parse_expr": ("s", "calls"),
    "calculus.differentiate": ("s", "calls"),
    "calculus.simplify": ("s",),
    "calculus.substitute": ("s",),
    "calculus.compile_expr": ("s", "calls"),
    "calculus.kernel_eval": ("s", "calls"),
    "calculus.evaluate": ("s", "calls"),
    "core.p_mean_curvature_expr": ("s", "calls"),
    "core.conorm_sq_expr": ("s",),
    "heisenberg.structure": ("s",),
    "heisenberg.graph_exprs": ("s",),
    "brackets.bracket_generate_rank": ("s", "calls", "self_s"),
    "brackets.lie_bracket": ("s", "calls", "self_s"),
    "brackets.tangent_distribution_fields": ("s",),
    "numerics.matrix_rank": ("s", "calls"),
    "numerics.newton_minimize": ("s", "calls"),
    "smp.operator_build": ("s", "calls"),
    "smp.run_scenario": ("s", "self_s"),
    "smp.integrate_field": ("s", "calls", "self_s"),
    "cli.parse_config": ("s",),
    "cli.scenario_from_config": ("s",),
    "cli.dumps_report": ("s",),
    "cli.write_scenario_csv": ("s",),
}
_FIELD = {"calls": 0, "s": 1, "self_s": 2}
_UNIT = {"calls": "count", "s": "s", "self_s": "s"}

# metric name, tracer counter, unit
COUNTERS = (
    ("calculus.kernel_lines", "kernel_lines", "lines"),
    ("calculus.dag_nodes_structural", "dag_nodes_structural", "count"),
    ("calculus.dag_nodes_id", "dag_nodes_id", "count"),
    ("brackets.words_generated", "words_generated", "count"),
    ("brackets.words_built", "words_built", "count"),
    ("numerics.newton_converged", "newton_converged", "count"),
    ("smp.rk4_steps_computed", "rk4_steps_computed", "count"),
    ("smp.rk4_steps_used", "rk4_steps_used", "count"),
    ("smp.grid_points", "grid_points", "count"),
    ("smp.points_masked", "points_masked", "count"),
    ("cli.dumps_report.bytes", "dumps_report_bytes", "bytes"),
    ("cli.write_scenario_csv.bytes", "write_scenario_csv_bytes", "bytes"),
)

# ratio name, numerator, denominator (the base, also reported above)
RATIOS = (
    ("calculus.dag_unique_ratio", "calculus.dag_nodes_structural", "calculus.dag_nodes_id"),
    ("brackets.words_used_ratio", "brackets.words_generated", "brackets.words_built"),
    ("numerics.newton_converged_ratio", "numerics.newton_converged", "numerics.newton_minimize.calls"),
    ("smp.rk4_used_ratio", "smp.rk4_steps_used", "smp.rk4_steps_computed"),
)


def per_layer_units() -> list:
    out = []
    for name, fields in TIMED.items():
        out += [(f"{name}.{f}", _UNIT[f]) for f in fields]
    out += [(name, unit) for name, _, unit in COUNTERS]
    out += [(name, "ratio") for name, _, _ in RATIOS]
    out += [("cli.process_start_s", "s"), ("trace.overhead_ratio", "ratio"),
            ("trace.ops_per_pass", "count")]
    return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "subcurv").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _spawn(cmd, env, **kw):
    env = dict(env, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    return subprocess.Popen(cmd, cwd=ROOT, env=env, **kw)


def _wait(proc, timeout):
    """Wait for a child; returns (exit code, stderr text, ru_maxrss in KB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        err = proc.stderr.read() if proc.stderr else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if proc.stderr:
            proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err.decode("utf-8", "replace"), usage.ru_maxrss


def _start_probe(env) -> float:
    """Wall time of a fresh interpreter running probe.start_work."""
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import probe; probe.start_work()"
    t0 = _perf()
    # a blocking wait: subprocess's wait with a timeout polls in steps of up to 50 ms
    exit_code, _, _ = _wait(subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env),
                            OP_TIMEOUT_S)
    seconds = _perf() - t0
    if exit_code != 0:
        raise RuntimeError(f"start probe failed (exit {exit_code})")
    return seconds


def _worker(job: dict, env, work: Path, timeout: float):
    """Run worker.py on a job.

    Returns ((set-up seconds, start-probe seconds just before), its result or None).
    """
    job_path = work / f"job-{job['mode']}.json"
    job["out"] = str(work / f"result-{job['mode']}.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    start_s = _start_probe(env)
    t0 = _perf()
    proc = _spawn([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)], env,
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    setup_s = _perf() - t0
    proc.stdout.close()
    code, err, _ = _wait(proc, timeout)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}): {err.strip()[-2000:]}")
    result = None
    if job["mode"] != "setup":
        result = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
    return (setup_s, start_s), result


# ---------------------------------------------------------------------------
# cold-cli ops: one fresh CLI process each
# ---------------------------------------------------------------------------


class ColdRunner:
    def __init__(self, configs, work: Path, env, corrupt: int):
        self.env = env
        self.work = work
        self.corrupt_left = corrupt
        self.rng = random.Random(0)
        self.digests = {}
        self.peak_rss_kb = 0
        self.paths = {}
        for cfg in configs:
            path = work / f"{cfg['id']}.ini"
            path.write_text(cfg["text"], encoding="utf-8")
            self.paths[cfg["id"]] = path

    def run(self, cfg, traced: bool) -> dict:
        report_path, csv_path = self.work / "report.json", self.work / "table.csv"
        layers_path = self.work / "layers.json"
        for path in (report_path, csv_path, layers_path):
            path.unlink(missing_ok=True)
        cfg_path = str(self.paths[cfg["id"]])
        if cfg["kind"] == "curvature":
            args = ["curvature", "--config", cfg_path, "--function", "phi", "--p", cfg["p"],
                    "--grid", str(cfg["grid"]), "--format", "csv", "--out", str(csv_path)]
        else:
            args = ["scenario", "run", "--config", cfg_path,
                    "--out", str(report_path), "--csv", str(csv_path)]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(layers_path)] + args
        else:
            cmd = [sys.executable, "-m", "subcurv"] + args
        probe_s = probe()
        t0 = _perf()
        proc = _spawn(cmd, self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        code, err, rss_kb = _wait(proc, OP_TIMEOUT_S)
        seconds = _perf() - t0
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        record = {"cfg": cfg["id"], "family": cfg["family"], "s": seconds,
                  "probe_s": probe_s, "error": None}
        if traced:
            record["layers"] = (
                json.loads(layers_path.read_text(encoding="utf-8")) if layers_path.exists()
                else {"totals": {}, "counters": {}, "process_start_s": 0.0, "spans": []}
            )
        if code != 0:
            record["error"] = f"exit {code}: {err.strip()[-300:]}"
            return record
        report = None if cfg["kind"] == "curvature" else report_path.read_text(encoding="utf-8")
        csv_text = csv_path.read_text(encoding="utf-8")
        digest = [
            None if report is None else hashlib.sha256(report.encode()).hexdigest(),
            hashlib.sha256(csv_text.encode()).hexdigest(),
        ]
        if self.digests.setdefault(cfg["id"], digest) != digest:
            record["error"] = "output bytes differ from an earlier run of the same config"
        if self.corrupt_left > 0:
            self.corrupt_left -= 1
            report, csv_text = oracles.corrupt(report, csv_text)
        record["error"] = record["error"] or oracles.check_cold(cfg, report, csv_text, self.rng)
        return record


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times: list):
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _sum_layers(summaries: list) -> dict:
    totals, counters = {}, {}
    for s in summaries:
        for name, vals in s["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i]
        for name, val in s["counters"].items():
            counters[name] = counters.get(name, 0) + val
    return {"totals": totals, "counters": counters}


def layer_values(summary: dict) -> dict:
    """Per-layer metric values of one pass (ratios excluded)."""
    totals, counters = summary["totals"], summary["counters"]
    out = {}
    for name, fields in TIMED.items():
        vals = totals.get(name, [0, 0.0, 0.0])
        for f in fields:
            out[f"{name}.{f}"] = vals[_FIELD[f]]
    for name, key, _ in COUNTERS:
        out[name] = counters.get(key, 0)
    return out


def _mean(values):
    return sum(values) / len(values)


def family_breakdown(passes: list) -> dict:
    """Mean traced op time and the largest self times, per op family."""
    by_family = {}
    for p in passes:
        for op in p["ops"]:
            by_family.setdefault(op["family"], []).append(op)
    out = {}
    for family, ops in by_family.items():
        layers = _sum_layers([op["layers"] for op in ops])["totals"]
        selfs = {name: vals[2] / len(ops) for name, vals in layers.items()}
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:8]
        out[family] = {
            "traced_op_s": _mean([op["s"] for op in ops]),
            "self_s": {k: round(v, 6) for k, v in top},
        }
        if "process_start_s" in ops[0]["layers"]:
            out[family]["process_start_s"] = _mean(
                [op["layers"]["process_start_s"] for op in ops])
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def trace_list(workload: str, configs: list, size: str) -> list:
    """Indices of the fixed op list a traced run repeats."""
    if size == "tiny":
        return list(range(len(configs)))
    if workload == "touch":
        first = {}
        for i, cfg in enumerate(configs):
            first.setdefault(cfg["family"], i)
        return list(first.values())
    return list(range(2 if workload == "sweep" else 12))


def run_in_process(args, configs, work, env) -> dict:
    base = {
        "workload": args.workload, "configs": configs, "trace": False,
        "jobs": 2 if args.workload == "sweep" else 1, "corrupt": args.corrupt,
    }
    timeout = args.seconds + OP_TIMEOUT_S
    if not args.trace:
        def setups(k):
            return [_worker(dict(base, mode="setup"), env, work, timeout)[0] for _ in range(k)]

        before = setups(SETUP_RUNS // 2)
        setup, result = _worker(dict(base, mode="loop", seconds=args.seconds), env, work, timeout)
        after = setups(SETUP_RUNS - len(before) - 1)
        return {"setups": before + [setup] + after, "ops": result["ops"],
                "last_probe_s": result["last_probe_s"], "digests": result["digests"],
                "peak_rss_kb": result["peak_rss_kb"]}
    seq = trace_list(args.workload, configs, args.size)
    plain = dict(base, mode="passes", seconds=args.seconds / 3, sequence=seq)
    _, untraced = _worker(plain, env, work, timeout)
    traced_job = dict(base, mode="passes", trace=True, seconds=args.seconds * 2 / 3,
                      sequence=seq, corrupt=0, trace_out=str(work / "spans.jsonl"))
    _, traced = _worker(traced_job, env, work, timeout)
    for p in traced["passes"]:
        for op in p["ops"]:
            if traced["digests"][op["cfg"]] != untraced["digests"].get(op["cfg"]):
                op["error"] = op["error"] or "traced output differs from the untraced output"
    return {"untraced": untraced["passes"], "traced": traced["passes"],
            "digests": traced["digests"]}


def run_cold(args, configs, work, env) -> dict:
    runner = ColdRunner(configs, work, env, args.corrupt)
    timeout = args.seconds + OP_TIMEOUT_S
    job = {"workload": args.workload, "configs": configs, "mode": "setup",
           "trace": False, "jobs": 1}
    if not args.trace:
        setups = [_worker(dict(job), env, work, timeout)[0] for _ in range(SETUP_RUNS // 2)]
        ops = []
        deadline = _perf() + args.seconds
        while _perf() < deadline and len(ops) < len(configs):
            ops.append(runner.run(configs[len(ops)], traced=False))
        last_probe_s = probe()
        setups += [_worker(dict(job), env, work, timeout)[0]
                   for _ in range(SETUP_RUNS - len(setups))]
        return {"setups": setups, "ops": ops, "last_probe_s": last_probe_s,
                "digests": runner.digests, "peak_rss_kb": runner.peak_rss_kb, "pool_exhausted": len(ops) == len(configs)}
    seq = trace_list(args.workload, configs, args.size)

    def passes(traced, seconds):
        out = []
        deadline = _perf() + seconds
        while not out or _perf() < deadline:
            ops = [runner.run(configs[i], traced) for i in seq]
            start = sum(op["layers"]["process_start_s"] for op in ops) if traced else None
            out.append({"ops": ops, "process_start_s": start})
        return out

    untraced = passes(False, args.seconds / 3)
    runner.corrupt_left = 0
    traced = passes(True, args.seconds * 2 / 3)
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for p in traced:
            for op in p["ops"]:
                for span in op["layers"].pop("spans"):
                    fh.write(json.dumps([f"{op['cfg']}"] + span[1:]) + "\n")
    return {"untraced": untraced, "traced": traced, "digests": runner.digests}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "subcurv" / "cli.py").is_file():
        print(f"perfbench: no subcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _child_env()
    # compile bytecode once, untimed, as an installed package would have it
    subprocess.run([sys.executable, "-c", "import subcurv.cli"], cwd=ROOT, env=env,
                   check=True, timeout=OP_TIMEOUT_S)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    configs = workloads.configs(args.workload, args.seed, args.size)
    runner = run_cold if args.workload == "cold-cli" else run_in_process
    try:
        res = runner(args, configs, work, env)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "why": workloads.WHY[args.workload],
            **_environment(args)}
    points = {}
    for cfg in configs:
        points.setdefault(cfg["family"], cfg["points"])
    info["input"] = {"configs": len(configs), "grid_points_per_op": points}

    if args.trace:
        ops = [op for p in res["untraced"] + res["traced"] for op in p["ops"]]
        per_pass = [_sum_layers([op["layers"] for op in p["ops"]]) for p in res["traced"]]
        raw = [layer_values(s) for s in per_pass]
        values = {k: _mean([r[k] for r in raw]) for k in raw[0]}
        for name, num, den in RATIOS:
            total_den = sum(r[den] for r in raw)
            values[name] = sum(r[num] for r in raw) / total_den if total_den else 0.0
        values["cli.process_start_s"] = _mean([p["process_start_s"] for p in res["traced"]])
        plain_s = statistics.median(sum(op["s"] for op in p["ops"]) for p in res["untraced"])
        traced_s = statistics.median(sum(op["s"] for op in p["ops"]) for p in res["traced"])
        values["trace.overhead_ratio"] = traced_s / plain_s
        values["trace.ops_per_pass"] = len(res["traced"][0]["ops"])
        info["trace"] = {
            "passes_untraced": len(res["untraced"]), "passes_traced": len(res["traced"]),
            "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
            "ratio_bases": {name: [values[num], values[den]] for name, num, den in RATIOS},
            "families": family_breakdown(res["traced"]),
            "spans": str(work / "spans.jsonl"),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units()}
    else:
        ops = res["ops"]
        ok = [op for op in ops if op["error"] is None]

        def summary(times, setups):
            value, pct, n = tail(times)
            by_cfg = {}
            for op, t in zip(ops, times):
                by_cfg.setdefault(op["cfg"], []).append(t)
            pass_s = sum(_mean(v) for v in by_cfg.values())
            return {
                "setup_s": statistics.median(setups),
                "op_s_p50": statistics.median(times),
                "op_s_tail": value,
                "ops_per_s": len(by_cfg) / pass_s * len(ok) / len(ops),
            }, {"value": value, "percentile": pct, "samples": n}

        before = [op["probe_s"] for op in ops]
        around = [(a + b) / 2 for a, b in zip(before, before[1:] + [res["last_probe_s"]])]
        times = [scaled(op["s"], p) for op, p in zip(ops, around)]
        setups = [scaled(s, start, REF_START_S) for s, start in res["setups"]]
        values, info["op_s_tail"] = summary(times, setups)
        values["peak_rss_mb"] = res["peak_rss_kb"] / 1024.0
        probe_s = before + [res["last_probe_s"]]
        start_s = [start for _, start in res["setups"]]
        info["probes"] = {
            "probe_s": {"ref": REF_S, "min": min(probe_s),
                        "median": statistics.median(probe_s), "max": max(probe_s)},
            "start_probe_s": {"ref": REF_START_S, "samples": start_s},
        }
        info["wall"] = summary([op["s"] for op in ops], [s for s, _ in res["setups"]])[0]
        info["setup_samples_s"] = [s for s, _ in res["setups"]]
        info["families"] = {
            fam: {"ops": len(v), "median_s": statistics.median(v)}
            for fam in sorted({op["family"] for op in ops})
            for v in [[t for op, t in zip(ops, times) if op["family"] == fam]]
        }
        if res.get("pool_exhausted"):
            info["note"] = "every distinct config ran before the time was up"
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    info["input"]["ops"] = len(ops)
    failures = [f"{op['cfg']}: {op['error']}" for op in ops if op["error"] is not None]
    info["failed_frac"] = len(failures) / len(ops)
    info["failures"] = failures[:5]
    digest_path = work / "digests.json"
    digest_path.write_text(json.dumps(res["digests"], indent=1, sort_keys=True), encoding="utf-8")
    info["digests"] = str(digest_path)
    info["outputs_sha256"] = hashlib.sha256(
        json.dumps(res["digests"], sort_keys=True).encode()).hexdigest()
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1), encoding="utf-8")
    for pattern in ("*.ini", "job-*.json", "result-*.json", "report.json", "table.csv",
                    "layers.json"):
        for path in work.glob(pattern):
            path.unlink()
    print("perfbench-info: " + json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
