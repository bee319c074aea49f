"""Long-lived process that runs in-process ops (sweep, touch).

Usage: ``python3 perfbench/worker.py JOB.json`` with ``PYTHONPATH=src``
and ``PERFBENCH_SPAWN_NS`` set to the parent's ``time.monotonic_ns()``
just before the launch.

The worker imports ``subcurv.cli``, parses every config of the job into
a ``ComparisonScenario`` and prints ``ready``: that is the end of
set-up.  Then, depending on ``job["mode"]``:

``setup``   exit at once.
``loop``    closed loop, one client: run the job's configs in turn
            until ``seconds`` have passed, timing each op from config
            text to report and CSV text, and the host-speed probe
            (``probe.py``) before each op and once after the last.
            Outputs are checked between ops, outside the timed region.
``passes``  run the job's fixed op list repeatedly until ``seconds``
            have passed (at least once), optionally under the tracer.

Results go to ``job["out"]`` as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

_perf = time.perf_counter


def _op(cli, smp, text: str, jobs: int):
    """One op: config text -> report text and CSV text, as the CLI writes them."""
    doc = cli.parse_config(text)
    scenario = cli.scenario_from_config(doc)
    result = smp.run_scenario(scenario, jobs=jobs)
    report = cli.dumps_report(result.as_dict()) + "\n"
    csv_text = cli.write_scenario_csv(result, scenario.operator.chart.names)
    return report, csv_text


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Runner:
    def __init__(self, job, cli, smp):
        import oracles

        self.job = job
        self.cli, self.smp = cli, smp
        self.check = {"sweep": oracles.check_sweep, "touch": oracles.check_touch}[job["workload"]]
        self.corrupt = oracles.corrupt
        self.corrupt_left = job.get("corrupt", 0)
        self.digests = {}

    def run(self, cfg) -> dict:
        t0 = _perf()
        try:
            report, csv_text = _op(self.cli, self.smp, cfg["text"], self.job["jobs"])
            error = None
        except Exception as exc:  # an op that raises is a failed op
            report = csv_text = None
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = _perf() - t0
        if error is None:
            digest = [_sha(report), _sha(csv_text)]
            first = self.digests.setdefault(cfg["id"], digest)
            if first != digest:
                error = "output bytes differ from an earlier run of the same config"
            if self.corrupt_left > 0:
                self.corrupt_left -= 1
                report, csv_text = self.corrupt(report, csv_text)
            error = error or self.check(cfg, report, csv_text)
        return {"cfg": cfg["id"], "family": cfg["family"], "s": seconds, "error": error}


def main() -> int:
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    from subcurv import cli, smp

    import_s = (time.monotonic_ns() - spawn_ns) / 1e9
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    configs = job["configs"]
    for cfg in configs:
        cli.scenario_from_config(cli.parse_config(cfg["text"]))
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0

    runner = _Runner(job, cli, smp)
    out = {"import_s": import_s}
    deadline = _perf() + job["seconds"]
    if job["mode"] == "loop":
        ops = []
        from probe import probe

        while _perf() < deadline:
            probe_s = probe()
            ops.append(runner.run(configs[len(ops) % len(configs)]))
            ops[-1]["probe_s"] = probe_s
        out["ops"] = ops
        out["last_probe_s"] = probe()
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        passes = []
        while not passes or _perf() < deadline:
            ops = []
            for k, idx in enumerate(job["sequence"]):
                if tracer is not None:
                    tracer.reset()
                    tracer.op = f"pass{len(passes)}-op{k}"
                ops.append(runner.run(configs[idx]))
                if tracer is not None:
                    ops[-1]["layers"] = tracer.summary()
            passes.append({"ops": ops, "process_start_s": import_s})
        out["passes"] = passes
        if tracer is not None:
            tracer.uninstall()
            with open(job["trace_out"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    out["digests"] = runner.digests
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
