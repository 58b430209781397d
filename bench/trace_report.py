"""The traced run: per-layer metrics from span files, and the trace-fidelity checks.

``bench/run.py --trace 1`` calls :func:`traced_run`.  It runs the
workload's jobs once untraced and TRACED_PASSES times through
``trace_boot.py``, aggregates each pass's span files into the per-layer
metrics named in ``layers.json``, and fails the run unless

- every traced report (or output file) is byte-identical to the untraced one,
- ``suites.checks`` equals the check count of the structured reports,
- every metric is nonzero on the workloads its row names in ``nonzero_on``
  (and zero on those in ``zero_on``),
- the deterministic counts repeat exactly across the traced passes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from array import array

from harness import (LAYERS, TRACED_PASSES, BenchError, build_jobs, calibrate, metric,
                     print_info, run_pass)

# metrics whose value is a count fixed by the inputs, not a time
DETERMINISTIC_SUFFIXES = (".calls", ".pairs", ".max_n", "_ratio", ".peak_nnz", ".max_bits",
                          "suites.checks", ".bytes_read", ".bytes_written")


def read_spans(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    if header["open"]:
        raise BenchError(f"{path.name}: {header['open']} spans never closed")
    return header, columns


class Totals:
    """Per span name: calls, inclusive seconds (outermost spans only) and self seconds."""

    def __init__(self):
        self.calls, self.incl, self.self_s = {}, {}, {}
        self.counters = {}

    def add_file(self, path):
        header, (names, parents, starts, ends) = read_spans(path)
        labels = header["names"]
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        # preorder walk: a span is outermost if no open ancestor has its name
        open_names = [0] * len(labels)
        stack = []
        for i in range(n):
            p = parents[i]
            while stack and stack[-1] != p:
                open_names[names[stack.pop()]] -= 1
            nid = names[i]
            label = labels[nid]
            dur = ends[i] - starts[i]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.self_s[label] = self.self_s.get(label, 0.0) + dur - child[i]
            if not open_names[nid]:
                self.incl[label] = self.incl.get(label, 0.0) + dur
            open_names[nid] += 1
            stack.append(i)
        for key, value in header["counters"].items():
            if isinstance(value, dict):
                mine = self.counters.setdefault(key, {})
                for k, v in value.items():
                    mine[k] = mine.get(k, 0) + v
            elif key.endswith(("peak_nnz", "max_bits", "max_n")):
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def metrics(self) -> dict:
        """Every per-layer value this pass can give, by metric name."""
        out = {}
        for label in self.calls:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.s"] = self.incl.get(label, 0.0)
            out[f"{label}.self_s"] = self.self_s[label]
        mul = [label for label in self.calls if label.startswith("tensor.mul.a")]
        calls = sum(self.calls[label] for label in mul)
        out["tensor.mul.calls"] = calls
        out["tensor.mul.self_s"] = sum(self.self_s[label] for label in mul)
        out["tensor.mul.s"] = sum(self.incl.get(label, 0.0) for label in mul)
        c = self.counters
        pairs = c.get("tensor.mul.pairs", {})
        out["tensor.mul.pairs"] = sum(pairs.values())
        for arity, work in pairs.items():
            out[f"tensor.mul.a{arity}.pairs"] = work
        out["tensor.mul.peak_nnz"] = c.get("tensor.mul.peak_nnz", 0)
        out["tensor.mul.max_bits"] = c.get("tensor.mul.max_bits", 0)
        out["tensor.mul.repeat_calls_ratio"] = (
            c.get("tensor.mul.repeat_calls", 0) / calls if calls else 0.0)
        out["tensor.mul.repeat_pairs_ratio"] = (
            c.get("tensor.mul.repeat_pairs", 0) / out["tensor.mul.pairs"]
            if out["tensor.mul.pairs"] else 0.0)
        out["linalg.solve.max_n"] = c.get("linalg.solve.max_n", 0)
        out["structures.derived.calls"] = sum(
            self.calls.get(f"structures.{f}_structure", 0)
            for f in ("opposite", "primed", "zero"))
        candidates = c.get("randgen.candidates", 0)
        out["randgen.accept_ratio"] = (c.get("randgen.returned", 0) / candidates
                                       if candidates else 0.0)
        for key in ("serial.bytes_read", "serial.bytes_written", "suites.checks"):
            out[key] = c.get(key, 0)
        return out


def fidelity_checks(workload, table, untraced, passes, values, metrics) -> list:
    problems = []
    for results, counted in zip(passes, values):
        for plain, traced in zip(untraced, results):
            if (plain.verdict.exit, plain.verdict.digest) != (traced.verdict.exit,
                                                              traced.verdict.digest):
                problems.append(f"{traced.job.id}: traced output differs from untraced")
        checks = sum(r.verdict.checks or 0 for r in results)
        if counted["suites.checks"] != checks:
            problems.append(f"suites.checks {counted['suites.checks']} != "
                            f"report check count {checks}")
    for row in table:
        for name in row["metrics"]:
            value = metrics[name]["value"]
            if workload in row.get("nonzero_on", ()) and not value:
                problems.append(f"{name} is zero on {workload}")
            if workload in row.get("zero_on", ()) and value:
                problems.append(f"{name} is {value} on {workload}, expected zero")
    first, *rest = values
    for other in rest:
        for name in sorted(set(first) | set(other)):
            if name.endswith(DETERMINISTIC_SUFFIXES) and first.get(name) != other.get(name):
                problems.append(f"{name} differs across traced passes: "
                                f"{first.get(name)} vs {other.get(name)}")
    return problems


def traced_run(args, expected, inputs, run_dir, deadline, log, calib, setup_times) -> dict:
    table = json.loads(LAYERS.read_text())["table"]

    def one_pass(name, traced):
        calib.append(calibrate())
        pass_dir = run_dir / name
        trace_dir = pass_dir / "spans" if traced else None
        if traced:
            trace_dir.mkdir(parents=True)
        jobs = build_jobs(args.workload, args.seed, inputs, pass_dir)
        t0 = time.perf_counter()
        results = run_pass(jobs, pass_dir, deadline, trace_dir)
        log.add(results, time.perf_counter() - t0, expected, args.workload, args.seed)
        totals = None
        if traced:
            totals = Totals()
            for r in results:
                totals.add_file(r.trace)
        shutil.rmtree(pass_dir)
        return results, totals

    untraced, _ = one_pass("untraced", False)
    passes, values = [], []
    for k in range(TRACED_PASSES):
        results, totals = one_pass(f"traced{k}", True)
        passes.append(results)
        values.append(totals.metrics())

    plain_wall, traced_wall = log.walls[0], statistics.median(log.walls[1:])
    start = [r.seconds for r in untraced if r.job.id == "verify:trivial:axioms"]
    extra = {"cli.start_s": start[0] if start else 0.0,
             "bench.calib_s": statistics.median(calib),
             "bench.trace_overhead_s": traced_wall - plain_wall}
    metrics = {}
    for row in table:
        for name, unit in zip(row["metrics"], row["units"]):
            if name in extra:
                value = extra[name]
            elif name.endswith(DETERMINISTIC_SUFFIXES):
                value = values[0].get(name, 0)
            else:
                value = statistics.median(v.get(name, 0.0) for v in values)
            metrics[name] = metric(value, unit)

    problems = fidelity_checks(args.workload, table, untraced, passes, values, metrics)
    for p in problems:
        print(f"trace fidelity: {p}")
    work = expected.get("work", {}).get(args.workload, {}).get(str(args.seed))
    print_info(args, log, calib, traced_wall_s=traced_wall, untraced_wall_s=plain_wall,
               tensor_mul_pairs=values[0]["tensor.mul.pairs"],
               recorded_tensor_mul_pairs=work, setup_s=statistics.median(setup_times))
    return {"correct": log.failed == 0 and not problems, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics}
