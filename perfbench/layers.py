"""Per-layer metrics from the spans of traced runs.

A span's self time is its duration minus the part of its interval that
its children cover (the union of the children's intervals, on any
thread).  A layer's self time is the sum over its spans.  Durations of
nested spans of one name are counted once, at the outermost span.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS

NS = 1e-9

# (metric, unit) in output order; every traced run reports all of them.
PER_LAYER = [
    ("design.fit_s", "s"),
    ("design.fits", "count"),
    ("design.fit_ms_p50", "ms"),
    ("design.fit_ms_p99", "ms"),
    ("design.sample_s", "s"),
    ("design.sampled_mb", "MB"),
    ("design.pred_error_s", "s"),
    ("design.sigma_min_s", "s"),
    ("linalg.factorizations", "count"),
    ("linalg.factorizations_per_trial", "1/trial"),
    ("noise.realize_s", "s"),
    ("noise.calls", "count"),
    ("experiments.trials", "count"),
    ("experiments.trial_self_s", "s"),
    ("experiments.trial_ms_p50", "ms"),
    ("experiments.trial_ms_p99", "ms"),
    ("experiments.aggregate_s", "s"),
    ("experiments.run_s", "s"),
    ("experiments.pool_threads", "count"),
    ("experiments.pool_efficiency", "ratio"),
    ("diagnostics.diagnose_s", "s"),
    ("diagnostics.calls", "count"),
    ("diagnostics.effective_rank_index_s", "s"),
    ("diagnostics.complexity_radius_s", "s"),
    ("diagnostics.lower_radius_s", "s"),
    ("diagnostics.tail_halving_index_s", "s"),
    ("spectra.build_s", "s"),
    ("spectra.load_s", "s"),
    ("spectra.values", "count"),
    ("serialize.json_s", "s"),
    ("serialize.csv_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.bytes_written", "bytes"),
    ("cli.import_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("process.cpu_s", "s"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
]


def _union_ns(intervals, lo, hi) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> self time in ns."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _thread, _work in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _union_ns(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _thread, _work in spans
    }


def _percentile_ms(durations_ns, q) -> float:
    if len(durations_ns) < 2:
        return durations_ns[0] * NS * 1e3 if durations_ns else 0.0
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] * NS * 1e3


def layer_metrics(traces, traced_wall_s: float) -> dict:
    """Per-layer metrics over the traces of one workload's traced processes.

    traces: list of {"spans": [...], "counts": {...}}, one per process.
    """
    acc = defaultdict(float)
    durations = defaultdict(list)  # outermost spans of a name, in ns
    pools = []  # (run_experiment duration ns, threads its trials ran on, trial ns)
    for trace in traces:
        spans = trace["spans"]
        by_id = {s[0]: s for s in spans}
        own = self_times(spans)
        trial_threads = defaultdict(set)
        trial_ns = defaultdict(int)
        for sid, name, start, end, parent, thread, work in spans:
            layer = name.split(".", 1)[0]
            acc[f"{layer}.self_s"] += own[sid] * NS
            if name == "experiments.run_trial":
                acc["experiments.trial_self_s"] += own[sid] * NS
                trial_threads[parent].add(thread)
                trial_ns[parent] += end - start
            elif name == "experiments.run_experiment":
                acc["experiments.aggregate_s"] += own[sid] * NS
            if work is not None:
                acc[f"work:{name}"] += work
            # skip spans nested in a span of the same name or same layer
            # family (make_* -> Spectrum, load_spectrum -> parse_spectrum)
            anc = by_id.get(parent)
            nested = False
            while anc is not None:
                if anc[1] == name or (layer == "spectra" and anc[1].startswith("spectra.")):
                    nested = True
                    break
                anc = by_id.get(anc[4])
            if not nested:
                durations[name].append(end - start)
        for sid, name, start, end, *_ in spans:
            if name == "experiments.run_experiment":
                pools.append((end - start, len(trial_threads[sid]), trial_ns[sid]))
        acc["linalg.factorizations"] += sum(trace["counts"].values())
        acc["trace.spans"] += len(spans)

    def total_s(*names):
        return sum(sum(durations[n]) for n in names) * NS

    fits = sorted(durations["design.min_norm_fit"])
    trials = sorted(durations["experiments.run_trial"])
    m = dict(acc)
    m.update({
        "design.fit_s": total_s("design.min_norm_fit"),
        "design.fits": len(fits),
        "design.fit_ms_p50": _percentile_ms(fits, 50),
        "design.fit_ms_p99": _percentile_ms(fits, 99),
        "design.sample_s": total_s("design.sample_design"),
        "design.sampled_mb": acc["work:design.sample_design"] / 1e6,
        "design.pred_error_s": total_s("design.prediction_error"),
        "design.sigma_min_s": total_s("design.smallest_singular_value"),
        "linalg.factorizations_per_trial": (
            acc["linalg.factorizations"] / len(trials) if trials else 0.0
        ),
        "noise.realize_s": total_s("noise.realize_noise"),
        "noise.calls": len(durations["noise.realize_noise"]),
        "experiments.trials": len(trials),
        "experiments.trial_ms_p50": _percentile_ms(trials, 50),
        "experiments.trial_ms_p99": _percentile_ms(trials, 99),
        "experiments.run_s": sum(d for d, _, _ in pools) * NS,
        "experiments.pool_threads": max((t for _, t, _ in pools), default=0),
        "experiments.pool_efficiency": (
            sum(busy for _, _, busy in pools) / sum(d * max(t, 1) for d, t, _ in pools)
            if pools else 0.0
        ),
        "diagnostics.diagnose_s": total_s("diagnostics.diagnose"),
        "diagnostics.calls": len(durations["diagnostics.diagnose"]),
        "spectra.build_s": total_s(
            "spectra.make_flat_spectrum", "spectra.make_exp_floor_spectrum",
            "spectra.make_three_level_spectrum", "spectra.Spectrum",
        ),
        "spectra.load_s": total_s("spectra.load_spectrum", "spectra.parse_spectrum"),
        "spectra.values": acc["work:spectra.Spectrum"],
        "serialize.json_s": total_s("serialize.to_json"),
        "serialize.csv_s": total_s("serialize.csv_line"),
        "serialize.write_s": total_s("serialize.write_text"),
        "serialize.bytes_written": acc["work:serialize.write_text"],
        "cli.import_s": total_s("cli.import"),
        "trace.wall_s": traced_wall_s,
    })
    for fn in ("effective_rank_index", "complexity_radius", "lower_radius", "tail_halving_index"):
        m[f"diagnostics.{fn}_s"] = total_s(f"diagnostics.{fn}")
    layer_self = sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    m["trace.coverage"] = layer_self / traced_wall_s if traced_wall_s > 0 else 0.0
    return {name: float(m.get(name, 0.0)) for name, _ in PER_LAYER}
