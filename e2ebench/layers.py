"""Per-layer self-time table of a traced benchmark run.

Input: the Chrome trace the benchmark binary wrote (obs::TraceSpan spans
from the benchmark's own wrappers plus the library's spans) and its
"<trace>.counters.json" sidecar (obs::snapshot() deltas over the traced
units). Output: a table of self time per layer and span, as a share of the
traced units' wall time, the coverage check (rows attributed to a program
layer must cover >= 90% of wall time) and counter ratios with their bases.

Attribution rules:
  * A span's self time is its duration minus what its child spans on the
    same thread cover. Its layer is its category (sim, serve, core, exp,
    fabric); "bench" is the benchmark's own time, counted as unattributed.
  * Self time of the measuring thread while other threads run (the sweep
    engine waiting on its pool, the benchmark waiting on the fabric's
    controller and workers) is split across the layers those threads were
    busy in, in proportion to their busy time; their time outside any span
    is the waiting span's "(other threads outside spans)" row.
  * open.run spans contain the planner call the engine times as the
    open.plan timer; that time (minus core.optimize_all spans inside it) is
    moved from sim to serve.

Run standalone: python3 e2ebench/layers.py TRACE.json
"""

import bisect
import json
import sys

COVERAGE_FLOOR = 0.90
LAYERS = ("sim", "serve", "core", "exp", "fabric")
# Layer charged with other threads' time outside any span while the
# measuring thread waits in the named span (the fabric's threads are
# started by the benchmark unit itself).
IDLE_LAYER = {"bench.unit": "fabric"}


class Span:
    __slots__ = ("name", "cat", "start", "end", "segments")

    def __init__(self, name, cat, start, end):
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.segments = []  # self-time (start, end) pieces, from nest()


def load_tracks(path):
    """Spans per thread id, each list sorted by start (parents first)."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    tracks = {}
    for event in events:
        if event.get("ph") == "X":
            start = float(event["ts"]) * 1e-6
            span = Span(event["name"], event.get("cat", ""), start,
                        start + float(event["dur"]) * 1e-6)
            tracks.setdefault(event["tid"], []).append(span)
    for spans in tracks.values():
        spans.sort(key=lambda s: (s.start, -s.end))
    return tracks


def nest(spans):
    """Computes each span's self-time segments from its direct children."""
    stack, children = [], {}
    for span in spans:
        while stack and stack[-1].end <= span.start:
            stack.pop()
        if stack:
            children.setdefault(id(stack[-1]), []).append(span)
        stack.append(span)
    for span in spans:
        cursor, segments = span.start, []
        for child in children.get(id(span), []):
            if child.start > cursor:
                segments.append((cursor, child.start))
            cursor = max(cursor, child.end)
        if span.end > cursor:
            segments.append((cursor, span.end))
        span.segments = segments


def layer_of(span):
    return span.cat if span.cat in LAYERS else "bench"


class TrackIndex:
    """Self-time segments of one thread, searchable by time."""

    def __init__(self, spans):
        self.items = sorted(
            ((a, b, span) for span in spans for a, b in span.segments),
            key=lambda item: item[0])
        self.starts = [item[0] for item in self.items]
        self.first = min((s.start for s in spans), default=0.0)
        self.last = max((s.end for s in spans), default=0.0)

    def busy(self, lo, hi):
        """{(layer, name): seconds} of self time inside [lo, hi]."""
        out = {}
        index = max(0, bisect.bisect_left(self.starts, lo) - 1)
        # Segments are disjoint and sorted, so one step back suffices.
        while index < len(self.items) and self.items[index][0] < hi:
            a, b, span = self.items[index]
            overlap = max(0.0, min(b, hi) - max(a, lo))
            if overlap > 0.0:
                key = (layer_of(span), span.name)
                out[key] = out.get(key, 0.0) + overlap
            index += 1
        return out


def analyse(trace_path, counters_path=None):
    tracks = load_tracks(trace_path)
    for spans in tracks.values():
        nest(spans)
    main = next((tid for tid, spans in tracks.items()
                 if any(s.name == "bench.unit" for s in spans)), None)
    if main is None:
        raise SystemExit("layers: no bench.unit span in " + trace_path)
    units = [s for s in tracks[main] if s.name == "bench.unit"]
    wall = sum(u.end - u.start for u in units)
    others = {tid: TrackIndex(spans) for tid, spans in tracks.items()
              if tid != main}

    rows = {}  # (layer, name) -> seconds
    counts = {}

    def add(key, seconds):
        rows[key] = rows.get(key, 0.0) + seconds

    for span in tracks[main]:
        if not any(u.start <= span.start and span.end <= u.end for u in units):
            continue
        counts[span.name] = counts.get(span.name, 0) + 1
        # Self time while other threads run is time spent waiting on
        # them: split it by what they were doing.
        for a, b in span.segments:
            active = [t for t in others.values()
                      if t.first < b and t.last > a]
            if not active:
                add((layer_of(span), span.name), b - a)
                continue
            busy, capacity = {}, 0.0
            for track in active:
                lo, hi = max(a, track.first), min(b, track.last)
                capacity += max(0.0, hi - lo)
                for key, seconds in track.busy(lo, hi).items():
                    busy[key] = busy.get(key, 0.0) + seconds
            idle = max(0.0, capacity - sum(busy.values()))
            if capacity <= 0.0:
                add((layer_of(span), span.name), b - a)
                continue
            for key, seconds in busy.items():
                add(key, (b - a) * seconds / capacity)
            add((IDLE_LAYER.get(span.name, layer_of(span)),
                 "(other threads outside spans)"), (b - a) * idle / capacity)

    deltas = {}
    if counters_path:
        with open(counters_path) as handle:
            deltas = json.load(handle)["deltas"]
    # The engine's planner call has no span; its timer says how long it
    # took. Move that time out of open.run's self time into serve.
    plan_s = deltas.get("open.plan", 0.0)
    if plan_s > 0.0:
        core_in_plan = rows.get(("core", "core.optimize_all"), 0.0)
        serve_s = max(0.0, plan_s - core_in_plan)
        add(("sim", "open.run"), -serve_s)
        add(("serve", "PlannerService::plan (open.plan timer)"), serve_s)
    return rows, counts, wall, deltas


RATIOS = (
    ("sim.cancel_ratio", "sim.events_cancelled", ("sim.events_scheduled",)),
    ("sim.slot_reuse_ratio", "sim.slots_reused",
     ("sim.slots_reused", "sim.slots_allocated")),
    ("admission.degrade_ratio", "open.degraded", ("open.arrivals",)),
    ("admission.reject_ratio", "open.rejected", ("open.arrivals",)),
    ("serve.hit_ratio", "serve.hits", ("serve.requests",)),
    ("serve.busy_share", "open.plan", ("open.run",)),
    ("core.evals_per_call", "core.optimizer.evaluations",
     ("core.optimizer.calls",)),
    ("fabric.leases_per_result", "fabric.leases_granted", ("fabric.results",)),
)


def report(trace_path, counters_path=None, out=sys.stdout):
    """Prints the table and returns the coverage share."""
    rows, counts, wall, deltas = analyse(trace_path, counters_path)
    attributed = sum(v for (layer, _), v in rows.items() if layer != "bench")
    coverage = attributed / wall if wall > 0 else 0.0
    print("  per-layer self time over %.4f s of traced wall time "
          "(%d units):" % (wall, counts.get("bench.unit", 0)), file=out)
    print("    %-8s %-42s %12s %8s" % ("layer", "span", "self_s",
                                        "share"), file=out)
    by_layer = {}
    for (layer, name), seconds in rows.items():
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    for (layer, name), seconds in sorted(
            rows.items(), key=lambda kv: (-by_layer[kv[0][0]], -kv[1])):
        if abs(seconds) < 1e-9:
            continue
        print("    %-8s %-42s %12.6f %7.2f%%" % (
            layer, name, seconds, 100.0 * seconds / wall), file=out)
    for layer in sorted(by_layer, key=lambda k: -by_layer[k]):
        print("    %-8s %-42s %12.6f %7.2f%%" % (
            layer, "(layer total)", by_layer[layer],
            100.0 * by_layer[layer] / wall), file=out)
    verdict = "PASS" if coverage >= COVERAGE_FLOOR else "FAIL"
    print("  coverage: program layers account for %.2f%% of traced wall "
          "time (floor %.0f%%): %s" % (100.0 * coverage,
                                       100.0 * COVERAGE_FLOOR, verdict),
          file=out)
    if deltas:
        print("  counter ratios (value = part / base):", file=out)
        for name, part, base in RATIOS:
            denominator = sum(deltas.get(b, 0.0) for b in base)
            if denominator <= 0.0:
                continue
            numerator = deltas.get(part, 0.0)
            print("    %-26s %10.4f = %s %.6g / %s %.6g" % (
                name, numerator / denominator, part, numerator,
                " + ".join(base), denominator), file=out)
    return coverage


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: layers.py TRACE.json")
    report(sys.argv[1], sys.argv[1] + ".counters.json")
