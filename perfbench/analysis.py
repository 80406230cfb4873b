"""Pure helpers for the repository benchmark: statistics, the `suite --stats`
parser, output checks, and the span arithmetic behind the per-layer metrics.

Nothing here runs a process or reads the clock, so every function is
unit-tested in `test_analysis.py` (run: `python3 -m unittest discover -s
perfbench`).
"""

import json
import statistics

DESIGNS = [
    "static",
    "adaptive",
    "vm_part",
    "jigsaw",
    "jumanji",
    "jumanji_insecure",
    "jumanji_ideal_batch",
]

FIGURES = [
    "fig02",
    "fig04",
    "fig05",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table2",
    "table3",
    "sensitivity",
    "ablation",
    "validate",
]


def median(values):
    return statistics.median(values) if values else 0.0


def iqr_share(values):
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------ suite --stats


class StatsError(ValueError):
    pass


def parse_stats(text):
    """Parses the JSON `suite --stats PATH` writes into the counters the
    benchmark checks. Cells *computed* come from the scheduler's
    `computed_runs` + `detail_computed`, never from the top-level
    `cells_computed` (that one counts in-memory map misses, which include
    cells served from disk)."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise StatsError(f"stats are not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise StatsError("stats are not a JSON object")
    sched = doc.get("sched")
    if not isinstance(sched, dict):
        raise StatsError("stats have no `sched` section (sequential path?)")

    def count(section, key):
        v = section.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise StatsError(f"stats field `{key}` is not a count: {v!r}")
        return v

    out = {
        "computed_runs": count(sched, "computed_runs"),
        "detail_computed": count(sched, "detail_computed"),
        "disk_run_hits": count(sched, "disk_run_hits"),
        "detail_disk_hits": count(sched, "detail_disk_hits"),
        "planned_runs": count(sched, "planned_runs"),
        "planned_details": count(sched, "planned_details"),
        "nodes": count(sched, "nodes"),
    }
    disk = doc.get("disk_cache")
    if isinstance(disk, dict):
        out["store_hits"] = count(disk, "hits")
        out["store_misses"] = count(disk, "misses")
        out["store_corrupt_dropped"] = count(disk, "corrupt_dropped")
    out["cells_computed"] = out["computed_runs"] + out["detail_computed"]
    out["cells_served"] = out["disk_run_hits"] + out["detail_disk_hits"]
    return out


def stats_problems(stats, warm, plan):
    """Why a run's stats disqualify it (empty when they don't). A warm run
    must compute nothing and serve every cell from the store; a cold run
    must compute every unique planned cell and serve none."""
    problems = []
    if warm:
        if stats["cells_computed"] != 0:
            problems.append(f"warm run computed {stats['cells_computed']} cells")
        lookups = stats.get("store_hits", 0) + stats.get("store_misses", 0)
        if lookups == 0 or stats.get("store_misses", 0) != 0:
            problems.append(
                f"warm store hit ratio below 1 ({stats.get('store_hits', 0)}/{lookups})"
            )
    else:
        if stats["cells_served"] != 0:
            problems.append(f"cold run served {stats['cells_served']} cells from the store")
        want = (plan.get("plan.unique_runs", 0), plan.get("plan.unique_details", 0))
        got = (stats["computed_runs"], stats["detail_computed"])
        if got != want:
            problems.append(f"cold run computed {got} (runs, details), plan has {want}")
    return problems


# ------------------------------------------------------------------ outputs


def tsv_shape(data):
    """Line count and tab-separated field count per line."""
    return [line.count(b"\t") + 1 for line in data.split(b"\n")]


def mean_mr_error(validate_tsv):
    """Mean |mr_analytic - mr_detailed| over validate.tsv's rows."""
    header = None
    errs = []
    for line in validate_tsv.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if header is None:
            header = cols
            ia, idet = header.index("mr_analytic"), header.index("mr_detailed")
            continue
        errs.append(abs(float(cols[ia]) - float(cols[idet])))
    if not errs:
        raise ValueError("validate.tsv has no rows")
    return sum(errs) / len(errs)


# -------------------------------------------------------------------- spans


def load_report(text):
    """The probe's report: spans as dicts plus its counters."""
    doc = json.loads(text)
    spans = [
        {"id": s[0], "parent": s[1], "lane": s[2], "name": s[3], "start": s[4], "end": s[5]}
        for s in doc["spans"]
    ]
    return spans, doc["counters"]


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals, lo, hi):
    return [(max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)]


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    its children cover (children on several threads count once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - union_length(clip(children.get(s["id"], []), s["start"], s["end"]))
        for s in spans
    }


def span_tree(spans):
    """Aggregates spans by their name path: {path: [count, total, self]}."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    paths = {}

    def path(s):
        p = paths.get(s["id"])
        if p is None:
            parent = by_id.get(s["parent"])
            p = (path(parent) + "/" if parent else "") + s["name"]
            paths[s["id"]] = p
        return p

    tree = {}
    for s in spans:
        row = tree.setdefault(path(s), [0, 0, 0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own[s["id"]]
    return tree


def render_tree(tree):
    """Lines of the self-time tree: children under their parent, heaviest
    first, times in seconds of thread time."""
    kids = {}
    for p in tree:
        parent, _, _ = p.rpartition("/")
        kids.setdefault(parent, []).append(p)
    lines = [f"{'span':<52} {'calls':>7} {'total_s':>9} {'self_s':>9}"]

    def walk(parent, depth):
        for p in sorted(kids.get(parent, []), key=lambda q: -tree[q][1]):
            count, total, own = tree[p]
            name = "  " * depth + p.rpartition("/")[2]
            lines.append(f"{name:<52} {count:>7} {total / 1e9:>9.4f} {own / 1e9:>9.4f}")
            walk(p, depth + 1)

    walk("", 0)
    return lines


def find_span(spans, name, parent=None):
    for s in spans:
        if s["name"] == name and (parent is None or s["parent"] == parent):
            return s
    raise KeyError(name)


def unattributed_frac(spans, workers):
    """Share of job wall x workers that no layer span covers. Worker lanes
    count their spans inside the scheduler's execution; outside it, the
    main thread's spans fill one lane; renders the main thread streams
    while the pool runs are extra work and fill no worker lane."""
    job = find_span(spans, "job", parent=0)
    wall = job["end"] - job["start"]
    if wall <= 0 or workers <= 0:
        return 0.0
    exe = find_span(spans, "bench.exec", parent=job["id"])
    covered = 0
    lanes = {}
    for s in spans:
        if s["parent"] == exe["id"]:
            lanes.setdefault(s["lane"], []).append((s["start"], s["end"]))
    for intervals in lanes.values():
        covered += union_length(clip(intervals, exe["start"], exe["end"]))
    main = [
        (s["start"], s["end"])
        for s in spans
        if s["parent"] == job["id"] and s["id"] != exe["id"]
    ]
    covered += union_length(clip(main, job["start"], exe["start"]))
    covered += union_length(clip(main, exe["end"], job["end"]))
    return min(1.0, max(0.0, 1.0 - covered / (wall * workers)))


def layer_metrics(spans, c):
    """Per-layer metrics of one traced job, except `trace.overhead_ratio`,
    which needs the untraced wall time. Counters of the per-call replay are
    absent when the probe ran without it, and read as 0."""
    busy = {}
    calls = {}
    for s in spans:
        busy[s["name"]] = busy.get(s["name"], 0) + (s["end"] - s["start"]) / 1e9
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def b(name):
        return busy.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def r(name):
        return c.get(name, 0.0)

    m = {}
    m["sim.exp_build.calls"] = n("sim.exp_build")
    m["sim.exp_build.busy_s"] = b("sim.exp_build")
    m["sim.hull_memo.hit_ratio"] = ratio(
        c["sim.hull_memo.hits"], c["sim.hull_memo.hits"] + c["sim.hull_memo.misses"]
    )
    run_busy = sum(b(f"sim.run.{d}") for d in DESIGNS)
    run_intervals = sum(c[f"sim.run.{d}.intervals"] for d in DESIGNS)
    m["sim.run.calls"] = sum(n(f"sim.run.{d}") for d in DESIGNS)
    m["sim.run.busy_s"] = run_busy
    m["sim.run.us_per_interval"] = ratio(run_busy * 1e6, run_intervals)
    for d in DESIGNS:
        m[f"sim.run.{d}.us_per_interval"] = ratio(
            b(f"sim.run.{d}") * 1e6, c[f"sim.run.{d}.intervals"]
        )
    m["sim.run.memo_hit_ratio"] = ratio(r("sim.run.memo_hits"), r("sim.run.memo_intervals"))
    for d in DESIGNS:
        m[f"core.placer.{d}.us_per_call"] = ratio(
            b(f"core.placer.{d}") * 1e6, r(f"core.placer.{d}.calls")
        )
    m["core.controller.ns_per_update"] = ratio(
        b("core.controller") * 1e9, r("core.controller.updates")
    )
    m["sim.evaluator.us_per_call"] = ratio(b("sim.evaluator") * 1e6, r("sim.evaluator.calls"))
    m["sim.lc_queue.ns_per_completion"] = ratio(
        b("sim.lc_queue") * 1e9, r("sim.lc_queue.completions")
    )
    m["sim.detail.calls"] = n("sim.detail")
    m["sim.detail.busy_s"] = b("sim.detail")
    m["sim.detail.accesses_per_s"] = ratio(c["sim.detail.accesses"], b("sim.detail"))
    m["sim.detail.llc_miss_ratio"] = ratio(
        c["sim.detail.sim_misses"], c["sim.detail.sim_accesses"]
    )
    m["sim.detail.port_conflict_ratio"] = ratio(
        c["sim.detail.sim_port_wait"], c["sim.detail.sim_latency"]
    )
    m["attacks.leakage.busy_s"] = b("attacks.leakage")
    m["attacks.port.busy_s"] = b("attacks.port")
    m["bench.plan.busy_s"] = b("bench.plan")
    m["bench.plan.planned_cells"] = c["plan.planned_cells"]
    m["bench.plan.unique_cells"] = c["plan.unique_cells"]
    m["bench.plan.reuse_ratio"] = 1.0 - ratio(c["plan.unique_cells"], c["plan.planned_cells"])
    renders = [f"bench.render.{f}" for f in FIGURES]
    m["bench.render.busy_s"] = sum(b(r) for r in renders)
    for f in FIGURES:
        m[f"bench.render.{f}.ms"] = b(f"bench.render.{f}") * 1e3
    m["bench.store.write.calls"] = n("bench.store.write")
    m["bench.store.write.us_per_entry"] = ratio(
        b("bench.store.write") * 1e6, n("bench.store.write")
    )
    m["bench.store.write.bytes_per_entry"] = ratio(
        c["bench.store.written_bytes"], c["bench.store.cell_writes"]
    )
    m["bench.store.read.calls"] = n("bench.store.read")
    m["bench.store.read.us_per_entry"] = ratio(
        b("bench.store.read") * 1e6, n("bench.store.read")
    )
    m["bench.store.probe.us_per_call"] = ratio(
        b("bench.store.probe") * 1e6, c["bench.store.probe_calls"]
    )
    served = c["job.disk_run_hits"] + c["job.detail_disk_hits"]
    computed = c["job.computed_runs"] + c["job.detail_computed"]
    m["bench.store.hit_ratio"] = ratio(served, served + computed)
    m["bench.store.corrupt_dropped"] = c["bench.store.corrupt_dropped"]
    m["bench.sched.utilization"] = ratio(c["bench.sched.busy_us"], c["bench.sched.span_us"])
    m["bench.sched.steals"] = c["bench.sched.steals"]
    m["bench.sched.critical_path_s"] = c["bench.sched.critical_path_us"] / 1e6
    m["bench.sched.elapsed_s"] = c["bench.sched.elapsed_us"] / 1e6
    m["bench.sched.queue_depth_median"] = c["bench.sched.queue_depth_median"]
    m["trace.unattributed_frac"] = unattributed_frac(spans, int(c["job.workers"]))
    return m
