"""Pipeline benchmark for the qtm CLI.

Replays a seeded stream of ``qtm`` commands in-process through
``quasitoric.cli.main``, with stdin and stdout held in memory, from one
single-threaded closed-loop client (one command in flight). Inputs reach the
library only as ``.qtm`` text, generated at set-up from ``--seed`` by
``corpus.py``. Every output is checked by ``check.py``.

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The last line of stdout is one JSON object: with ``--trace 0`` the
end-to-end metrics (tracing off), with ``--trace 1`` the per-layer metrics
from a separate traced run. Traced spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.

End-to-end metrics:
  wall_s        median over timed passes of one pass over the whole stream
  cmd_p50_s     median over commands of each command's median latency
  cmd_p90_s     90th percentile of the same per-command medians
  setup_s       import, plus the median of SETUP_REPEATS set-ups, each one
                corpus construction + serialize and one warm-up pass
  peak_rss_mib  ru_maxrss of this process, taken before the output check

The times are in reference seconds. On a shared host the processor's speed
drifts by tens of percent over seconds to minutes, and process time drifts
with it, so a fixed calibration mix (``calibrate``) is timed after every
command and each command's time is scaled by CAL_REF_S over the median of the
calibration times around it. A change to the library leaves the mix alone,
so it moves these numbers as it would move raw seconds; the raw figures are
printed too.
Failed commands (raised, wrong exit code or wrong output) are reported as
``failed`` out of ``attempted`` and as failed_frac in the summary lines.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

T_START = perf_counter()
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().with_name("digests.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MIN_PASSES = 3
CAL_LOOPS = 4000
CAL_REF_S = 0.001  # about the mix's time on a 2-core x86-64 container, Python 3.11
CAL_WINDOW = 5  # calibration samples on each side of a command


def load_library():
    """Import quasitoric from this checkout's src/, never from elsewhere."""
    if not (SRC / "quasitoric" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import quasitoric

    if Path(quasitoric.__file__).resolve().parent != (SRC / "quasitoric").resolve():
        sys.exit(f"perfbench: imported quasitoric from {quasitoric.__file__}, not {SRC}")


def calibrate() -> float:
    """Seconds taken by a fixed mix of the operations the library spends its
    time in: an integer loop, fraction-free elimination on a 10x10 integer
    matrix, parsing text into sorted tuples and a set of their faces, and
    Fraction sums. The processor's current speed for this kind of code."""
    start = perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) % 1000003
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(10)] for i in range(10)]
    for c in range(9):
        p = rows[c][c] or 1
        for r in range(c + 1, 10):
            for cc in range(c + 1, 10):
                rows[r][cc] = rows[r][cc] * p - rows[r][c] * rows[c][cc]
    text = "\n".join(" ".join(str((i * 7 + j) % 97) for j in range(6)) for i in range(24))
    faces = set()
    for line in text.splitlines():
        v = tuple(sorted(int(t) for t in line.split()))
        for k in range(len(v)):
            faces.add(v[:k] + v[k + 1:])
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(i % 7 - 3, i)
    return perf_counter() - start


def scales(cal):
    """Per-command factor to reference seconds: CAL_REF_S over the median of
    the calibration times around the command."""
    return [CAL_REF_S / median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cal))]


def to_reference(times, scale):
    return [t * f for t, f in zip(times, scale)]


def run_pass(commands, cli, tracer=None, cal=None):
    """Run every command once; returns per-command times and per-command
    (exit code, stdout). With a ``cal`` list, time the calibration mix after
    each command into it."""
    times, results = [], []
    saved = sys.stdin, sys.stdout, sys.stderr
    try:
        for i, cmd in enumerate(commands):
            sys.stdin = io.StringIO(cmd.item.text)
            out = sys.stdout = io.StringIO()
            sys.stderr = io.StringIO()
            root = tracer.root("cli.main", i) if tracer else None
            t0 = perf_counter()
            try:
                rc = cli.main(cmd.argv)
            except Exception as exc:  # a traceback is a failed command, not a failed run
                rc = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if root:
                tracer.close(root)
            times.append(t1 - t0)
            results.append((rc, out.getvalue()))
            if cal is not None:
                cal.append(calibrate())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return times, results


def timed_passes(seconds, run):
    passes = []
    begin = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
        gc.collect()
        passes.append(run())
    return passes


class Tally:
    """Per command, how many executions differ from the reference result.
    Each pass is compared as it ends and its outputs are let go, so memory
    does not grow with the number of passes."""

    def __init__(self, ref):
        self.ref = ref
        self.runs = 1
        self.differ = [0] * len(ref)

    def add(self, results):
        self.runs += 1
        for i, result in enumerate(results):
            self.differ[i] += result != self.ref[i]


def verify(workload, seed, commands, tally):
    """Check the reference outputs, then count as failed every execution of a
    command whose reference is wrong and every execution that differs from a
    correct reference. Returns (correct, failed, notes)."""
    import check

    ref = tally.ref
    check.add_oracle(commands)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    digests = [check.digest(rc, out) for rc, out in ref]
    notes = []
    expected = pinned.get(workload) if seed == DEFAULT_SEED else None
    if seed == DEFAULT_SEED and (expected is None or len(expected) != len(ref)):
        notes.append(f"no pinned digests for {workload}")
    ok = []
    for i, (cmd, (rc, out)) in enumerate(zip(commands, ref)):
        found = check.problems(cmd, rc, out)
        if expected is not None and i < len(expected) and expected[i] != digests[i]:
            found.append("stdout differs from the pinned digest")
        if found:
            notes.append(f"command {i} {cmd.argv[0]} {cmd.item.label}: {'; '.join(found)}")
        elif not check.corruptions_caught(cmd, rc, out):
            notes.append(f"command {i}: a corrupted output line was not caught")
            found = True
        ok.append(not found)
    failed = sum(differ if good else tally.runs for good, differ in zip(ok, tally.differ))
    return not notes and failed == 0, failed, notes


def end_to_end(args, cli, corpus_mod):
    import_s = perf_counter() - T_START
    reps = []  # (raw seconds, reference seconds) of each set-up
    commands = tally = None
    same_texts = True
    for _ in range(SETUP_REPEATS):
        cal = [calibrate() for _ in range(2 * CAL_WINDOW)]
        t = perf_counter()
        built = corpus_mod.build(args.workload, args.seed)
        build_s = perf_counter() - t
        warm_times, warm = run_pass(built, cli, cal=cal)
        raw = build_s + sum(warm_times)
        reps.append((raw, raw * CAL_REF_S / median(cal)))
        if commands is None:
            commands, tally = built, Tally(warm)
        else:
            same_texts &= [c.item.text for c in built] == [c.item.text for c in commands]
            tally.add(warm)
        del built, warm

    def timed():
        cal = []
        times, results = run_pass(commands, cli, cal=cal)
        tally.add(results)
        return times, to_reference(times, scales(cal))

    passes = timed_passes(args.seconds, timed)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct, failed, notes = verify(args.workload, args.seed, commands, tally)
    if not same_texts:
        correct = False
        notes.append("the generator made different texts from one seed")
    attempted = len(commands) * tally.runs
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands per pass, "
          f"{len(passes)} timed passes, {SETUP_REPEATS} set-ups")
    def summary(col):  # col 0: raw seconds, col 1: reference seconds
        per_cmd = [median(p[col][i] for p in passes) for i in range(len(commands))]
        return {
            "wall_s": (median(sum(p[col]) for p in passes), "s"),
            "cmd_p50_s": (median(per_cmd), "s"),
            "cmd_p90_s": (quantiles(per_cmd, n=10, method="inclusive")[8], "s"),
            "setup_s": (import_s * reps[0][col] / reps[0][0] + median(r[col] for r in reps), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }

    for label, metrics in (("raw", summary(0)), ("reference", summary(1))):
        print(f"{label}: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    return correct, attempted, failed, notes, metrics


PER_LAYER_TIMES = [
    "fileformat.parse", "polytope.validate_polytope", "polytope.orient_dual_sphere",
    "charpair.validate_char", "linalg.det_bareiss", "polytope.f_vector", "polytope.h_vector",
    "positivity.build_system", "positivity.solve", "positivity.decide_positive",
    "invariants.compute_invariants", "invariants.intersection_form", "invariants.signature",
    "charpair.all_signs", "cli.main",
]
SETUP_TIMES = [
    "fileformat.serialize", "constructions.cpn", "constructions.product",
    "constructions.connected_sum_4d", "constructions.vertex_cut",
]
UNITS = {"parse_bytes": "bytes", "stdout_bytes": "bytes", "sat_ratio": "ratio"}


def per_layer(args, cli, corpus_mod):
    import tracing

    tracer = tracing.Tracer()
    cal = [calibrate() for _ in range(2 * CAL_WINDOW)]
    tracer.install()
    try:
        commands = corpus_mod.build(args.workload, args.seed)
    finally:
        tracer.remove()
    cal += [calibrate() for _ in range(2 * CAL_WINDOW)]
    setup_scale = CAL_REF_S / median(cal)
    setup_end = len(tracer.spans)
    tally = Tally(run_pass(commands, cli)[1])

    plain, traced, segments = [], [], []

    def pair_of_passes():
        gc.collect()
        cal = []
        times, results = run_pass(commands, cli, cal=cal)
        tally.add(results)
        plain.append(sum(to_reference(times, scales(cal))))
        gc.collect()
        cal = []
        first = len(tracer.spans)
        tracer.install()
        try:
            times, results = run_pass(commands, cli, tracer, cal)
        finally:
            tracer.remove()
        tally.add(results)
        scale = scales(cal)
        segments.append((f"pass{len(traced)}", first, len(tracer.spans), scale))
        traced.append(sum(to_reference(times, scale)))

    timed_passes(args.seconds, pair_of_passes)
    correct, failed, notes = verify(args.workload, args.seed, commands, tally)

    times, counts = [], []
    for _, first, last, scale in segments:
        times.append(tracing.self_times(tracer.spans, first, last, scale.__getitem__))
        c = tracing.layer_counts(tracer.spans, first, last)
        c["cli.stdout_bytes"] = sum(len(out.encode()) for _, out in tally.ref)
        counts.append(c)
    if any(c != counts[0] for c in counts):
        correct = False
        notes.append("counts differ between traced passes")
    setup_times = tracing.self_times(tracer.spans, 0, setup_end, lambda request: setup_scale)
    setup_counts = tracing.layer_counts(tracer.spans, 0, setup_end)
    med = tracing.median_by_key(times)

    metrics = {f"{name}_s": (med.get(name, 0.0), "s") for name in PER_LAYER_TIMES}
    metrics |= {f"{name}_s": (setup_times.get(name, 0.0), "s") for name in SETUP_TIMES}
    for name, value in counts[0].items():
        if name != "constructions.revalidated_vertices":
            metrics[name] = (value, UNITS.get(name.split(".", 1)[1], "count"))
    metrics["constructions.revalidated_vertices"] = (
        setup_counts["constructions.revalidated_vertices"], "count")
    metrics["trace.overhead_s"] = (
        median(traced) - median(plain), "s")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl",
                 [("setup", 0, setup_end)] + [seg[:3] for seg in segments])

    total = sum(med.values())
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands per pass, "
          f"{len(traced)} traced and {len(plain)} untraced passes")
    print(f"layer shares of traced self time ({total:.4g} s per pass):")
    for name, value in sorted(med.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {100 * value / total:6.2f}%")
    attempted = len(commands) * tally.runs
    return correct, attempted, failed, notes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["surfaces", "highdim", "faces"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    load_library()
    from quasitoric import cli

    import corpus

    run = per_layer if args.trace else end_to_end
    correct, attempted, failed, notes, metrics = run(args, cli, corpus)
    for note in notes[:20]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
