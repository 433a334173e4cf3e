"""offlang benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload finetune --seed 0 --seconds 35 --trace 0

One client in one process drives `offlang.cli.main` stage by stage (a closed
loop: the next stage starts when the previous one returns). Each workload is
a core stage sequence plus side stages that cover the stages the core does
not use; the two groups take turns, each at least twice, until `--seconds`
have passed. Every artifact is checked on every repeat. `--trace 0` reports
the end-to-end metrics; `--trace 1` runs one untraced repeat as the
reference, then untraced and traced repeats in turn, and reports the
per-layer metrics. The last line of standard output is the JSON result; the
lines before it are the machine record, the input properties and a readable
table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
MIN_REPEATS = 2
SIDE_SHARE = 0.25  # side stages' share of the stage time in an untraced run
AUGMENT_PIVOTS = "fr,de,es"  # pivots of the English augment runs
# BLAS runs on one thread. On a 2-core shared host a second thread made
# finetune about 7% faster, but its runs spread further apart (README.md,
# Noise). The machine record prints the thread count in use.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better); every workload reports all of them untraced.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "train_ex_per_s": ("ex/s", "higher"),
    "infer_ex_per_s": ("ex/s", "higher"),
    "normalize_tweets_per_s": ("tweets/s", "higher"),
    "weaklabel_rows_per_s": ("rows/s", "higher"),
    "augment_cold_rows_per_s": ("rows/s", "higher"),
    "augment_warm_rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "macro_f1": ("ratio", "higher"),
}


class Ledger:
    """Counts attempted and failed stage calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def stage(self, main, argv: list[str]) -> tuple[int, float]:
        """Run one CLI call; returns (exit code, seconds). An exception or a
        non-zero exit code counts as a failure."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = main(argv)
        except Exception:
            rc = -1
            out.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self._record(rc == 0, f"stage {argv[0]} exited {rc}: {out.getvalue().strip()[-300:]}")
        return rc, elapsed

    def check(self, what: str, predicate) -> bool:
        """Evaluate predicate(); False or an exception counts as a failure."""
        try:
            ok = bool(predicate())
        except Exception as exc:
            return self._record(False, f"check {what}: {type(exc).__name__}: {exc}")
        return self._record(ok, f"check {what}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- artifact readers and checks ---------------------------------------------


def read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip("\n")]


def label_counts(rows) -> dict[str, int]:
    counts = {"OFF": 0, "NOT": 0}
    for row in rows:
        counts[row[2]] += 1
    return counts


def report_consistent(path: Path) -> bool:
    """macro-F1 and accuracy in a report equal a recomputation from its own
    confusion matrix to 1e-12."""
    report = json.loads(path.read_text(encoding="utf-8"))
    conf = report["confusion"]
    classes = ("OFF", "NOT")
    f1s = []
    for c in classes:
        tp = conf[f"pred_{c}"][f"gold_{c}"]
        predicted = sum(conf[f"pred_{c}"].values())
        actual = sum(conf[f"pred_{p}"][f"gold_{c}"] for p in classes)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    total = sum(sum(row.values()) for row in conf.values())
    accuracy = sum(conf[f"pred_{c}"][f"gold_{c}"] for c in classes) / total
    return abs(report["macro_f1"] - sum(f1s) / 2) <= 1e-12 and abs(report["accuracy"] - accuracy) <= 1e-12


def check_augmented(ctx, source: Path, augmented: Path, pivots: int) -> None:
    def scaled():
        src, aug = read_rows(source), read_rows(augmented)
        return len(aug) == (1 + pivots) * len(src) and label_counts(aug) == {
            k: (1 + pivots) * v for k, v in label_counts(src).items()
        }

    ctx.check(f"augment: {1 + pivots}n rows, per-class counts x{1 + pivots}", scaled)


def check_weak(ctx, weak: Path, per_class: int, confidence: dict[str, float]) -> None:
    ctx.check("weaklabel: 2 x per-class rows, balanced",
              lambda: label_counts(read_rows(weak)) == {"OFF": per_class, "NOT": per_class})
    ctx.check(
        "weaklabel: confidences strictly above 0.8 (OFF) or below 0.2 (NOT)",
        lambda: all(
            (confidence[r[0]] > 0.8) if r[2] == "OFF" else (confidence[r[0]] < 0.2)
            for r in read_rows(weak)
        ),
    )


def check_golden(ctx, normalized: Path, expected: dict[str, str]) -> None:
    ctx.check("normalize: golden outputs",
              lambda: {r[0]: r[1] for r in read_rows(normalized) if r[0] in expected} == expected)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- workloads ---------------------------------------------------------------


class Context:
    """What a repeat needs: the CLI entry point, the ledger, the generated
    inputs, and the tracer (None when untraced). Checks queued with check()
    run after the repeat, outside every timed region. stage_s sums the
    stage times of the repeat in progress."""

    def __init__(self, main, ledger: Ledger, inputs: dict, tracer=None):
        self.main = main
        self.ledger = ledger
        self.inputs = inputs
        self.tracer = tracer
        self.pending: list[tuple[str, object]] = []
        self.stage_s = 0.0

    def check(self, what: str, predicate) -> None:
        self.pending.append((what, predicate))

    def run_checks(self) -> None:
        for what, predicate in self.pending:
            self.ledger.check(what, predicate)
        self.pending.clear()

    def stage(self, *argv) -> float:
        argv = [str(a) for a in argv]
        if self.tracer is None:
            elapsed = self.ledger.stage(self.main, argv)[1]
        else:
            with self.tracer.span(f"cli.{argv[0]}"):
                elapsed = self.ledger.stage(self.main, argv)[1]
        self.stage_s += elapsed
        return elapsed


def augment_cold_warm(ctx: Context, d: Path, source: Path):
    """Augment English rows with a fresh file cache (cold), then again with
    the same cache (warm). Returns (cold s, warm s, augmented file)."""
    cache = d / "cache.tsv"
    common = ["--input", source, "--language", "en", "--provider", "mock",
              "--pivots", AUGMENT_PIVOTS, "--cache", cache]
    cold = ctx.stage("augment", *common, "--out-dir", d / "cold")
    journal = cache.stat().st_size if cache.exists() else -1
    warm = ctx.stage("augment", *common, "--out-dir", d / "warm")
    augmented = d / "cold" / "augmented.tsv"
    ctx.check("augment: warm output byte-identical to cold",
              lambda: augmented.read_bytes() == (d / "warm" / "augmented.tsv").read_bytes())
    ctx.check("augment: journal does not grow on the warm run",
              lambda: cache.stat().st_size == journal)
    check_augmented(ctx, source, augmented, len(AUGMENT_PIVOTS.split(",")))
    return cold, warm, augmented


def macro_f1(ctx: Context, report: Path) -> float:
    ctx.check(f"{report.name}: consistent with its confusion matrix",
              lambda: report_consistent(report))
    return json.loads(report.read_text(encoding="utf-8"))["macro_f1"] if report.exists() else float("nan")


def text_stages(ctx: Context, d: Path, tw: dict) -> tuple[dict, list[Path]]:
    """normalize the labeled tweets, weaklabel the scored file."""
    norm = ctx.stage("normalize", "--input", tw["tweets"], "--out-dir", d / "norm")
    weak = ctx.stage("weaklabel", "--input", tw["scored"], "--per-class", tw["per_class"],
                     "--seed", tw["seed"], "--out-dir", d / "weak")
    check_golden(ctx, d / "norm" / "normalized.tsv", tw["golden"])
    check_weak(ctx, d / "weak" / "weak_train.tsv", tw["per_class"], tw["confidence"])
    sample = {"normalize_tweets_per_s": tw["n_tweets"] / norm, "weaklabel_rows_per_s": tw["n_scored"] / weak}
    return sample, [d / "norm" / "normalized.tsv", d / "weak" / "weak_train.tsv"]


def model_stages(ctx: Context, d: Path, m: dict) -> tuple[dict, list[Path]]:
    """train, then evaluate the checkpoint."""
    tr = ctx.stage("train", "--config", m["config"], "--input", m["train"], "--out-dir", d / "train")
    ev = ctx.stage("evaluate", "--checkpoint", d / "train" / "model.ckpt", "--input", m["test"],
                   "--out-dir", d / "eval")
    report = d / "eval" / "report.json"
    sample = {
        "train_ex_per_s": m["n_train"] * m["epochs"] / tr,
        "infer_ex_per_s": m["n_test"] / ev,
        "macro_f1": macro_f1(ctx, report),
    }
    return sample, [d / "train" / "model.ckpt", d / "train" / "loss_trace.csv", report]


def finetune_core(ctx: Context, d: Path):
    """augment (cold file cache) -> train -> evaluate at the CLI default encoder."""
    ft = ctx.inputs["finetune"]
    ctx.stage("augment", "--input", ft["train"], "--language", "tr", "--provider", "mock",
              "--pivots", "en,fr,de", "--cache", d / "cache.tsv", "--out-dir", d / "aug")
    augmented = d / "aug" / "augmented.tsv"
    tr = ctx.stage("train", "--config", ft["config"], "--input", augmented, "--out-dir", d / "train")
    ev = ctx.stage("evaluate", "--checkpoint", d / "train" / "model.ckpt", "--input", ft["test"],
                   "--out-dir", d / "eval")
    check_augmented(ctx, ft["train"], augmented, 3)
    report = d / "eval" / "report.json"
    sample = {
        "pipeline_s": ctx.stage_s,
        "train_ex_per_s": 4 * ft["n_train"] * ft["epochs"] / tr,
        "infer_ex_per_s": ft["n_test"] / ev,
        "macro_f1": macro_f1(ctx, report),
    }
    return sample, [augmented, d / "train" / "model.ckpt", d / "train" / "loss_trace.csv", report]


def augment_side(ctx: Context, d: Path) -> tuple[dict, list[Path]]:
    ap = ctx.inputs["augment_probe"]
    cold, warm, augmented = augment_cold_warm(ctx, d, ap["input"])
    return {"augment_cold_rows_per_s": ap["n"] / cold, "augment_warm_rows_per_s": ap["n"] / warm}, [augmented]


def finetune_side(ctx: Context, d: Path):
    sample, artifacts = text_stages(ctx, d / "text", ctx.inputs["text_probe"])
    aug_sample, aug_artifacts = augment_side(ctx, d / "aug")
    return {**sample, **aug_sample}, artifacts + aug_artifacts


def tweets_core(ctx: Context, d: Path):
    """stats -> normalize -> weaklabel (scored file 10x the tweets) ->
    augment the weak corpus with a cold file cache, then a warm one."""
    tw = ctx.inputs["tweets"]
    ctx.stage("stats", "--input", tw["tweets"], "--language", "en", "--out-dir", d / "stats")
    sample, artifacts = text_stages(ctx, d, tw)
    cold, warm, augmented = augment_cold_warm(ctx, d / "aug", d / "weak" / "weak_train.tsv")
    sample["pipeline_s"] = ctx.stage_s
    ctx.check("stats: total matches the input",
              lambda: json.loads((d / "stats" / "stats.json").read_text())["total"] == tw["n_tweets"])
    weak_rows = 2 * tw["per_class"]
    sample["augment_cold_rows_per_s"] = weak_rows / cold
    sample["augment_warm_rows_per_s"] = weak_rows / warm
    return sample, artifacts + [augmented]


def tweets_side(ctx: Context, d: Path):
    return model_stages(ctx, d, ctx.inputs["model_probe"])


def ablate_core(ctx: Context, d: Path):
    """ablate --mode english: two fine-tuned encoders, frozen-feature heads,
    single and dual inference."""
    ab = ctx.inputs["ablate"]
    ctx.stage("ablate", "--mode", "english", "--config", ab["config"], "--gold", ab["gold"],
              "--weak", ab["weak"], "--test", ab["test"], "--out-dir", d / "ablate")
    table = d / "ablate" / "table3.tsv"
    systems = ["encoder-A-only", "encoder-B-only", "dual"]
    ctx.check("ablate: table3 has the three system rows",
              lambda: [r[0] for r in read_rows(table)[1:]] == systems)
    reports = sorted((d / "ablate").glob("report_*.json"))
    ctx.check("ablate: three reports", lambda: len(reports) == 3)
    for report in reports:
        macro_f1(ctx, report)
    return {"pipeline_s": ctx.stage_s}, [table, *reports]


def ablate_side(ctx: Context, d: Path):
    sample, artifacts = text_stages(ctx, d / "text", ctx.inputs["text_probe"])
    aug_sample, aug_artifacts = augment_side(ctx, d / "aug")
    model_sample, model_artifacts = model_stages(ctx, d / "model", ctx.inputs["model_probe"])
    return {**sample, **aug_sample, **model_sample}, artifacts + aug_artifacts + model_artifacts


# Each workload is a core stage sequence, timed as pipeline_s, and side
# stages: small runs of the stages the core does not use, so that every
# end-to-end metric is measured on every workload.
WORKLOADS = {
    "finetune": (finetune_core, finetune_side),
    "tweets": (tweets_core, tweets_side),
    "ablate_en": (ablate_core, ablate_side),
}


def prepare(workload: str, seed: int, out: Path) -> tuple[dict, dict]:
    """Generate the workload's inputs; returns (inputs, input properties)."""
    import inputs as gen

    tables = gen.TweetTables(SRC / "offlang" / "data")
    golden = gen.load_golden(ROOT / "tests" / "data" / "normalize_golden.json")
    ins: dict = {}
    props: dict = {}

    def tweet_set(name, **sizes):
        tw, p = gen.tweet_set(tables, golden, out / name, seed, **sizes)
        tw["seed"] = seed
        ins[name], props[name] = tw, p

    if workload == "tweets":
        # Tweet traffic with repeated texts and popular hashtags.
        tweet_set("tweets", n=3000, n_scored=30000, per_class=1500, repeats=True)
    else:
        # The side text stages see no repeated text or hashtag, so a memo
        # in normalize cannot help there.
        tweet_set("text_probe", n=500, n_scored=25000, per_class=300, repeats=False)
        ins["augment_probe"] = gen.augment_probe_set(out / "augment_probe", seed)
    if workload == "finetune":
        ins["finetune"], props["finetune"] = gen.finetune_inputs(out / "finetune", seed)
    elif workload == "ablate_en":
        ins["ablate"], props["ablate"] = gen.ablate_inputs(out / "ablate", seed)
    if workload != "finetune":
        ins["model_probe"] = gen.model_probe_set(out / "model_probe", seed)
    return ins, props


# --- set-up time, import profile, machine record ------------------------------


def fresh_imports(extra: list[str]) -> list[subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *extra, "-c", "import offlang.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=120)
        proc.elapsed = time.perf_counter() - start
        out.append(proc)
    return out


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing offlang.cli."""
    return statistics.median(p.elapsed for p in fresh_imports([]))


def encoder_import_seconds() -> float:
    """Median cumulative import time of offlang.encoder, from -X importtime."""
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*offlang\.encoder\s*$", re.M)
    values = []
    for proc in fresh_imports(["-X", "importtime"]):
        match = pattern.search(proc.stderr)
        if match is None:
            raise RuntimeError("offlang.encoder missing from the import profile")
        values.append(int(match.group(1)) / 1e6)
    return statistics.median(values)


def blas_record() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def machine_record() -> dict:
    import numpy as np
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
    }


# --- measurement ---------------------------------------------------------


class Repeater:
    """Repeats one stage group in fresh directories and checks that every
    repeat writes the same artifact bytes as the first."""

    def __init__(self, ctx: Context, run_dir: Path, what: str, fn):
        self.ctx = ctx
        self.run_dir = run_dir
        self.what = what
        self.fn = fn
        self.reference: dict[str, str] | None = None
        self.samples: list[dict] = []
        self.durations: list[float] = []

    @property
    def total(self) -> float:
        return sum(self.durations)

    def fits(self, deadline: float) -> bool:
        """Whether another repeat is expected to end before the deadline."""
        if not self.durations:
            return True
        return time.perf_counter() + statistics.median(self.durations) <= deadline

    def once(self) -> dict:
        ctx = self.ctx
        ctx.stage_s = 0.0
        d = self.run_dir / f"rep{len(self.samples)}"
        sample, artifacts = self.fn(ctx, d)
        self.durations.append(ctx.stage_s)
        ctx.run_checks()
        digests = {str(p.relative_to(d)): digest(p) for p in artifacts if p.exists()}
        ctx.ledger.check("all artifacts written", lambda: len(digests) == len(artifacts))
        if self.reference is None:
            self.reference = digests
        else:
            ctx.ledger.check(self.what, lambda: digests == self.reference)
            shutil.rmtree(d)  # keep only the first repeat's files on disk
        self.samples.append(sample)
        return sample

    def aggregate(self) -> dict[str, float]:
        """Rates as total work over total time (the harmonic mean of the
        per-repeat rates; every repeat does the same work), others as means."""
        return {
            k: (statistics.harmonic_mean if k.endswith("_per_s") else statistics.mean)(
                [s[k] for s in self.samples]
            )
            for k in self.samples[0]
        }


def measure(workload: str, seed: int, seconds: float, run_dir: Path) -> tuple[dict, Ledger]:
    """Untraced run. Each step repeats the group that is behind: the side
    while it holds less than SIDE_SHARE of the stage time, else the core,
    so both groups sample the whole run. Once another core repeat would end
    after the deadline, side repeats fill the rest. Both groups repeat at
    least MIN_REPEATS times."""
    import offlang.cli

    ledger = Ledger()
    ins, props = prepare(workload, seed, run_dir / "inputs")
    print("inputs:", json.dumps(props, sort_keys=True))
    ctx = Context(offlang.cli.main, ledger, ins)
    core_fn, side_fn = WORKLOADS[workload]
    core = Repeater(ctx, run_dir / "core", "core: artifacts identical across repeats", core_fn)
    side = Repeater(ctx, run_dir / "side", "side: artifacts identical across repeats", side_fn)
    deadline = time.perf_counter() + seconds

    def next_group() -> Repeater:
        side_behind = side.total < SIDE_SHARE * (core.total + side.total)
        core_done = len(core.samples) >= MIN_REPEATS and not core.fits(deadline)
        return side if (core.samples and side_behind) or core_done else core

    while True:
        group = next_group()
        if min(len(core.samples), len(side.samples)) >= MIN_REPEATS and not group.fits(deadline):
            break
        group.once()
    metrics = {**core.aggregate(), **side.aggregate()}
    metrics["setup_s"] = setup_seconds()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {"core_repeats": len(core.samples), "side_repeats": len(side.samples),
             "error_rate": ledger.error_rate}
    return {"metrics": metrics, "extra": extra,
            "repeats": {"core": core.samples, "side": side.samples}}, ledger


def measure_traced(workload: str, seed: int, seconds: float, run_dir: Path) -> tuple[dict, Ledger]:
    """Traced run: one untraced repeat of core + side, which warms up and
    sets the reference artifacts, then untraced and traced repeats in turn
    until the time is up, ending on an untraced one. Per-layer metrics are
    medians over the traced repeats; every repeat's artifacts must equal
    the reference. The tracing overhead of a traced repeat is its
    pipeline_s minus the mean of the untraced repeats on either side, so a
    steady drift in the machine's speed cancels; the run reports the
    median."""
    import offlang.cli

    import layers
    from spans import Patcher, Tracer, self_times

    ledger = Ledger()
    ins, props = prepare(workload, seed, run_dir / "inputs")
    print("inputs:", json.dumps(props, sort_keys=True))
    ctx = Context(offlang.cli.main, ledger, ins)
    core, side = WORKLOADS[workload]

    def both(ctx, d):
        sample, artifacts = core(ctx, d / "core")
        side_sample, side_artifacts = side(ctx, d / "side")
        return {**side_sample, **sample}, artifacts + side_artifacts

    deadline = time.perf_counter() + seconds
    rep = Repeater(ctx, run_dir, "every repeat's artifacts identical to the first", both)
    rep.once()
    untraced_s = [rep.once()["pipeline_s"]]
    tracer = Tracer()
    traced_ids, overheads = [], []
    while not traced_ids or rep.fits(deadline - statistics.median(rep.durations)):
        patcher = Patcher()
        layers.install(tracer, patcher)
        ctx.tracer = tracer
        tracer.run_id = len(rep.samples)
        traced_ids.append(tracer.run_id)
        try:
            rep.once()
        finally:
            patcher.restore()
            ctx.tracer = None
        untraced_s.append(rep.once()["pipeline_s"])
        traced_s = rep.samples[traced_ids[-1]]["pipeline_s"]
        overheads.append(traced_s - (untraced_s[-2] + untraced_s[-1]) / 2)

    selfs = self_times(tracer.spans)
    per_rep = [layers.repeat_metrics(tracer.spans, selfs, r) for r in traced_ids]
    metrics = layers.median_metrics(per_rep)
    metrics["encoder.import_s"] = encoder_import_seconds()
    tracer.write(run_dir / "spans.tsv")
    extra = {
        "traced_repeats": len(traced_ids),
        "untraced_pipeline_s": statistics.median(untraced_s),
        "traced_pipeline_s": statistics.median(rep.samples[r]["pipeline_s"] for r in traced_ids),
        "tracing_overhead_s": statistics.median(overheads),
        "error_rate": ledger.error_rate,
    }
    return {"metrics": metrics, "extra": extra}, ledger


def result_metrics(values: dict[str, float], spec: dict) -> dict[str, dict]:
    """The result's metrics: every name in spec, with its value and unit."""
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in spec.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "offlang" / "cli.py").is_file():
        print(f"error: no offlang sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import offlang

    if Path(offlang.__file__).resolve().parent != SRC / "offlang":
        print(f"error: imported offlang from {offlang.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Only the latest run's files are kept.
    shutil.rmtree(WORK, ignore_errors=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True)
    machine = machine_record()
    print("machine:", json.dumps(machine, sort_keys=True))
    if args.trace:
        import layers

        result, ledger = measure_traced(args.workload, args.seed, args.seconds, run_dir)
        metrics = result_metrics(result["metrics"], layers.PER_LAYER)
    else:
        result, ledger = measure(args.workload, args.seed, args.seconds, run_dir)
        metrics = result_metrics(result["metrics"], END_TO_END)
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    for key, value in result["extra"].items():
        print(f"  {key:38s} {value:>14.6g}")
    for failure in ledger.failures:
        print("FAILED:", failure)
    (run_dir / "result.json").write_text(
        json.dumps({"machine": machine, "metrics": metrics, "extra": result["extra"],
                    "repeats": result.get("repeats")}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
