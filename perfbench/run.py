#!/usr/bin/env python3
"""noisylab benchmark: drives the ``noisylab`` CLI in-process, one command at
a time (a closed loop), and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload synth_sweep --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced sequences and prints the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object; the full result, with machine facts, goes to
``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the hot paths are scipy sparse
# products and numpy elementwise updates, which run on one thread anyway, and
# one BLAS thread keeps runs steady on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCES = BENCH / "references.json"
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench.cpu import pin_to_fastest_cpu  # noqa: E402
from perfbench.tracing import median  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--record-references",
        action="store_true",
        help="run one sequence and store its output digests for this seed",
    )
    return p.parse_args(argv)


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform_key(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def platform_key() -> str:
    """What the output bytes depend on besides the inputs: the library
    versions and the CPU features numpy's SIMD loops dispatch on (exp and log
    round differently on AVX-512 than in libm, and ``roc.csv`` prints losses
    to 12 digits)."""
    import numpy as np
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    simd = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    return f"numpy {np.__version__}; scipy {scipy.__version__}; {platform.machine()}; {simd}"


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # a checkout inside another repository must not report that one's HEAD
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Sequence:
    """Runs one pass of a workload's command sequence in its own directory,
    then checks and deletes what it wrote."""

    def __init__(self, workload: str, inputs: dict, seq: Path, index: int, traced: bool):
        from noisylab import cli

        seq.mkdir(parents=True)
        commands = workloads.commands(workload, inputs, seq)
        tracer = tracing.Tracer()
        tracer.run_id = index
        targets = tracing.layer_targets() if traced else tracing.train_target()
        self.codes = []
        stdout = {}
        run_start = None
        with tracing.installed(tracer, targets):
            t0 = time.perf_counter()
            for argv in commands:
                if argv[0] == "run":
                    run_start = time.perf_counter()
                out, err = io.StringIO(), io.StringIO()
                with tracer.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as e:
                        code = e.code if isinstance(e.code, int) else 1
                    except Exception:
                        traceback.print_exc()
                        code = 1
                self.codes.append(code)
                stdout[argv[0]] = out.getvalue()
                if code != 0:
                    print(f"{argv[0]} exited {code}: {err.getvalue()}", file=sys.stderr)
            self.wall = time.perf_counter() - t0

        trains = [s for s in tracer.spans if s.name == "trainer.train"]
        self.setup = trains[0].start - run_start if trains else None
        self.train_s = sum(s.end - s.start for s in trains)
        self.steps = sum(s.attrs.get("steps", 0) for s in trains)
        files = [p for p in (seq / "out").rglob("*") if p.is_file()]
        self.artifact_files = len(files)
        self.artifact_bytes = sum(p.stat().st_size for p in files)
        self.layers = tracing.layer_metrics(tracer.spans) if traced else None
        try:
            self.checks, self.digests = checks.check_sequence(inputs, seq, stdout)
        except (OSError, KeyError, ValueError, IndexError) as e:
            self.checks, self.digests = [("outputs", f"unreadable: {e!r}")], {}
        shutil.rmtree(seq)

    @property
    def failures(self) -> list[str]:
        bad = [f"command {i} exited {c}" for i, c in enumerate(self.codes) if c != 0]
        return bad + [f"{name}: {problem}" for name, problem in self.checks if problem]

    @property
    def attempted(self) -> int:
        return len(self.codes) + len(self.checks)


def differing(got: dict, want: dict) -> list[str]:
    """Names of the outputs whose digests differ or exist on one side only."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def distribution(values) -> dict:
    t = tracing.tail(values)
    return {
        "median": median(values),
        "tail_p": t[0] if t else None,
        "tail": t[1] if t else None,
        "n": len(values),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "noisylab" / "__init__.py").is_file():
        print(f"perfbench: no noisylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import noisylab

    if Path(noisylab.__file__).resolve().parent != ROOT / "src" / "noisylab":
        print(f"perfbench: imported noisylab from {noisylab.__file__}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, work / "inputs")
        return measure(args, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, inputs: dict, work: Path) -> int:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    here = platform_key()
    if refs.get("platform") != here:
        # digests recorded elsewhere say nothing about this platform's bytes
        refs = {"platform": here, "digests": {}}
    recorded = refs["digests"].get(args.workload, {}).get(str(args.seed))

    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    cpus = []

    def sequence(i: int, traced: bool) -> Sequence:
        cpus.append(pin_to_fastest_cpu(allowed))
        return Sequence(args.workload, inputs, work / f"seq{i}", i, traced)

    deadline = time.perf_counter() + args.seconds
    warmup = sequence(0, False)
    if args.record_references:
        if warmup.failures:
            print("\n".join(warmup.failures), file=sys.stderr)
            return 1
        refs["digests"].setdefault(args.workload, {})[str(args.seed)] = warmup.digests
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0

    plain, traced = [], []
    i = 1
    last = warmup.wall
    # no pass starts that would end more than half a pass past the deadline
    while time.perf_counter() + last / 2 < deadline or not plain or (args.trace and not traced):
        use_trace = bool(args.trace) and i % 2 == 0
        s = sequence(i, use_trace)
        (traced if use_trace else plain).append(s)
        last = s.wall
        i += 1

    seqs = [warmup] + plain + traced
    failures = []
    attempted = 0
    for s in seqs:
        failures += s.failures
        # the pass's own operations, plus the rerun and reference comparisons
        attempted += s.attempted + 1 + (recorded is not None)
        if s.digests != warmup.digests:
            failures.append(f"{differing(s.digests, warmup.digests)} differ between reruns")
        if recorded is not None and s.digests != recorded:
            where = differing(s.digests, recorded)
            failures.append(f"{where} differ from the references recorded for seed {args.seed}")
    failed = len(failures)

    trained = [s for s in plain if s.setup is not None]
    e2e = {
        "wall_s": distribution([s.wall for s in plain]),
        "setup_s": distribution([s.setup for s in trained]),
        "train_steps_per_s": distribution([s.steps / s.train_s for s in trained]),
        "peak_rss_mb": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "artifact_mb": {"median": median([s.artifact_bytes for s in plain]) / 1e6},
    }
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "references_compared": recorded is not None,
        "end_to_end": e2e,
        "samples": {
            "wall_s": [s.wall for s in plain],
            "setup_s": [s.setup for s in trained],
            "traced_wall_s": [s.wall for s in traced],
            "cpu": cpus,
        },
    }
    if args.trace:
        layers = {}
        for name, (_, unit) in traced[0].layers.items():
            layers[name] = (median([s.layers[name][0] for s in traced]), unit)
        layers["cli.artifact_files"] = (median([s.artifact_files for s in traced]), "count")
        overhead = median([s.wall for s in traced]) - median([s.wall for s in plain])
        layers["trace.overhead_s"] = (overhead, "s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": d["median"], "unit": E2E_UNITS[k]} for k, d in e2e.items()}

    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, d in e2e.items():
        line = f"{args.workload} {name}: {d['median']:.6g} {E2E_UNITS[name]}"
        if "n" in d:
            line += f" (median of {d['n']}"
            line += f", p{d['tail_p']:g} {d['tail']:.6g})" if d["tail_p"] else ")"
        print(line)
    print(f"{args.workload} failed_frac: {failed}/{attempted} = {failed / attempted:.4g}")
    if recorded is None:
        print(f"{args.workload}: no reference digests for seed {args.seed} on this platform")
    if args.trace:
        for name, m in result["per_layer"].items():
            print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
