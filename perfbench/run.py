"""vsr benchmark: training and scoring throughput over three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-bench --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is used from source (``src/`` is put first on ``sys.path``); no
install step is needed. A run generates its corpus from ``--seed`` under
``perfbench/.work/``, sets the workload up seven times (``setup_s`` is the
median), then repeats the workload's fixed job until ``--seconds`` have
passed, checking every job's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` jobs alternate untraced and traced,
the per-layer metrics come from the traced ones and the spans are written
to ``perfbench/.out/``. Human-readable lines come first; the last line of
standard output is the JSON result.

Workloads (one process, closed loop, a single caller):

* ``stream-bench``: the synthetic-benchmark scale (26x44 frames, T=20 for
  every utterance, encoder 2000-1000-500-50, H=64, 10 utterances a batch).
  A job pretrains the raw encoder with CD-1, trains the raw stream from it
  for a fixed number of epochs, saves the checkpoint and scores the
  validation containers. Python overhead and Adam dominate; the only
  workload that exercises ``rbm``; equal lengths mean zero padding.
* ``fusion-paper``: paper scale (H=250 in both streams and the fusion
  BLSTM), lengths spread over 20-40 frames. A job fuses two fixed-seed
  streams with ``train_fusion`` for a fixed number of epochs, saves and
  scores. BLAS-bound; the only fusion backward pass; mixed lengths.
* ``score-paper``: the ``vsr evaluate`` path. A paper-scale fusion
  checkpoint is loaded in setup; a job reads every container of the
  mixed-length corpus and scores it with ``evaluation.evaluate``. Forward
  only, with container I/O and preprocessing on the timed path.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("stream-bench", "fusion-paper", "score-paper")
SETUPS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                   help="one workload, or all of them, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny sizes, for the benchmark's own smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--toy"] if args.toy else [])]
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                   for w in WORKLOADS)
    if not os.path.isfile(os.path.join(SRC, "vsr", "__init__.py")):
        print(f"error: no vsr sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # pinned before numpy loads, so OpenBLAS starts with this many threads
    blas_threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from bench import run_workload  # noqa: E402  (needs the paths above)

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.toy, blas_threads=blas_threads,
                        benchmark_json=os.path.join(ROOT, "BENCHMARK.json"),
                        work_root=os.path.join(HERE, ".work"),
                        trace_root=os.path.join(HERE, ".out"), setups=SETUPS)


if __name__ == "__main__":
    sys.exit(main())
