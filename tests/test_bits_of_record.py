"""Bits of record: paper-scale digests of the benchmark's seed-1 workloads.

Tier-1's other pins use tiny shapes, which miss the BLAS paths whose
rounding moves with the kernel and the thread count. This test runs the
cheap part of perfbench's setup and jobs at paper widths (H=250, encoder
2000-1000-500-50, 1144-pixel frames) in a child process at 2 BLAS threads,
and compares full SHA-256 digests of:

- the seed-1 paper corpus that `score-paper` and `fusion-paper` share;
- the fusion checkpoint that `score-paper`'s setup writes, which covers the
  init draws, build_fusion's dtype cast and the checkpoint writer;
- the `score-paper` job digest: container reads, preprocessing, the
  forward pass and the report;
- the checkpoint after one train_epoch over `fusion-paper`'s first seed-1
  batch, which covers the backward pass, clipping and Adam;
- the whole `stream-bench` and `fusion-paper` job digests: CD-1
  pretraining, every epoch of the fit, the trained checkpoint, its losses
  and its report.

The digests hold for one numeric environment, RECORDED. Anywhere else the
test skips and names the environment it found; it never passes there.
perfbench/bench.py is imported read-only, and the child writes no bytecode.

Run as a script (`python tests/test_bits_of_record.py WORKDIR`), it prints
the environment and, in the recorded one, the digests, as JSON.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BLAS_THREADS = 2

RECORDED = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0",
            "blas_core": "SkylakeX", "blas_threads": BLAS_THREADS}
BITS = {
    "corpus": "5470a04506f6c8ede0bdf92fece6530b253abf34a28ad59d1c167578ce1128a3",
    "fusion_checkpoint": "eb4f25437325f9f49da6a08f68dd7ddf5a62cf972ba7d6da6373acc44de40e49",
    "score_job": "94311ab15795562e38dbe3cb9e2487217616c870e6b835818bac0ad78a24f48c",
    "one_step_checkpoint": "d7b547129d7221c71dd325b4519c86c9fb172751a137f8aecff058d01587f992",
    "stream_bench_job": "c468c2131f6366b1eaa02178bf9779f3262f09050ded6642ab420d7cd8aebaf3",
    "fusion_paper_job": "f728877fe39fa4390fade54bbe44c7095e0ae7c0b703fdf66372a2835d0ec2b7",
}


def numeric_environment() -> dict:
    """numpy's version, its BLAS's name and version, and the core and thread
    count the bundled OpenBLAS runs with (None where it cannot be asked)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"numpy": np.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"), "blas_core": None, "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) == 1:
        lib = ctypes.CDLL(libs[0])
        corename = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        env.update(blas_core=corename().decode(), blas_threads=threads())
    return env


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bits(work: str) -> dict:
    """The digests BITS pins, computed under work."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bench
    import vsr.model
    import vsr.training
    from vsr.numerics import Adam, Rng
    from vsr.training import TrainConfig

    spec = bench.SPECS[False]["score-paper"]
    st = bench.setup("score-paper", spec, SEED, os.path.join(work, "score"))
    out = {"corpus": bench._corpus_digest(st.root),
           "fusion_checkpoint": bench._digest(st.checkpoint),
           "score_job": _sha256(bench._score_job(spec, st)["digest"].encode())}
    del st
    spec = bench.SPECS[False]["fusion-paper"]
    st = bench.setup("fusion-paper", spec, SEED, os.path.join(work, "fusion"))
    # the first gradient step of the fusion-paper job, as train_fusion and _fit take it
    cfg = TrainConfig.for_fusion(max_epochs=spec.epochs, patience=spec.epochs,
                                 batch_utts=spec.batch_utts, seed=SEED)
    model = vsr.model.build_fusion(st.raw, st.diff, rng=Rng(cfg.seed))
    first = vsr.training.make_batches(st.train, cfg.batch_utts, Rng(cfg.seed))[0]
    vsr.training.train_epoch(model, [first], Adam(), cfg)
    path = os.path.join(work, "one_step.vsrm")
    vsr.model.save_checkpoint(path, model)
    out["one_step_checkpoint"] = bench._digest(path)
    del model
    # the step above trained a copy of the streams, so the job starts from the same setup
    out["fusion_paper_job"] = _sha256(
        bench._train_job("fusion-paper", spec, SEED, st)["digest"].encode())
    del st
    spec = bench.SPECS[False]["stream-bench"]
    st = bench.setup("stream-bench", spec, SEED, os.path.join(work, "stream"))
    out["stream_bench_job"] = _sha256(
        bench._train_job("stream-bench", spec, SEED, st)["digest"].encode())
    return out


def main(work: str) -> None:
    env = numeric_environment()
    doc = {"environment": env}
    if env == RECORDED:
        doc["bits"] = bits(work)
    print(json.dumps(doc, sort_keys=True))


def test_paper_scale_bits_hold(tmp_path):
    threads = str(BLAS_THREADS)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads, "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    doc = json.loads(child.stdout.splitlines()[-1])
    if doc["environment"] != RECORDED:
        pytest.skip(f"bits are recorded for {RECORDED}, not for this environment: "
                    f"{doc['environment']}")
    assert doc["bits"] == BITS


if __name__ == "__main__":
    main(sys.argv[1])
