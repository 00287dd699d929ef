"""Refactor guard: the CLI writes the same bytes as the recorded reference.

Each run below goes through ``cli_main`` in-process and writes its artifacts
to a fresh directory; every file is hashed with sha256 and compared with the
hashes recorded before the scoring and selection code was consolidated.  A
change that alters output bits on purpose must update these hashes and say
so in CHANGES.md.
"""

import csv
import hashlib

import pytest

from preqscore import stream
from preqscore.cli import cli_main

TRACE_RUNS = {
    "trace-iidnorm": ("iidnorm(0,1)", "iidnorm(0,2)", "log"),
    "trace-flatloc": ("flatloc(1)", "iidnorm(0,1)", "hyvarinen"),
    "trace-flatscale": ("flatscale(0)", "iidnorm(0,1)", "hyvarinen"),
    "trace-ar": ("ar(0.5,0.2;1)", "iidnorm(0,1)", "log"),
    "trace-ma": ("ma(0.4;1)", "iidnorm(0,1)", "log"),
}

EXPERIMENT_RUNS = {
    "variance-expectation": ("variance-expectation", "--n", "120", "--reps", "6", "--seed", "3"),
    "mean-linkage": ("mean-linkage", "--n", "120", "--reps", "6", "--seed", "3"),
    "consistency": ("consistency", "--n", "200", "--reps", "6", "--seed", "3"),
    "outlier-locality": ("outlier-locality", "--n", "60", "--reps", "3", "--outlier-index", "20", "--seed", "3"),
    "unit-change": ("unit-change", "--n", "120", "--reps", "6", "--seed", "3"),
    "reparametrisation": ("reparametrisation", "--n", "60", "--reps", "3", "--seed", "3"),
    "multi-model": ("multi-model", "--n", "120", "--reps", "6", "--seed", "3"),
    "keep-reps": ("consistency", "--n", "40", "--reps", "3", "--seed", "5", "--keep-reps"),
}

GOLDEN = {
    "consistency": {
        "summary.json": "8f6e3c2498fcc4a212fb16a354be586e74cb4c280a0c255c4e683ea341146ee8",
        "trace.csv": "0e169c381662c8c10052fdf5237bf3662567c6e757afcd8718117b199a6a8487",
    },
    "keep-reps": {
        "rep_0.csv": "858843955d067d9c39739ce91bb72b8858c91540e132afb0ee011ab67e4b4a93",
        "rep_1.csv": "6af878a62610face10090b466f5524929998befb3678155cf54a02839bcf1f78",
        "rep_2.csv": "eaede8f9e86b3a0e05701cb5fad2fec73763b4ce1903ce27de3fbdff3f2231e5",
        "summary.json": "ab37c7c5f7c2e452e400c7c6753a1dbde4660a61656097d42ac9435d5a0c8f20",
        "trace.csv": "858843955d067d9c39739ce91bb72b8858c91540e132afb0ee011ab67e4b4a93",
    },
    "mean-linkage": {
        "summary.json": "f811f00c73d5407b038226cf2048d12d984e7707bafd0d1c1253957c63355d1b",
        "trace.csv": "2b1bccd0d3d107d4ebae5029598e4888f802c14285c875390543bbc5ad9bf9c1",
    },
    "multi-model": {
        "summary.json": "e8b68808b22e2ae02fdbcff235f9f0fc2ca1f28bdb2bffb2381f8f72237969e6",
        "trace.csv": "18ae5a7597c366bcfd704b4108c64bbcd92c0f95ca3744344017ddb670bae7d1",
    },
    "outlier-locality": {
        "summary.json": "0370d196d31b814105e8e4ef4ba00326068a69c908668e80652fb9320b5067fd",
        "trace.csv": "420f0ee5c975d56f4279469b7bd9265c3490938a64a33f874cf7452823265053",
    },
    "reparametrisation": {
        "summary.json": "d607a5dc96833dc02e40f5356c103d05b848975143a14eaed2fa19c19a90fa1a",
        "trace.csv": "92a39c4a01e7b4e4efd6e083cf9466efec0b04a0e3e7ce43326ef329cd43cdb8",
    },
    "trace-ar": {
        # Re-recorded when AR predictives beyond step p became the exact lag
        # filter (score_a moved by at most 8e-16 relative), and again when the
        # Gaussian kernels began squaring as d * d: ``(x - mean) ** 2`` on a
        # Python float calls libm pow, which differs in the last bit from the
        # product that arrays compute.
        "summary.json": "32142dc1bd38d866b73b7cde3d15fbb657927064bb14e0f4b282c90e5ec3f97f",
        "trace.csv": "40a9c88a41e43368006ece4460165e071f20607adba4eeb086e03ee25f25c41b",
    },
    "trace-flatloc": {
        "summary.json": "07931ab989bd3973ba11afb132d54018b92078930f5833f4127ec50f318dee22",
        "trace.csv": "214d508a4518d37f1d52a993e638d130236d24a2caca423b0acc8485b2cbc55f",
    },
    "trace-flatscale": {
        "summary.json": "8ddc0965b86aa77a71da06d0ffbee53b4fafdf09227b8d5d7d965d8cb34f97d7",
        "trace.csv": "b2dc0dfdac47d791887a9bde97fff292c6be1d3ccadbe6461f22bed9d76a5c79",
    },
    "trace-iidnorm": {
        "summary.json": "d9414fe11eaa67ea84f2c18fa1bcc4487be30fd560a2aa8f0710dc9f64b68460",
        "trace.csv": "8dfab4fd753545d725f4e51d6ca73aefadbdce3376a850b78ba97a009cf3e1c9",
    },
    "trace-ma": {
        "summary.json": "97272689e87a435b2a82c5039742ca67eb06561554243c007cba4cc66158eb2b",
        "trace.csv": "e0be0cf0d89e2068f6aa0e5a2e1f0c8ccb328c6fcd51093839862df80b9723c9",
    },
    "unit-change": {
        "summary.json": "38d8db068d3caa8a0d0d415dc3acd2b4b5ccf3c5f36d46cb1abf3d1816fddb88",
        "trace.csv": "4d75fdcbc0bd4867b30f6f35e7e86fde0c54597811430df1711885dacee868e0",
    },
    "variance-expectation": {
        "summary.json": "693a2af1c2b580bb9def531db854c1a570b455184cc6005696e167b6bfdd7de5",
        "trace.csv": "4d75fdcbc0bd4867b30f6f35e7e86fde0c54597811430df1711885dacee868e0",
    },
}


def _hashes(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # Relative paths keep the data path echoed into summary.json fixed.
    monkeypatch.chdir(tmp_path)
    with open("d.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x"])
        for v in stream(20, 0).standard_normal(80):
            w.writerow([repr(float(v))])
    return tmp_path


@pytest.mark.parametrize("run", sorted(TRACE_RUNS))
def test_trace_artifacts_match_golden_hashes(run, workdir, capsys):
    model_a, model_b, rule = TRACE_RUNS[run]
    argv = ["trace", "--model-a", model_a, "--model-b", model_b, "--rule", rule, "--data", "d.csv", "--out", run]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert _hashes(workdir / run) == GOLDEN[run]


@pytest.mark.parametrize("run", sorted(EXPERIMENT_RUNS))
def test_experiment_artifacts_match_golden_hashes(run, workdir, capsys):
    assert cli_main(["experiment", *EXPERIMENT_RUNS[run], "--out", run]) == 0
    capsys.readouterr()
    assert _hashes(workdir / run) == GOLDEN[run]
