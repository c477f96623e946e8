"""The byte-identity oracle: one small planted experiment taken through every
command whose output is promised byte for byte, pinned to SHA-256 digests.
The digests were recorded before the experiment harness moved from
id-keyed lookups to document positions, and that move kept every one.

A refactor that keeps the numbers keeps every digest. The digests hold for
the environment named in ``RECORDED_ON``; float64 results depend on numpy's
and the BLAS library's kernels, so another environment may differ in the
last bits and must record its own.
"""

import hashlib
import platform

import numpy as np

from figphm.cli import main as cli_main
from figphm.corpus import PHM
from figphm.synthetic import write_planted_fixture

CONFIG = """\
[experiment]
dataset = dataset.tsv
folds = 3
seed = 42

[model]
max_sequence_length = 16
epochs = 6
batch = 64

[figurative]
embedding = fig_embeddings.txt
keywords = keywords.txt
threshold = 0.2

[embedding rand20a]
source = random
dim = 20
seed = 1

[embedding rand20b]
source = random
dim = 20
seed = 2
"""

RECORDED_ON = "numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0, x86_64"

SHA256 = {
    "evaluate feataug --out":
        "fe3deac935552f5683b7c9426abe5edc4e0073f244e973854cc6091b24faad11",
    "evaluate feataug stdout":
        "19ca09fca2dc2c987bc315141047acb121285a5bf73ee19847dcefdeee1f1d21",
    "evaluate phmd --out":
        "55b3c2f3ac479f42b67cbd22d33fd9a71aa10c8e55144c8bfb703a86a93f0e6f",
    "evaluate phmd stdout":
        "365860572f362954c289820016c6c4ff4dc0b480a64662d3215e5652072e981a",
    "fig-eval stdout":
        "38212e5ca1b5522d229cc0e078d6c563dd7d8df2d7407513bd14f510dec47117",
    "fig-score --out":
        "c26fd17a0c73b1633765d0e8bc93d2e612ee44059e0bf33211eacf3d791f2377",
    "predictions/rand20a__feataug.tsv":
        "9afc9810b4739b5144edc7938db4ede14207c39c8cb817ff567d7581efdef35f",
    "predictions/rand20a__phmd.tsv":
        "dc71f8e882f39dd23ee34dc7a7db798c90b080d888b73aa0e4cb49d5aa4c0ed8",
    "predictions/rand20a__pipeline.tsv":
        "03f58bdf307118ba21e957fd7fd06691f4d264200a5649439387ff9025407331",
    "predictions/rand20b__feataug.tsv":
        "b5f53351eda5dc3229dcc90afd03b877a25b2c2f77a7383717f12ed192c8e423",
    "predictions/rand20b__phmd.tsv":
        "0ab3857f91cb6a787d4f568dffc9c13499ef4f542040f4137a4d6b7373d0f44c",
    "predictions/rand20b__pipeline.tsv":
        "a96743674b91e42b1df723dee8f149fa41b95f7c6f2f7c6934ab4a7dd8cd47cf",
    "report stdout":
        "5570d64b2e2656e93a1e702693238f8929e7a909a3541122a14fc4f33b42cb69",
    "report.tsv":
        "9782473ee2e8f8397c5b96f400860bd3b342f41fbd306a5e16dabf40549b8ac1",
    "report.txt":
        "5570d64b2e2656e93a1e702693238f8929e7a909a3541122a14fc4f33b42cb69",
    "train feataug":
        "dd0a63d79ec721228d2ea65dacdfceb50b1db0f9025c2dfac1e9ff6048f3dbe2",
    "train phmd":
        "6966723eb60143ecbca58d8e2be96ed0f50b0bc3c10060e7e1532a550f8dbbc5",
}


def _environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"numpy {np.__version__}, BLAS {blas.get('name', '?')} "
            f"{blas.get('version', '?')}, {platform.machine()}")


def _write_gold(dataset, gold):
    """The usage gold file: a planted PHM document uses its symptom
    literally, every other one is scored as figurative."""
    rows = []
    for line in dataset.read_text(encoding="utf-8").splitlines():
        doc_id, disease, text, label = line.split("\t")
        rows.append(f"{doc_id}\t{disease}\t{text}\t"
                    f"{'literal' if label == PHM else 'figurative'}\n")
    gold.write_text("".join(rows), encoding="utf-8")


def _outputs(tmp_path, capsys) -> dict[str, bytes]:
    """Every byte-reproducible output of the 24-document planted fixture,
    by a name that says which command wrote it."""
    paths = write_planted_fixture(tmp_path, seed=3, n_docs=24)
    config = tmp_path / "experiment.ini"
    config.write_text(CONFIG, encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    _write_gold(paths["dataset"], gold)
    run = tmp_path / "run"

    def figphm(*argv) -> bytes:
        capsys.readouterr()
        assert cli_main([str(arg) for arg in argv]) == 0, argv
        return capsys.readouterr().out.encode("utf-8")

    outputs = {}
    figphm("experiment", "--config", config, "--out", run, "--jobs", 1)
    for name in ("report.tsv", "report.txt"):
        outputs[name] = (run / name).read_bytes()
    for dump in sorted((run / "predictions").iterdir()):
        outputs[f"predictions/{dump.name}"] = dump.read_bytes()
    for approach in ("phmd", "feataug"):
        checkpoint, dump = tmp_path / f"{approach}.ckpt", tmp_path / f"{approach}.tsv"
        figphm("train", "--config", config, "--approach", approach,
               "--embedding", "rand20a", "--out", checkpoint)
        outputs[f"evaluate {approach} stdout"] = figphm(
            "evaluate", "--model", checkpoint, "--dataset", paths["dataset"],
            "--config", config, "--out", dump)
        outputs[f"train {approach}"] = checkpoint.read_bytes()
        outputs[f"evaluate {approach} --out"] = dump.read_bytes()
    figphm("fig-score", "--config", config, "--out", tmp_path / "verdicts.tsv")
    outputs["fig-score --out"] = (tmp_path / "verdicts.tsv").read_bytes()
    outputs["fig-eval stdout"] = figphm("fig-eval", "--config", config, "--gold", gold)
    outputs["report stdout"] = figphm("report", run / "report.tsv")
    return outputs


def test_outputs_match_recorded_digests(tmp_path, capsys):
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in _outputs(tmp_path, capsys).items()}
    changed = sorted(name for name in set(digests) | set(SHA256)
                     if digests.get(name) != SHA256.get(name))
    assert not changed, (
        f"output bytes changed: {', '.join(changed)}. Digests recorded on "
        f"{RECORDED_ON}; this run: {_environment()}")
