import csv
import json
import os
from pathlib import Path

import pytest

from aae.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    generate_labeled_corpus,
    main,
)
from aae.errors import ValidationError
from aae.features import read_corpus
from aae.oracle import cost_params
from conftest import corpus_header


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    assert run("gen", "--profile", "freebase-small", "--count", "300",
               "--seed", "7", "--out", str(path)) == EXIT_OK
    return str(path)


class TestGen:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("gen", "--profile", "random", "--count", "100",
                       "--seed", "7", "--out", str(out)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_count_rejected(self, tmp_path):
        code = run("gen", "--profile", "random", "--count", "0",
                   "--seed", "1", "--out", str(tmp_path / "c.jsonl"))
        assert code == EXIT_VALIDATION

    def test_header_carries_cost_params(self, corpus_path):
        header, instances = read_corpus(corpus_path)
        assert header["cost_params"] == cost_params()
        assert header["cost_params"]["index_speedup"] == 0.2
        assert len(instances) == 300
        assert all(inst.label in (0, 1) for inst in instances)

    def test_label_balance(self):
        _, instances = generate_labeled_corpus("freebase-small", 1000, 3)
        rate = sum(inst.label for inst in instances) / len(instances)
        assert 0.3 <= rate <= 0.7

    def test_old_and_new_storage_always_differ(self):
        _, instances = generate_labeled_corpus("random", 200, 5)
        for inst in instances:
            assert inst.provenance["s_old"] != inst.provenance["s_new"]

    def test_ldbc_profile_uses_longer_vectors(self, tmp_path):
        path = tmp_path / "ldbc.jsonl"
        assert run("gen", "--profile", "ldbc", "--count", "5",
                   "--seed", "2", "--out", str(path)) == EXIT_OK
        header, instances = read_corpus(path)
        assert header["max_len"] == 320
        assert instances[0].vector.size == 320

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAE_SEED", "7")
        out = tmp_path / "env.jsonl"
        # parser defaults are bound at build time, so rebuild through main
        assert run("gen", "--profile", "random", "--count", "20",
                   "--out", str(out)) == EXIT_OK
        header, _ = read_corpus(out)
        assert header["seed"] == 7


@pytest.mark.parametrize("argv,env_seed", [
    (["train", "--epochs", "0"], None),
    (["train", "--batch-size", "0"], None),
    (["active", "--max-rounds", "0"], None),
    (["bench", "--count", "0"], None),
    (["train"], "abc"),
    (["sweep", "--fractions", "0.5,abc"], None),
    (["train", "--lr", "nan"], None),
    (["train", "--lr", "inf"], None),
    (["train", "--lr", "-1"], None),
    (["train", "--lr", "0"], None),
    (["sweep", "--fractions", ""], None),
    (["sweep", "--fractions", ","], None),
    (["gen", "--count", "5", "--max-len", "256"], None),
    (["gen", "--count", "5", "--seed", "-1"], None),
    (["train", "--seed", "-1"], None),
    (["train"], "-2"),
])
def test_bad_arguments_exit_2(argv, env_seed, corpus_path, tmp_path,
                              monkeypatch, capsys):
    if env_seed is not None:
        monkeypatch.setenv("AAE_SEED", env_seed)
    if argv[0] != "gen":
        argv = argv + ["--corpus", corpus_path]
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(tmp_path / "o.csv"))
    assert exc.value.code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "active", "sweep", "cv",
                                     "bench"])
def test_header_only_corpus_exits_2(command, corpus_path, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    with open(corpus_path) as fh:  # whole, as its header counts no records
        empty.write_text(fh.readline().replace('"count":300', '"count":0'))
    code = run(command, "--corpus", str(empty), "--out",
               str(tmp_path / "o.csv"))
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,header", [
    (["train", "--epochs", "1"], "epoch,loss,accuracy"),
    (["active", "--max-rounds", "1", "--epochs", "1"],
     "round,labeled,unlabeled,retired,labeled_accuracy,unlabeled_accuracy"),
    (["sweep", "--fractions", "0.5", "--epochs", "1"],
     "fraction,train_accuracy,test_accuracy"),
    (["cv", "--folds", "2", "--epochs", "1"], "fold,accuracy"),
    (["bench", "--count", "1"], "arch,mean_seconds"),
])
def test_csv_header(argv, header, corpus_path, tmp_path):
    out = tmp_path / "o.csv"
    assert run(*argv, "--corpus", corpus_path, "--out", str(out)) == EXIT_OK
    with open(out, newline="") as fh:
        assert fh.readline() == header + "\r\n"


class TestTrain:
    def test_writes_log_and_params(self, corpus_path, tmp_path):
        log = tmp_path / "log.csv"
        params = tmp_path / "net.txt"
        code = run("train", "--corpus", corpus_path, "--arch", "gru",
                   "--epochs", "5", "--seed", "0",
                   "--out", str(log), "--params-out", str(params))
        assert code == EXIT_OK
        rows = read_csv(log)
        assert rows[0] == ["epoch", "loss", "accuracy"]
        assert len(rows) >= 2
        assert params.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_exits_2(self, corpus_path, tmp_path, capsys):
        # 1e300 drives the loss to inf/nan; 1 and 1e6 keep it finite but
        # far above ln 2. No CSV or params file is written.
        log = tmp_path / "log.csv"
        params = tmp_path / "net.txt"
        for lr in ("1e300", "1e6", "1"):
            code = run("train", "--corpus", corpus_path, "--arch", "scnn",
                       "--epochs", "3", "--lr", lr, "--out", str(log),
                       "--params-out", str(params))
            assert code == EXIT_VALIDATION, lr
            err = capsys.readouterr().err
            assert "error: training diverged: epoch 0" in err, lr
            assert not log.exists() and not params.exists()

    def test_seeded_rerun_byte_identical(self, corpus_path, tmp_path):
        outs = []
        for name in ("l1.csv", "l2.csv"):
            out = tmp_path / name
            assert run("train", "--corpus", corpus_path, "--arch", "gru",
                       "--epochs", "5", "--seed", "3",
                       "--out", str(out)) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_corpus_is_io_or_parse_error(self, tmp_path):
        code = run("train", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "log.csv"))
        assert code != EXIT_OK

    def test_corrupt_corpus_parse_error(self, corpus_path, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        header, *records = Path(corpus_path).read_bytes().splitlines(True)

        def hand(record, **fields):
            """A complete header for one record, then the record."""
            return (json.dumps({"format": "aae-corpus-v1", **corpus_header(
                count=1, **fields)}) + "\n").encode() + record + b"\n"

        # The second file's record is a byte that is not UTF-8; the third's
        # has a mask that leaves out a real entry. The next three come from
        # a gen corpus: cut after 3 of its 300 records, or with one cost
        # parameter edited in its header. The last has a max_len of true
        # over a 1-entry record.
        record = b'{"vector":[1.0,3.0],"mask":[1,0],"label":1,"provenance":{}}'
        for content, line in (
                (b"junk\n", 1),
                (hand(b"\xff", max_len=2), 2),
                (hand(record, max_len=2), 2),
                (b"".join([header, *records[:3]]), 1),
                (b"".join([header.replace(b'"index_speedup":0.2',
                                          b'"index_speedup":0.3'),
                           *records]), 1),
                (b"".join([header.replace(b",1.0,", b",true,", 1),
                           *records]), 1),
                (hand(b'{"vector":[1.0],"mask":[1],"label":1,'
                      b'"provenance":{}}', max_len=True), 1)):
            bad.write_bytes(content)
            code = run("train", "--corpus", str(bad),
                       "--out", str(tmp_path / "log.csv"))
            assert code == EXIT_PARSE
            assert capsys.readouterr().err.startswith(f"error: line {line}:")


class TestActiveCommand:
    def test_round_report(self, corpus_path, tmp_path):
        out = tmp_path / "rounds.csv"
        code = run("active", "--corpus", corpus_path, "--arch", "gru",
                   "--threshold", "0.9", "--sample-fraction", "0.2",
                   "--max-rounds", "5", "--epochs", "60", "--lr", "0.02",
                   "--seed", "0", "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0][:4] == ["round", "labeled", "unlabeled", "retired"]
        assert len(rows) >= 2


class TestSweepCommand:
    def test_three_rows(self, corpus_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--corpus", corpus_path, "--arch", "gru",
                   "--fractions", "0.41,0.49,0.58", "--epochs", "40",
                   "--seed", "0", "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 4  # header + 3 fractions
        assert [r[0] for r in rows[1:]] == ["0.41", "0.49", "0.58"]


class TestCvCommand:
    def test_fold_report(self, corpus_path, tmp_path):
        out = tmp_path / "cv.csv"
        code = run("cv", "--corpus", corpus_path, "--arch", "gru",
                   "--folds", "3", "--epochs", "30", "--seed", "0",
                   "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[-2][0] == "mean"
        assert rows[-1][0] == "std"

    def test_too_many_folds(self, corpus_path, tmp_path):
        code = run("cv", "--corpus", corpus_path, "--folds", "1000",
                   "--out", str(tmp_path / "cv.csv"))
        assert code == EXIT_VALIDATION


class TestBenchCommand:
    def test_reports_three_architectures(self, corpus_path, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench", "--corpus", corpus_path, "--count", "50",
                   "--seed", "0", "--out", str(out))
        assert code == EXIT_OK
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["scnn", "dcnn", "gru"]
        for row in rows[1:]:
            assert float(row[1]) < 0.05
