import csv
import json
import os
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from nameblind.cli import main
from nameblind.model import load_model

from synth_benchmark import write_benchmark_files


@pytest.fixture(scope="session")
def benchmark_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench")
    return write_benchmark_files(directory, seed=0)


@pytest.fixture()
def tiny_tabular(tmp_path):
    """Small deterministic CSV with gender+race groups and named records."""
    rng = np.random.default_rng(0)
    n = 120
    names = [f"name{i % 20:02d}" for i in range(n)]
    names[5] = "zzunknown"  # not in the embeddings file -> coverage none
    header = ["num", "cat", "gender", "race", "income", "first", "last"]
    rows = []
    for i in range(n):
        gender = "F" if i % 2 == 0 else "M"
        race = "W" if (i // 2) % 2 == 0 else "N"
        income = "hi" if (i % 4 < 2) == (rng.random() < 0.8) else "lo"
        rows.append(
            [
                f"{rng.uniform(0, 50):.3f}",
                "p" if i % 3 else "q",
                gender,
                race,
                income,
                names[i],
                "",
            ]
        )
    data = tmp_path / "tiny.csv"
    data.write_text(
        "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n",
        encoding="utf-8",
    )
    schema = tmp_path / "schema.txt"
    schema.write_text(
        "num continuous\n"
        "cat categorical\n"
        "gender categorical group=F\n"
        "race categorical group=W\n"
        "income label\n"
        "first first_name\n"
        "last last_name\n",
        encoding="utf-8",
    )
    embeddings = tmp_path / "vectors.txt"
    lines = ["20 4"]
    vec_rng = np.random.default_rng(1)
    for i in range(20):
        vec = vec_rng.normal(size=4)
        lines.append(f"name{i:02d} " + " ".join(repr(float(v)) for v in vec))
    embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data, schema, embeddings


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_train_outputs_and_summary_layout(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "none",
            "--lambda", "0", "--seeds", "0", "1", "--epochs", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    for name in (
        "model_seed0.txt", "model_seed1.txt", "history_seed0.csv",
        "bias_report_seed0.csv", "summary.csv", "manifest.json",
    ):
        assert (out / name).exists()
    rows = read_csv_rows(out / "summary.csv")
    # summary mirrors: balanced TPR, RMS gap per attribute, max gap per
    # attribute, with attributes in schema order (gender before race)
    assert rows[0] == [
        "variant", "lambda", "seed",
        "balanced_tpr", "gap_rms_gender", "gap_rms_race",
        "gap_max_gender", "gap_max_race",
    ]
    assert [r[2] for r in rows[1:]] == ["0", "1", "mean"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["spec"]["seeds"] == [0, 1]
    assert "toolkit_version" in manifest


def test_train_mean_row_is_mean_of_seed_rows(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--variant", "none", "--seeds", "0", "1", "2",
            "--epochs", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "summary.csv")
    body = rows[1:]
    seed_rows = [r for r in body if r[2] != "mean"]
    mean_row = next(r for r in body if r[2] == "mean")
    for col in range(3, len(rows[0])):
        values = [float(r[col]) for r in seed_rows if r[col] != ""]
        assert float(mean_row[col]) == float(np.mean(values))


def test_train_rerun_overwrites_identically(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    argv = [
        "train", "--data", str(data), "--schema", str(schema),
        "--variant", "none", "--seeds", "0", "--epochs", "2",
        "--out", str(out),
    ]
    assert main(argv) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    again = {p.name: p.read_bytes() for p in out.iterdir()}
    assert snapshot == again


def test_missing_embeddings_file_exit_2(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(tmp_path / "nope.txt"),
            "--variant", "cocl", "--lambda", "1", "--seeds", "0",
            "--epochs", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "nope.txt" in capsys.readouterr().err


def test_bad_variant_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--variant", "wiggle", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def test_zero_name_coverage_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    vectors = tmp_path / "unrelated.txt"
    vectors.write_text("2 2\nalpha 1.0 0.0\nbeta 0.0 1.0\n", encoding="utf-8")
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(vectors), "--variant", "cocl",
            "--lambda", "1", "--seeds", "0", "--epochs", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "cocl penalty" in err and "0 of 96 training records" in err


def test_cluster_report_zero_name_coverage_exit_1(tiny_tabular, tmp_path,
                                                  capsys):
    data, schema, _ = tiny_tabular
    vectors = tmp_path / "unrelated.txt"
    vectors.write_text("2 2\nalpha 1.0 0.0\nbeta 0.0 1.0\n", encoding="utf-8")
    rc = main(["cluster-report", "--data", str(data), "--schema", str(schema),
               "--embeddings", str(vectors), "--k", "2", "--seeds", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "0 of 120 records have a name in the embedding table" in err


def test_cluster_report_bad_k_exit_1_before_any_input(tiny_tabular, tmp_path,
                                                      capsys, count_opens):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    rc = main(["cluster-report", "--data", str(data), "--schema", str(schema),
               "--embeddings", str(embeddings), "--k", "0", "--seeds", "0",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: k must be positive\n"
    assert count_opens[data.resolve()] == 0
    assert count_opens[embeddings.resolve()] == 0
    assert not out.exists()


def test_train_without_group_labels_exit_1_before_any_fit(
        tiny_tabular, tmp_path, capsys, monkeypatch):
    import nameblind.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("train called")

    monkeypatch.setattr(nameblind.cli, "train", no_fit)
    data, schema, _ = tiny_tabular
    schema.write_text(schema.read_text(encoding="utf-8")
                      .replace(" group=F", "").replace(" group=W", ""),
                      encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["train", "--data", str(data), "--schema", str(schema),
               "--variant", "none", "--seeds", "0", "1", "--epochs", "1",
               "--out", str(out)])
    assert rc == 1
    assert "no evaluation group labels" in capsys.readouterr().err
    assert not list(out.glob("model_seed*.txt"))


def test_numerical_failure_exit_3(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(
            [
                "train", "--data", str(data), "--schema", str(schema),
                "--variant", "none", "--seeds", "0", "--epochs", "3",
                "--lr", "1e308", "--out", str(tmp_path / "out"),
            ]
        )
    assert rc == 3
    assert "numerical" in capsys.readouterr().err


def test_sweep_diverging_in_its_last_step_exit_3(tiny_tabular, tmp_path,
                                                 capsys):
    # one batch in one epoch: no batch's loss reads the diverged
    # parameters, whose probabilities on the test records are nan
    data, schema, _ = tiny_tabular
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["sweep", "--data", str(data), "--schema", str(schema),
                   "--variant", "none", "--lambdas", "0", "1", "--seeds", "0",
                   "--epochs", "1", "--lr", "1e308", "--out", str(out)])
    assert rc == 3
    assert "numerical" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_needs_two_lambdas(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    rc = main(
        [
            "sweep", "--data", str(data), "--schema", str(schema),
            "--variant", "none", "--lambdas", "0",
            "--epochs", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "two" in capsys.readouterr().err


def test_sweep_rejects_duplicate_lambdas(tiny_tabular, tmp_path, capsys):
    # equal as floats: 0.3 and 0.30 would interleave their seeds' rows
    data, schema, _ = tiny_tabular
    out = tmp_path / "out"
    rc = main(
        [
            "sweep", "--data", str(data), "--schema", str(schema),
            "--variant", "none", "--lambdas", "0", "0.3", "0.30",
            "--seeds", "0", "1", "--epochs", "1", "--out", str(out),
        ]
    )
    assert rc == 1
    assert "distinct" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, option, values", [
    ("train", "--lambda", ["nan"]),
    ("train", "--lambda", ["inf"]),
    ("sweep", "--lambdas", ["0", "nan"]),
    ("train", "--lr", ["nan"]),
    ("train", "--lr", ["inf"]),
    ("sweep", "--l2", ["nan"]),
])
def test_non_finite_hyperparameter_exit_1(command, option, values,
                                          tiny_tabular, tmp_path, capsys,
                                          monkeypatch):
    # nan passes the sign checks (nan < 0 is False); rejected before any fit
    import nameblind.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("train called")

    monkeypatch.setattr(nameblind.cli, "train", no_fit)
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    grid = [] if option == "--lambdas" else (
        ["--lambdas", "0", "1"] if command == "sweep" else [])
    rc = main([command, "--data", str(data), "--schema", str(schema),
               "--embeddings", str(embeddings), "--variant", "cocl",
               "--seeds", "0", "--epochs", "1", *grid, option, *values,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value, message", [
    ("train", "--epochs", "0", "epochs must be positive"),
    ("train", "--batch-size", "0", "batch_size and epochs must be positive"),
    ("sweep", "--lr", "-1", "learning_rate must be positive"),
    ("train", "--k", "0", "k must be positive"),
    ("sweep", "--l2", "-1", "l2_coeff must be nonnegative"),
])
def test_out_of_range_hyperparameter_exit_1(command, option, value, message,
                                            tiny_tabular, tmp_path, capsys,
                                            monkeypatch, count_opens):
    # TrainConfig's checks run before --out is made or any input is read
    import nameblind.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("train called")

    monkeypatch.setattr(nameblind.cli, "train", no_fit)
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    grid = ["--lambdas", "0", "1"] if command == "sweep" else ["--lambda", "1"]
    rc = main([command, "--data", str(data), "--schema", str(schema),
               "--embeddings", str(embeddings), "--variant", "clucl",
               "--seeds", "0", "--epochs", "1", *grid, option, value,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()
    assert count_opens[data.resolve()] == 0
    assert count_opens[embeddings.resolve()] == 0


def test_non_finite_config_value_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    config = tmp_path / "config.json"
    config.write_text('{"lr": NaN}', encoding="utf-8")
    rc = main(["train", "--config", str(config), "--data", str(data),
               "--schema", str(schema), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "--lr" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("seeds, message", [
    pytest.param([-1], "--seeds values must be nonnegative, got -1",
                 id="negative"),
    pytest.param([0, 0], "--seeds values must be distinct", id="repeated"),
])
def test_bad_seeds_exit_1(seeds, message, command, source, tiny_tabular,
                          tmp_path, capsys, count_opens):
    # a negative seed would fail only in the split, after --out is made;
    # a repeated one would count its row twice in the summary's mean
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    if source == "flag":
        spec = ["--seeds", *map(str, seeds)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seeds": seeds}), encoding="utf-8")
        spec = ["--config", str(config)]
    grid = ["--lambdas", "0", "1"] if command == "sweep" else ["--lambda", "1"]
    rc = main([command, "--data", str(data), "--schema", str(schema),
               "--embeddings", str(embeddings), "--variant", "cocl", *grid,
               "--epochs", "1", *spec, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert count_opens[data.resolve()] == 0


def scaled_vectors(embeddings, path, scale):
    """A copy at path of the vector file with every component times scale."""
    lines = embeddings.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0]] + [
        " ".join([line.split()[0]]
                 + [repr(float(v) * scale) for v in line.split()[1:]])
        for line in lines[1:]]) + "\n", encoding="utf-8")
    return path


def test_sweep_with_one_diverging_lambda_exit_3(tiny_tabular, tmp_path,
                                                capsys):
    # name vectors of norm ~1e150 make lambda 1e200's penalty overflow;
    # lambda 0 alone would train: the sweep fails as a whole
    data, schema, embeddings = tiny_tabular
    huge = scaled_vectors(embeddings, tmp_path / "huge.txt", 1e150)
    out = tmp_path / "out"
    argv = ["sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(huge), "--variant", "cocl", "--seeds", "0",
            "--epochs", "2", "--out", str(out)]
    assert main([*argv, "--lambdas", "0", "1e-300"]) == 0
    (out / "sweep.csv").unlink()
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([*argv, "--lambdas", "0", "1e200"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, lambdas", [
    ("sweep", ["--lambdas", "0", "1"]),
    ("train", ["--lambda", "1"]),
])
def test_overflowing_penalty_value_exit_3(command, lambdas, tiny_tabular,
                                          tmp_path, capsys):
    # name vectors of norm ~1e200 overflow cocl's value to inf while its
    # gradient is all zeros: only the check of each batch's loss sees it,
    # as sweep records no per-epoch history
    data, schema, embeddings = tiny_tabular
    huge = scaled_vectors(embeddings, tmp_path / "huge.txt", 1e200)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([command, "--data", str(data), "--schema", str(schema),
                   "--embeddings", str(huge), "--variant", "cocl", *lambdas,
                   "--seeds", "0", "--epochs", "2", "--batch-size", "32",
                   "--out", str(out)])
    assert rc == 3
    assert "non-finite loss at epoch 1, batch 2" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert not list(out.glob("model_seed*.txt"))


def test_sweep_records_no_history(tiny_tabular, tmp_path, monkeypatch):
    # the objective runs once per batch, inside loss_and_gradient: train
    # builds no epoch penalty table and makes no full-set pass
    import nameblind.losses
    import nameblind.model
    import nameblind.training

    objectives, passes, tables = [], [], []
    objective = nameblind.model.objective
    forward_rows = nameblind.training.forward_rows

    def counting_objective(W, probs, *args):
        objectives.append(probs.shape[1])
        return objective(W, probs, *args)

    def counting_forward_rows(params, features, rows):
        passes.append(len(rows))
        return forward_rows(params, features, rows)

    class CountingTable(nameblind.losses.CoclTable):
        def __init__(self, labels, *args):
            tables.append(len(labels))
            super().__init__(labels, *args)

    monkeypatch.setattr(nameblind.model, "objective", counting_objective)
    monkeypatch.setattr(nameblind.training, "objective", counting_objective)
    monkeypatch.setattr(nameblind.training, "forward_rows",
                        counting_forward_rows)
    monkeypatch.setattr(nameblind.losses, "CoclTable", CountingTable)
    # the counts are of this process's calls
    monkeypatch.setattr(nameblind.training, "usable_cpus", lambda: 1)
    data, schema, embeddings = tiny_tabular
    rc = main(["sweep", "--data", str(data), "--schema", str(schema),
               "--embeddings", str(embeddings), "--variant", "cocl",
               "--lambdas", "0", "1", "--seeds", "0", "1", "--epochs", "2",
               "--batch-size", "32", "--out", str(tmp_path / "out")])
    assert rc == 0
    # 96 training records in batches of 32, two epochs, two seeds
    assert objectives == tables == [32] * 12
    assert passes == []


def test_non_finite_continuous_cell_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    lines = data.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[0] = "nan"
    lines[3] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--variant", "none", "--seeds", "0", "--epochs", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "row 4, column 'num': non-finite value 'nan'" in (
        capsys.readouterr().err)


def test_empty_label_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, _ = tiny_tabular
    lines = data.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[3].split(",")
    cells[header.index("income")] = ""
    lines[3] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(
        [
            "train", "--data", str(data), "--schema", str(schema),
            "--variant", "none", "--seeds", "0", "--epochs", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "row 4, column 'income': empty label" in capsys.readouterr().err


def test_sweep_row_counts_and_averages(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    rc = main(
        [
            "sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "cocl",
            "--lambdas", "0", "0.5", "1", "--seeds", "0", "1", "2", "3",
            "--epochs", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "sweep.csv")
    raw = [r for r in rows[1:] if r[1] != "mean"]
    means = [r for r in rows[1:] if r[1] == "mean"]
    assert len(raw) == 12  # 3 lambdas x 4 seeds
    assert len(means) == 3
    for mean_row in means:
        lam = mean_row[0]
        matching = [r for r in raw if r[0] == lam]
        for col in range(2, len(rows[0])):
            values = [float(r[col]) for r in matching if r[col] != ""]
            assert float(mean_row[col]) == float(np.mean(values))


def _sweep_and_train_rows(argv, lambdas, seeds, tmp_path):
    """sweep.csv's (lambda, seed) rows, and the same rows from one train
    run per lambda (summary.csv without its variant column)."""
    seed_args = ["--seeds", *map(str, seeds)]
    assert main(["sweep", *argv, *seed_args, "--lambdas", *lambdas,
                 "--out", str(tmp_path / "sweep")]) == 0
    swept = [r for r in read_csv_rows(tmp_path / "sweep" / "sweep.csv")[1:]
             if r[1] != "mean"]
    trained = []
    for i, lam in enumerate(lambdas):
        out = tmp_path / f"train{i}"
        assert main(["train", *argv, *seed_args, "--lambda", lam,
                     "--out", str(out)]) == 0
        trained += [r[1:] for r in read_csv_rows(out / "summary.csv")[1:]
                    if r[2] != "mean"]
    return swept, trained


def test_sweep_rows_are_the_train_runs(tiny_tabular, tmp_path):
    # each (lambda, seed) fit of a sweep, trained in lockstep with the
    # other lambdas, is the fit of its own train run: dense rows, cocl
    data, schema, embeddings = tiny_tabular
    argv = ["--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "cocl",
            "--epochs", "3", "--lr", "0.05", "--batch-size", "16"]
    swept, trained = _sweep_and_train_rows(argv, ["0.0", "0.5", "2.0"],
                                           [0, 1], tmp_path)
    assert len(swept) == 6 and swept == trained


@pytest.mark.parametrize("workers", [2, 3])
def test_sweep_csv_is_the_same_bytes_in_one_or_more_processes(
        workers, tiny_tabular, tmp_path, monkeypatch):
    import nameblind.training

    data, schema, embeddings = tiny_tabular
    argv = ["sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "cocl",
            "--lambdas", "0", "0.5", "2", "--seeds", "0", "1", "--epochs", "3",
            "--lr", "0.05", "--batch-size", "16"]
    swept = []
    for count in (1, workers):
        monkeypatch.setattr(nameblind.training, "usable_cpus",
                            lambda count=count: count)
        out = tmp_path / f"workers{count}"
        assert main([*argv, "--out", str(out)]) == 0
        swept.append((out / "sweep.csv").read_bytes())
    assert swept[0] == swept[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lambdas", [["0", "1e200"], ["1e200", "0"]],
                         ids=["in-the-worker", "in-the-caller"])
def test_divergence_exit_3_with_one_message(lambdas, tiny_tabular, tmp_path,
                                            capsys, monkeypatch):
    # lambda 1e200 overflows in the worker's group or in the caller's:
    # every run, in one process or two, fails with the same message and
    # leaves no process
    import nameblind.training

    data, schema, embeddings = tiny_tabular
    huge = scaled_vectors(embeddings, tmp_path / "huge.txt", 1e150)
    argv = ["sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(huge), "--variant", "cocl", "--seeds", "0",
            "--epochs", "2", "--lambdas", *lambdas,
            "--out", str(tmp_path / "out")]
    messages = []
    for count in (2, 2, 1):
        monkeypatch.setattr(nameblind.training, "usable_cpus",
                            lambda count=count: count)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3
        messages.append(capsys.readouterr().err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert ("non-finite loss at epoch 2, batch 1: lambda=1e+200, total=inf"
            in messages[0])
    assert messages == [messages[0]] * 3
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_text_sweep_rows_are_the_train_runs(tmp_path):
    # the same for BinaryRows features and the cluster penalty
    data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
    argv = ["--data", str(data), "--format", "text",
            "--embeddings", str(embeddings),
            "--names-demographics", str(first_white), str(first_male),
            "--min-count", "1", "--top-fraction", "0", "--variant", "clucl",
            "--k", "3", "--epochs", "3", "--lr", "0.05", "--batch-size", "16"]
    swept, trained = _sweep_and_train_rows(argv, ["2.0", "0.0"], [0, 1],
                                           tmp_path)
    assert len(swept) == 4 and swept == trained


def test_sweep_trains_once_per_seed(tiny_tabular, tmp_path, monkeypatch):
    import nameblind.cli

    calls = []
    train = nameblind.cli.train

    def counting_train(*args, **kwargs):
        calls.append(kwargs.get("lams"))
        return train(*args, **kwargs)

    monkeypatch.setattr(nameblind.cli, "train", counting_train)
    data, schema, embeddings = tiny_tabular
    rc = main(["sweep", "--data", str(data), "--schema", str(schema),
               "--embeddings", str(embeddings), "--variant", "cocl",
               "--lambdas", "0", "0.5", "1", "--seeds", "0", "1", "2",
               "--epochs", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert calls == [[0.0, 0.5, 1.0]] * 3


def test_sweep_on_benchmark_gap_non_increasing(benchmark_files, tmp_path):
    data, schema, embeddings = benchmark_files
    out = tmp_path / "out"
    rc = main(
        [
            "sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "cocl",
            "--lambdas", "0", "1", "2", "--seeds", "0", "1",
            "--epochs", "30", "--lr", "0.05", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "sweep.csv")
    header = rows[0]
    gap_col = header.index("gap_rms_grp")
    means = {float(r[0]): float(r[gap_col]) for r in rows[1:] if r[1] == "mean"}
    assert means[0.0] >= means[1.0] >= means[2.0]


def test_evaluate_matches_train_report(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    base = [
        "--data", str(data), "--schema", str(schema), "--seeds", "0",
    ]
    rc = main(["train", *base, "--variant", "none", "--epochs", "2",
               "--out", str(out)])
    assert rc == 0
    rc = main(
        [
            "evaluate", *base, "--model", str(out / "model_seed0.txt"),
            "--split", "test", "--out", str(tmp_path / "eval"),
        ]
    )
    assert rc == 0
    trained = (out / "bias_report_seed0.csv").read_text()
    evaluated = (tmp_path / "eval" / "evaluation.csv").read_text()
    assert trained == evaluated


def test_evaluate_feature_mismatch_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--variant", "none", "--seeds", "0", "--epochs", "1",
                 "--out", str(out)]) == 0
    # different seed -> different preprocessing fit -> mismatch is possible;
    # force one by rewriting the schema to drop a feature column
    schema2 = tmp_path / "schema2.txt"
    schema2.write_text(
        "num continuous\ncat ignore\ngender categorical group=F\n"
        "race categorical group=W\nincome label\nfirst first_name\n"
        "last last_name\n",
        encoding="utf-8",
    )
    rc = main(
        [
            "evaluate", "--data", str(data), "--schema", str(schema2),
            "--seeds", "0", "--model", str(out / "model_seed0.txt"),
            "--out", str(tmp_path / "eval"),
        ]
    )
    assert rc == 1
    assert "feature" in capsys.readouterr().err


def test_cluster_report_separates_benchmark_groups(benchmark_files, tmp_path):
    data, schema, embeddings = benchmark_files
    out = tmp_path / "out"
    rc = main(
        [
            "cluster-report", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--k", "2", "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "cluster_report.csv")[1:]
    counts = {}
    for cluster, attribute, value, count in rows:
        assert attribute == "grp"
        counts.setdefault(cluster, {})[value] = int(count)
    total = sum(sum(v.values()) for v in counts.values())
    assert total == 2000  # counts partition the dataset
    for cluster, values in counts.items():
        majority = max(values.values()) / sum(values.values())
        assert majority >= 0.95  # each cluster is essentially one group
    assert (out / "clusters.txt").exists()
    assert (out / "cluster_assignments.txt").exists()


def test_cluster_report_unassigned_row(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    rc = main(
        [
            "cluster-report", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--k", "3", "--seeds", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "cluster_report.csv")[1:]
    unassigned = [r for r in rows if r[0] == "unassigned"]
    assert unassigned, "coverage-none records should get an unassigned row"
    by_attr = {}
    for _, attribute, _, count in rows:
        by_attr[attribute] = by_attr.get(attribute, 0) + int(count)
    assert by_attr["gender"] == 120
    assert by_attr["race"] == 120


def test_weights_report_passthrough_and_sorting(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--variant", "none", "--seeds", "0", "--epochs", "2",
                 "--out", str(out)]) == 0
    model_path = out / "model_seed0.txt"
    rc = main(["weights-report", "--model", str(model_path),
               "--class", "hi", "--out", str(out)])
    assert rc == 0
    rows = read_csv_rows(out / "weights_hi.csv")
    params, feature_names, class_names = load_model(model_path)
    stored = dict(zip(feature_names, params.W[class_names.index("hi")]))
    got = {r[0]: float(r[1]) for r in rows[1:]}
    assert got == {k: float(v) for k, v in stored.items()}
    weights = [float(r[1]) for r in rows[1:]]
    assert weights == sorted(weights, reverse=True)


def test_weights_report_unknown_feature_and_class(tiny_tabular, tmp_path, capsys):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--variant", "none", "--seeds", "0", "--epochs", "1",
                 "--out", str(out)]) == 0
    model_path = out / "model_seed0.txt"
    rc = main(["weights-report", "--model", str(model_path),
               "--class", "hi", "--features", "num", "bogus",
               "--out", str(out)])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err
    rc = main(["weights-report", "--model", str(model_path),
               "--class", "nope", "--out", str(out)])
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_weights_report_penalty_shrinks_proxy_weight(benchmark_files, tmp_path):
    data, schema, embeddings = benchmark_files
    got = {}
    for lam in ("0", "2"):
        out = tmp_path / f"lam{lam}"
        rc = main(
            [
                "train", "--data", str(data), "--schema", str(schema),
                "--embeddings", str(embeddings), "--variant", "cocl",
                "--lambda", lam, "--seeds", "0", "--epochs", "30",
                "--lr", "0.05", "--out", str(out),
            ]
        )
        assert rc == 0
        rc = main(["weights-report", "--model", str(out / "model_seed0.txt"),
                   "--class", "hi", "--features", "x00", "--out", str(out)])
        assert rc == 0
        rows = read_csv_rows(out / "weights_hi.csv")
        got[lam] = float(rows[1][1])
    assert abs(got["2"]) < abs(got["0"])


def test_config_file_with_flag_override(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    config = {
        "data": str(data),
        "schema": str(schema),
        "variant": "none",
        "seeds": [0],
        "epochs": 50,
        "out": str(tmp_path / "out"),
    }
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["train", "--config", str(config_path), "--epochs", "2"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["spec"]["epochs"] == 2  # flag overrides config
    assert manifest["spec"]["variant"] == "none"
    history = read_csv_rows(tmp_path / "out" / "history_seed0.csv")
    assert len(history) == 3  # header + 2 epochs


def test_unknown_config_key_exit_1(tmp_path, capsys):
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps({"wiggle": 1}), encoding="utf-8")
    rc = main(["train", "--config", str(config_path)])
    assert rc == 1
    assert "wiggle" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("seeds", 3), ("seeds", [0, 1.5]), ("epochs", "5"), ("epochs", True),
    ("min_count", None), ("lam", "2"), ("lambdas", [0, "1"]), ("scrub", 1),
    ("data", 7),
])
def test_mistyped_config_value_exit_1(key, value, tiny_tabular, tmp_path, capsys):
    data, schema, embeddings = tiny_tabular
    config = {"data": str(data), "schema": str(schema), "seeds": [0],
              "epochs": 1, "out": str(tmp_path / "out"), key: value}
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["sweep", "--config", str(config_path), "--lambdas", "0", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and repr(key) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_config_int_for_float_and_non_object(tiny_tabular, tmp_path, capsys):
    data, schema, embeddings = tiny_tabular
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(
        {"data": str(data), "schema": str(schema), "seeds": [0], "epochs": 1,
         "lam": 0, "lr": 1, "out": str(tmp_path / "out")}), encoding="utf-8")
    assert main(["train", "--config", str(config_path)]) == 0
    config_path.write_text(json.dumps(["data"]), encoding="utf-8")
    assert main(["train", "--config", str(config_path)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_config_ints_in_float_fields_write_the_flags_bytes(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    common = ["--data", str(data), "--schema", str(schema), "--variant", "none",
              "--seeds", "0", "--epochs", "1", "--out", str(out)]
    assert main(["sweep", *common, "--lambdas", "0", "1"]) == 0
    from_flags = {name: (out / name).read_bytes()
                  for name in ("sweep.csv", "manifest.json")}
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps({"lambdas": [0, 1]}), encoding="utf-8")
    assert main(["sweep", "--config", str(config_path), *common]) == 0
    for name, want in from_flags.items():
        assert (out / name).read_bytes() == want, name


def test_config_with_a_byte_order_mark(tiny_tabular, tmp_path):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    config = json.dumps({"data": str(data), "schema": str(schema),
                         "variant": "none", "seeds": [0], "epochs": 1,
                         "out": str(out)})
    config_path = tmp_path / "spec.json"
    manifests = []
    for text in (config, "\ufeff" + config):
        config_path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(config_path)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[1] == manifests[0]


def test_truncated_model_exit_1(tiny_tabular, tmp_path, capsys):
    data, schema, embeddings = tiny_tabular
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--schema", str(schema),
                 "--variant", "none", "--seeds", "0", "--epochs", "1",
                 "--out", str(out)]) == 0
    model_path = out / "model_seed0.txt"
    lines = model_path.read_text(encoding="utf-8").splitlines(keepends=True)
    model_path.write_text("".join(lines[:-1]), encoding="utf-8")
    capsys.readouterr()
    for argv in (["weights-report", "--class", "hi"],
                 ["evaluate", "--data", str(data), "--schema", str(schema),
                  "--seeds", "0"]):
        rc = main(argv + ["--model", str(model_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "truncated" in err


def write_text_inputs(tmp_path):
    """Bios-style records, name tables and a small name-vector file."""
    white = [f"wname{i}" for i in range(10)]
    other = [f"oname{i}" for i in range(10)]
    lines = []
    for i in range(80):
        is_white = i % 2 == 0
        name = (white if is_white else other)[i % 10]
        job = "nurse" if (i % 4 < 2) else "coder"
        words = ["cares", "for", "patients"] if job == "nurse" else [
            "writes", "fast", "code"]
        if is_white:
            words.append("golf")
        lines.append(f"{job}\t{name}\tlastx\t{' '.join(words)} filler{i % 7}")
    data = tmp_path / "bios.tsv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    first_white = tmp_path / "first_white.tsv"
    first_white.write_text(
        "\n".join([f"{n}\t1.0" for n in white] + [f"{n}\t0.0" for n in other])
        + "\n",
        encoding="utf-8",
    )
    first_male = tmp_path / "first_male.tsv"
    first_male.write_text(
        "\n".join(f"{n}\t0.9" for n in white + other) + "\n", encoding="utf-8"
    )
    embeddings = tmp_path / "vectors.txt"
    vec_rng = np.random.default_rng(3)
    named = white[:8] + other[:6]   # the other names have no vector
    embeddings.write_text(
        f"{len(named)} 5\n" + "".join(
            f"{n} " + " ".join(repr(float(v)) for v in
                               vec_rng.normal(size=5) + (2.0 if n in white else 0.0))
            + "\n" for n in named
        ),
        encoding="utf-8",
    )
    return data, first_white, first_male, embeddings


def test_text_format_end_to_end(tmp_path):
    data, first_white, first_male, _ = write_text_inputs(tmp_path)
    out = tmp_path / "out"
    rc = main(
        [
            "train", "--data", str(data), "--format", "text",
            "--names-demographics", str(first_white), str(first_male),
            "--variant", "none", "--seeds", "0", "--epochs", "2",
            "--min-count", "1", "--top-fraction", "0", "--scrub",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv_rows(out / "summary.csv")
    assert rows[0][4] == "gap_rms_race"


def test_text_format_penalties_rerun_identically(tmp_path):
    data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
    inputs = [
        "--data", str(data), "--format", "text", "--embeddings", str(embeddings),
        "--names-demographics", str(first_white), str(first_male),
        "--min-count", "1", "--top-fraction", "0", "--scrub",
    ]
    common = [*inputs, "--seeds", "0", "1", "--epochs", "3", "--lr", "0.05"]
    commands = {
        "sweep": ["sweep", *common, "--variant", "cocl", "--lambdas", "0", "2"],
        "train": ["train", *common, "--variant", "clucl", "--lambda", "2",
                  "--k", "3"],
    }
    snapshots = []
    for _ in range(2):
        files = {}
        for name, argv in commands.items():
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == 0
            files.update({f"{name}/{p.name}": p.read_bytes()
                          for p in out.iterdir()})
        snapshots.append(files)
    assert snapshots[0] == snapshots[1]
    assert {"sweep/sweep.csv", "train/model_seed1.txt",
            "train/history_seed0.csv"} <= set(snapshots[0])
    out = tmp_path / "eval"
    assert main(["evaluate", *inputs, "--seeds", "1",
                 "--model", str(tmp_path / "train" / "model_seed1.txt"),
                 "--split", "all", "--out", str(out)]) == 0
    rows = read_csv_rows(out / "evaluation.csv")
    assert len(rows) > 1


# ----------------------------------------------- one parse per command, in order

@pytest.fixture()
def count_opens(monkeypatch):
    """Counts of open() calls per resolved path, for reads during the test."""
    import builtins
    from collections import Counter
    from pathlib import Path

    counts = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            counts[Path(file).resolve()] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return counts


def test_sweep_reads_data_and_embeddings_once(tiny_tabular, tmp_path, count_opens):
    data, schema, embeddings = tiny_tabular
    rc = main(
        [
            "sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "cocl",
            "--lambdas", "0", "1", "--seeds", "0", "1", "2", "--epochs", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert count_opens[data.resolve()] == 1
    assert count_opens[embeddings.resolve()] == 1


def test_text_sweep_reads_data_and_embeddings_once(tmp_path, count_opens):
    data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
    rc = main(
        [
            "sweep", "--data", str(data), "--format", "text",
            "--embeddings", str(embeddings),
            "--names-demographics", str(first_white), str(first_male),
            "--min-count", "1", "--top-fraction", "0", "--variant", "cocl",
            "--lambdas", "0", "2", "--seeds", "0", "1", "2", "--epochs", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert count_opens[data.resolve()] == 1
    assert count_opens[embeddings.resolve()] == 1


@pytest.fixture()
def count_scans(monkeypatch):
    """One item per block of vector file that load_embeddings scanned."""
    import nameblind.embeddings

    calls = []
    checked_lines = nameblind.embeddings._checked_lines
    monkeypatch.setattr(nameblind.embeddings, "_checked_lines",
                        lambda *args: calls.append(1) or checked_lines(*args))
    return calls


def age(path, seconds=10):
    """Set path's mtime seconds into the past, old enough to be cached."""
    then = time.time() - seconds
    os.utime(path, (then, then))


def test_sweep_rerun_is_served_from_the_vector_cache(tiny_tabular, tmp_path,
                                                     count_opens, count_scans):
    data, schema, embeddings = tiny_tabular
    age(embeddings)
    out = tmp_path / "out"
    argv = ["sweep", "--data", str(data), "--schema", str(schema),
            "--embeddings", str(embeddings), "--variant", "cocl",
            "--lambdas", "0", "1", "--seeds", "0", "1", "--epochs", "1",
            "--out", str(out)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append((len(count_scans), count_opens[embeddings.resolve()],
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    (scans, opens, first), (rescans, reopens, second) = runs
    assert scans > 0 and rescans == scans    # the second run scans nothing
    assert (opens, reopens) == (1, 2)        # and opens the file once
    assert "manifest.json" in first and second == first


def test_cluster_report_after_train_is_served_from_the_vector_cache(
        tmp_path, count_opens, count_scans):
    data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
    age(embeddings)
    inputs = ["--data", str(data), "--format", "text",
              "--embeddings", str(embeddings),
              "--names-demographics", str(first_white), str(first_male),
              "--min-count", "1", "--top-fraction", "0", "--seeds", "0"]
    assert main(["train", *inputs, "--variant", "cocl", "--lambda", "1",
                 "--epochs", "1", "--out", str(tmp_path / "train")]) == 0
    scans = len(count_scans)
    assert scans > 0
    assert main(["cluster-report", *inputs, "--k", "2",
                 "--out", str(tmp_path / "report")]) == 0
    assert len(count_scans) == scans
    assert count_opens[embeddings.resolve()] == 2


def records_entries():
    return list((Path(os.environ["XDG_CACHE_HOME"]) / "nameblind")
                .glob("records-*.npz"))


@pytest.mark.parametrize("command", ["train", "sweep", "cluster-report"])
def test_cold_and_warm_runs_write_identical_out(command, tiny_tabular, tmp_path,
                                                count_parses, count_scans):
    if command == "train":
        (tmp_path / "text").mkdir()
        data, first_white, first_male, embeddings = write_text_inputs(
            tmp_path / "text")
        argv = ["train", "--data", data, "--format", "text",
                "--embeddings", embeddings,
                "--names-demographics", first_white, first_male,
                "--min-count", "1", "--top-fraction", "0", "--scrub",
                "--variant", "clucl", "--k", "2", "--lambda", "1",
                "--seeds", "0", "1", "--epochs", "2"]
    else:
        data, schema, embeddings = tiny_tabular
        argv = [command, "--data", data, "--schema", schema,
                "--embeddings", embeddings, "--seeds", "0", "1"]
        argv += (["--variant", "cocl", "--lambdas", "0", "1", "--epochs", "1"]
                 if command == "sweep" else ["--k", "3"])
    age(data)
    age(embeddings)
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert main([*map(str, argv), "--out", str(out)]) == 0
        runs.append((len(count_parses), len(count_scans),
                     {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    (parses, scans, cold), (reparses, rescans, warm) = runs
    assert (parses, reparses) == (1, 1)   # the warm run parses nothing
    assert scans > 0 and rescans == scans
    assert "manifest.json" in cold and warm == cold
    assert len(records_entries()) == 1


@pytest.mark.parametrize("fmt, bad, message", [
    ("tabular", "oops,p,F,W,hi,name01,\n",
     "tiny.csv: row 122, column 'num': unparseable value 'oops'"),
    ("text", "nurse\tEve\n",
     "bios.tsv: line 81: expected 4 tab-separated fields, got 2"),
], ids=["tabular", "text"])
def test_a_malformed_records_file_exits_1_on_every_run(
        fmt, bad, message, tiny_tabular, tmp_path, capsys, count_parses):
    if fmt == "tabular":
        data, schema, _ = tiny_tabular
        inputs = ["--schema", str(schema)]
    else:
        (tmp_path / "text").mkdir()
        data = write_text_inputs(tmp_path / "text")[0]
        inputs = ["--format", "text"]
    with open(data, "a", encoding="utf-8") as fh:
        fh.write(bad)
    age(data)
    errors = []
    for _ in range(2):
        assert main(["train", "--data", str(data), *inputs, "--variant", "none",
                     "--seeds", "0", "--epochs", "1",
                     "--out", str(tmp_path / "out")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert message in errors[0]
    assert len(count_parses) == 2
    assert records_entries() == []


def test_evaluate_never_opens_the_embeddings_file(tiny_tabular, tmp_path,
                                                  capsys, count_opens):
    # a named file is still checked: a missing one is exit 2
    data, schema, embeddings = tiny_tabular
    inputs = ["--data", str(data), "--schema", str(schema), "--seeds", "0"]
    assert main(["train", *inputs, "--variant", "none", "--epochs", "1",
                 "--out", str(tmp_path / "out")]) == 0
    evaluate = ["evaluate", *inputs, "--out", str(tmp_path / "eval"),
                "--model", str(tmp_path / "out" / "model_seed0.txt")]
    assert main([*evaluate, "--embeddings", str(embeddings)]) == 0
    assert count_opens[embeddings.resolve()] == 0
    assert main([*evaluate, "--embeddings", str(tmp_path / "nope.txt")]) == 2
    assert "nope.txt" in capsys.readouterr().err


def test_clucl_sweep_clusters_once_per_seed(tmp_path, monkeypatch):
    import nameblind.training

    calls = []
    kmeans = nameblind.training.kmeans

    def counting_kmeans(points, *args, **kwargs):
        calls.append(len(points))
        return kmeans(points, *args, **kwargs)

    monkeypatch.setattr(nameblind.training, "kmeans", counting_kmeans)
    data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
    rc = main(
        [
            "sweep", "--data", str(data), "--format", "text",
            "--embeddings", str(embeddings),
            "--names-demographics", str(first_white), str(first_male),
            "--min-count", "1", "--top-fraction", "0", "--variant", "clucl",
            "--k", "3", "--lambdas", "1", "2", "--seeds", "0", "1",
            "--epochs", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert len(calls) == 2


@pytest.fixture()
def count_name_vectors(monkeypatch):
    """The number of batch_name_vectors calls during the test."""
    import nameblind.cli
    import nameblind.embeddings
    import nameblind.training

    calls = []
    batch_name_vectors = nameblind.embeddings.batch_name_vectors

    def counting(*args, **kwargs):
        calls.append(1)
        return batch_name_vectors(*args, **kwargs)

    for module in (nameblind.cli, nameblind.embeddings, nameblind.training):
        monkeypatch.setattr(module, "batch_name_vectors", counting)
    return calls


@pytest.mark.parametrize("fmt", ["tabular", "text"])
def test_cluster_report_builds_name_vectors_once(fmt, tiny_tabular, tmp_path,
                                                 count_name_vectors):
    if fmt == "tabular":
        data, schema, embeddings = tiny_tabular
        inputs = ["--schema", str(schema)]
    else:
        data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
        inputs = ["--format", "text", "--names-demographics", str(first_white),
                  str(first_male), "--min-count", "1", "--top-fraction", "0"]
    rc = main(["cluster-report", "--data", str(data), *inputs,
               "--embeddings", str(embeddings), "--k", "2", "--seeds", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(count_name_vectors) == 1


@pytest.mark.parametrize("names", ["text", "csv column", "synthetic"])
def test_name_vectors_built_once_per_seed(names, tiny_tabular, tmp_path,
                                          count_name_vectors):
    data, schema, embeddings = tiny_tabular
    inputs = ["--schema", str(schema)]
    if names == "text":
        data, first_white, first_male, embeddings = write_text_inputs(tmp_path)
        inputs = ["--format", "text", "--names-demographics", str(first_white),
                  str(first_male), "--min-count", "1", "--top-fraction", "0"]
    elif names == "synthetic":  # first names drawn per seed from these
        tables = [tmp_path / "white.tsv", tmp_path / "male.tsv"]
        for column, path in enumerate(tables):
            path.write_text("".join(
                f"name{i:02d}\t{0.9 if (i >> column) & 1 else 0.1}\n"
                for i in range(20)), encoding="utf-8")
        inputs += ["--names-demographics", *map(str, tables)]
    rc = main(["sweep", "--data", str(data), *inputs,
               "--embeddings", str(embeddings), "--variant", "cocl",
               "--lambdas", "0", "1", "--seeds", "0", "1", "2",
               "--epochs", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(count_name_vectors) == 3


def malformed_copy(data, tmp_path):
    bad = tmp_path / "bad.csv"
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[7] += ",extra"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


@pytest.mark.parametrize("case, code, message", [
    ("good", 0, None),
    ("malformed data", 1, "row 8 has 8 cells"),
    ("missing embeddings", 2, "nope.txt"),
    ("malformed data, missing embeddings", 2, "nope.txt"),
    ("malformed data, malformed embeddings", 1, "row 8 has 8 cells"),
    ("malformed embeddings", 1, "line 3"),
    ("numerical failure", 3, "numerical"),
])
def test_exit_codes_follow_the_input_order(case, code, message, tiny_tabular,
                                           tmp_path, capsys):
    data, schema, embeddings = tiny_tabular
    if "malformed data" in case:
        data = malformed_copy(data, tmp_path)
    if "missing embeddings" in case:
        embeddings = tmp_path / "nope.txt"
    if "malformed embeddings" in case:
        embeddings = tmp_path / "short.txt"
        embeddings.write_text("2 4\nname00 1 2 3 4\nname01 1 2 3\n",
                              encoding="utf-8")
    argv = [
        "train", "--data", str(data), "--schema", str(schema),
        "--embeddings", str(embeddings), "--variant", "cocl",
        "--lambda", "1", "--seeds", "0", "--epochs", "2",
        "--out", str(tmp_path / "out"),
    ]
    if case == "numerical failure":
        argv += ["--lr", "1e308"]
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(argv)
    assert rc == code
    err = capsys.readouterr().err
    if message is not None:
        assert message in err


@pytest.mark.parametrize("case, missing, message", [
    ("schema", "--embeddings", "unknown role 'labelx'"),
    ("name table", "--embeddings", "line 1: unparseable probability"),
    ("model", "--data", "not a recognized model file"),
], ids=["schema", "name table", "model"])
def test_every_named_file_is_found_before_any_is_parsed(
        case, missing, message, tiny_tabular, tmp_path, capsys):
    # a malformed file with a missing one exits 2; with every file
    # present, the malformed one exits 1
    data, schema, embeddings = tiny_tabular
    files = {"--data": data, "--schema": schema, "--embeddings": embeddings}
    bad = tmp_path / "bad.txt"
    argv = ["train", "--variant", "none", "--epochs", "1"]
    if case == "schema":
        bad.write_text(schema.read_text(encoding="utf-8").replace(
            "income label", "income labelx"), encoding="utf-8")
        files["--schema"] = bad
    elif case == "name table":
        bad.write_text("name00\tlikely\n", encoding="utf-8")
        male = tmp_path / "male.tsv"
        male.write_text("name00\t0.5\n", encoding="utf-8")
        argv += ["--names-demographics", str(bad), str(male)]
    else:
        bad.write_text("not a model\n", encoding="utf-8")
        argv = ["evaluate", "--model", str(bad)]
    argv += ["--seeds", "0", "--out", str(tmp_path / "out")]
    for named, code, want in (
            ({**files, missing: tmp_path / "nope.txt"}, 2, "nope.txt"),
            (files, 1, message)):
        options = [item for option, path in named.items()
                   for item in (option, str(path))]
        assert main([*argv, *options]) == code
        assert want in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["cocl", "clucl"])
def test_non_finite_embedding_component_exit_1(variant, tiny_tabular, tmp_path,
                                              capsys):
    # Loaded silently, a nan component failed later: cocl as a numerical
    # failure (exit 3), clucl in k-means++ sampling.
    data, schema, embeddings = tiny_tabular
    lines = embeddings.read_text(encoding="utf-8").splitlines()
    fields = lines[3].split()
    lines[3] = " ".join([fields[0], "nan", *fields[2:]])
    bad = tmp_path / "nan.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([
        "train", "--data", str(data), "--schema", str(schema),
        "--embeddings", str(bad), "--variant", variant, "--k", "2",
        "--lambda", "1", "--seeds", "0", "--epochs", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 4: non-finite vector component" in err


def test_invalid_utf8_in_the_embeddings_file_exit_1(tiny_tabular, tmp_path,
                                                     capsys):
    # the bad bytes are on a line whose token is not wanted
    data, schema, embeddings = tiny_tabular
    bad = tmp_path / "bad.txt"
    bad.write_bytes(embeddings.read_bytes() + b"zz\xff 1 2 3 4\n")
    rc = main([
        "train", "--data", str(data), "--schema", str(schema),
        "--embeddings", str(bad), "--variant", "cocl",
        "--lambda", "1", "--seeds", "0", "--epochs", "1",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "can't decode byte 0xff" in err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_previous_seed_freed_before_next_is_built(command, tiny_tabular,
                                                  tmp_path, monkeypatch):
    # seed 0's dataset and name table must be gone (by reference count,
    # no gc pass) when dataset_for_seed builds seed 1's
    import nameblind.cli
    import nameblind.training

    pipeline = nameblind.cli._Pipeline
    dataset_for_seed = pipeline.dataset_for_seed
    batch_name_vectors = nameblind.training.batch_name_vectors
    held, seen = [], []

    def tracked_dataset(self, seed):
        seen.append([ref() is not None for ref in held])
        dataset, split = dataset_for_seed(self, seed)
        held.append(weakref.ref(dataset))
        return dataset, split

    def tracked_names(*args):
        names = batch_name_vectors(*args)
        held.append(weakref.ref(names))
        return names

    monkeypatch.setattr(pipeline, "dataset_for_seed", tracked_dataset)
    monkeypatch.setattr(nameblind.training, "batch_name_vectors",
                        tracked_names)
    tables = [tmp_path / "white.tsv", tmp_path / "male.tsv"]
    for column, path in enumerate(tables):
        path.write_text("".join(
            f"name{i:02d}\t{0.9 if (i >> column) & 1 else 0.1}\n"
            for i in range(20)), encoding="utf-8")
    data, schema, embeddings = tiny_tabular
    lambdas = ["--lambdas", "0", "1"] if command == "sweep" else ["--lambda", "1"]
    rc = main([command, "--data", str(data), "--schema", str(schema),
               "--names-demographics", *map(str, tables),
               "--embeddings", str(embeddings), "--variant", "cocl",
               *lambdas, "--seeds", "0", "1", "2", "--epochs", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(held) == 6  # a dataset and a name table per seed
    assert seen == [[], [False, False], [False, False, False, False]]
