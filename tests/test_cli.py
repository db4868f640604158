import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbcompose
from fbcompose import (
    DatasetSpec,
    Median,
    TrainingConfig,
    init_model,
    load_model,
    read_image,
    read_preset,
    save_model,
    train,
    write_image,
    write_preset,
)
from fbcompose.cli import _training_config, build_parser, run
from fbcompose.model import model_to_vector

from synth import synthetic_clean

SRC = str(Path(fbcompose.__file__).resolve().parent.parent)


def _fresh(module, argv, cwd):
    """One command in a new interpreter, through ``python -m module``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture()
def workspace(tmp_path):
    clean = synthetic_clean(300, width=16, height=16)
    write_image(clean, tmp_path / "clean.pgm")
    manifest = tmp_path / "data.txt"
    manifest.write_text("clean clean.pgm gaussian 25\n" * 1 + "clean clean.pgm impulse 0.2\n")
    preset = tmp_path / "preset.txt"
    write_preset([Median(3, 3), Median(1, 1)], preset)
    return tmp_path


def test_noise_happy_path_and_idempotence(workspace):
    out = workspace / "noisy.pgm"
    argv = ["noise", "--gaussian", "25", "--seed", "7", str(workspace / "clean.pgm"), str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first  # idempotent given identical seed
    img = read_image(out)
    assert img.shape == (1, 16, 16)


def test_noise_requires_exactly_one_kind(workspace):
    out = workspace / "noisy.pgm"
    assert run(["noise", str(workspace / "clean.pgm"), str(out)]) == 1
    assert (
        run(
            [
                "noise", "--gaussian", "25", "--impulse", "0.1",
                str(workspace / "clean.pgm"), str(out),
            ]
        )
        == 1
    )
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "1e400", "-5"])
def test_noise_bad_gaussian_sigma_is_processing_error_naming_it(workspace, capsys, sigma):
    out = workspace / "noisy.pgm"
    assert run(["noise", "--gaussian", sigma, str(workspace / "clean.pgm"), str(out)]) == 2
    assert "error: sigma255 must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ("bilateral:ss=1,sr=1e-200,k=3", "sigma_range"),
        ("bilateral:ss=1e-200,sr=1,k=3", "sigma_spatial"),
        ("rgf:sr=1e-200,ss=1,k=3,t=1", "sigma_range"),
        ("gauss:ss=1e-170", "sigma_spatial"),
        ("bilateral:ss=1,sr=1e-160,k=3", "sigma_range"),
    ],
)
def test_filter_tiny_sigma_is_processing_error_naming_the_field(workspace, capsys, config, field):
    out = workspace / "nope.pgm"
    assert run(["filter", config, str(workspace / "clean.pgm"), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad filter config '{config}': {field} is too small")
    assert err.count("\n") == 1
    assert not out.exists()


def test_filter_subcommand_matches_library(workspace):
    out = workspace / "filtered.pgm"
    assert run(["filter", "median:3x3", str(workspace / "clean.pgm"), str(out)]) == 0
    from fbcompose import median

    expected = median(read_image(workspace / "clean.pgm"), 3, 3)
    assert read_image(out) == expected


def test_filter_bad_config_is_processing_error(workspace):
    out = workspace / "nope.pgm"
    assert run(["filter", "median:3x4", str(workspace / "clean.pgm"), str(out)]) == 2
    assert not out.exists()  # validated before writing


def test_filter_rejects_a_repeated_parameter(workspace, capsys):
    out = workspace / "nope.pgm"
    config = "bilateral:ss=0.5,ss=9,sr=1,k=3"
    assert run(["filter", config, str(workspace / "clean.pgm"), str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad filter config '{config}': parameter 'ss' appears twice" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ("gauss:ss=-1", "sigma_spatial"),
        ("gauss:ss=inf", "sigma_spatial"),
        ("rgf:sr=0.2,ss=inf,k=3,t=1", "sigma_spatial"),
        ("bilateral:ss=inf,sr=1,k=3", "sigma_spatial"),
    ],
)
def test_filter_bad_sigma_is_processing_error_naming_the_field(workspace, capsys, config, field):
    out = workspace / "nope.pgm"
    assert run(["filter", config, str(workspace / "clean.pgm"), str(out)]) == 2
    assert f"{field} must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_filter_names_a_truncated_input(workspace, capsys):
    source = workspace / "t.pgm"
    source.write_text("P2\n2 2\n255\n1 2 3\n")
    out = workspace / "o.pgm"
    assert run(["filter", "gauss:ss=1", str(source), str(out)]) == 2
    assert capsys.readouterr().err == f"error: {source}: file ended after 3 of 4 expected values\n"
    assert not out.exists()


def test_filter_does_not_mutate_input(workspace):
    src = workspace / "clean.pgm"
    before = src.read_bytes()
    run(["filter", "gauss:ss=1", str(src), str(workspace / "o.pgm")])
    assert src.read_bytes() == before


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_missing_input_file_is_processing_error(workspace):
    assert run(["filter", "median:3x3", str(workspace / "missing.pgm"), str(workspace / "o.pgm")]) == 2


def test_calibrate_train_apply_eval_pipeline(workspace):
    preset_out = workspace / "selected.txt"
    report_csv = workspace / "scores.csv"
    rc = run(
        [
            "calibrate",
            "--grid", "median:k1=1|3,k2=1|3",
            "--pairs", str(workspace / "data.txt"),
            "--select", "2",
            "--out", str(preset_out),
            "--report", str(report_csv),
            "--threads", "2",
        ]
    )
    assert rc == 0
    selected = read_preset(preset_out)
    assert len(selected) == 2
    assert report_csv.exists()

    model_path = workspace / "model.cfmodel"
    history_csv = workspace / "history.csv"
    rc = run(
        [
            "train",
            "--preset", str(preset_out),
            "--data", str(workspace / "data.txt"),
            "--out", str(model_path),
            "--history", str(history_csv),
            "--epochs", "8",
            "--seed", "3",
        ]
    )
    assert rc == 0
    assert model_path.exists() and history_csv.exists()
    doc = json.loads(model_path.read_text())
    assert doc["format"] == "cfmodel/1"
    assert doc["training"]["loss_kind"] == "mse"

    applied = workspace / "applied.pgm"
    rc = run(["apply", "--model", str(model_path), str(workspace / "clean.pgm"), str(applied)])
    assert rc == 0
    assert read_image(applied).shape == (1, 16, 16)

    rc = run(
        [
            "eval",
            "--model", str(model_path),
            "--data", str(workspace / "data.txt"),
            "--csv", str(workspace / "eval.csv"),
        ]
    )
    assert rc == 0
    assert (workspace / "eval.csv").exists()


@pytest.mark.parametrize(
    "command, first, second",
    [
        (["train", "--preset", "{preset}", "--data", "{data}", "--epochs", "2"], "--out", "--history"),
        (["calibrate", "--grid", "median:k1=1|3,k2=1|3", "--pairs", "{data}", "--select", "2"],
         "--out", "--report"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
@pytest.mark.parametrize("bad", ["missing directory", "directory"])
def test_unwritable_second_output_writes_no_output(workspace, capsys, command, first, second, bad):
    written = workspace / "written.out"
    unwritable = workspace / "nodir" / "second.out" if bad == "missing directory" else workspace
    argv = [arg.format(preset=workspace / "preset.txt", data=workspace / "data.txt") for arg in command]
    assert run([*argv, first, str(written), second, str(unwritable)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {unwritable}: ")
    assert not written.exists() and unwritable.exists() == (bad == "directory")


def test_ablate_checks_its_output_directory_before_reading_data(workspace, capsys):
    missing = workspace / "nodir" / "report.txt"
    argv = ["ablate", "--preset", str(workspace / "preset.txt"),
            "--data", str(workspace / "missing.txt"), "--out", str(missing)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {missing}: directory {missing.parent} does not exist\n"


def test_eval_checks_its_csv_directory_before_reading_data(workspace, capsys):
    model_path = workspace / "model.cfmodel"
    save_model(init_model([Median(3, 3), Median(1, 1)]), model_path)
    cache = workspace / "cache"
    missing = workspace / "nodir" / "x.csv"
    argv = ["eval", "--model", str(model_path), "--data", str(workspace / "data.txt"),
            "--cache", str(cache), "--csv", str(missing)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {missing}: directory {missing.parent} does not exist\n"
    assert not cache.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["noise", "--gaussian", "25"],
        ["filter", "median:3x3"],
        ["apply", "--model", "{model}"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("spelling", ["same path", "relative path", "hard link", "symlink"])
def test_output_naming_the_input_is_usage_error(workspace, capsys, monkeypatch, command, spelling):
    model = workspace / "model.cfmodel"
    save_model(init_model([Median(3, 3), Median(1, 1)]), model)
    source = workspace / "clean.pgm"
    before = source.read_bytes()
    output = {
        "same path": str(source),
        "relative path": os.path.join(".", "sub", "..", "clean.pgm"),
        "hard link": str(workspace / "link.pgm"),
        "symlink": str(workspace / "symlink.pgm"),
    }[spelling]
    (workspace / "sub").mkdir()
    os.link(source, workspace / "link.pgm")
    os.symlink(source, workspace / "symlink.pgm")
    monkeypatch.chdir(workspace)
    argv = [arg.format(model=model) for arg in command]
    assert run([*argv, str(source), output]) == 1
    err = capsys.readouterr().err
    assert err == f"{command[0]}: output {output} is the input file\n"
    assert source.read_bytes() == before


_CALIBRATE = ["calibrate", "--grid", "median:k1=1|3,k2=1|3", "--pairs", "data.txt", "--select", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["apply", "--model", "model.cfmodel", "clean.pgm", "model.cfmodel"],
         "apply: output model.cfmodel is the --model file"),
        (["train", "--preset", "preset.txt", "--data", "data.txt", "--out", "data.txt"],
         "train: --out data.txt is the --data file"),
        (["train", "--preset", "preset.txt", "--data", "data.txt", "--out", "x", "--history", "x"],
         "train: --history x is the --out file"),
        (["train", "--preset", "preset.txt", "--data", "data.txt", "--out", "m.cfmodel",
          "--history", "preset.txt"],
         "train: --history preset.txt is the --preset file"),
        (["train", "--preset", "builtin:median8", "--data", "data.txt", "--val", "val.txt",
          "--out", "sub/../val.txt"],
         "train: --out sub/../val.txt is the --val file"),
        (["ablate", "--preset", "preset.txt", "--data", "data.txt", "--out", "preset.txt"],
         "ablate: --out preset.txt is the --preset file"),
        ([*_CALIBRATE, "--out", "data.txt"], "calibrate: --out data.txt is the --pairs file"),
        ([*_CALIBRATE, "--out", "p.txt", "--report", "p.txt"], "calibrate: --report p.txt is the --out file"),
        (["eval", "--model", "model.cfmodel", "--data", "data.txt", "--csv", "model.cfmodel"],
         "eval: --csv model.cfmodel is the --model file"),
        (["eval", "--model", "model.cfmodel", "--data", "data.txt", "--csv", "link.txt"],
         "eval: --csv link.txt is the --data file"),
    ],
    ids=[
        "apply-output-model", "train-out-data", "train-history-out", "train-history-preset",
        "train-out-val", "ablate-out-preset", "calibrate-out-pairs", "calibrate-report-out",
        "eval-csv-model", "eval-csv-data-link",
    ],
)
def test_output_naming_an_input_or_another_output_is_usage_error(
    workspace, capsys, monkeypatch, argv, message
):
    save_model(init_model([Median(3, 3), Median(1, 1)]), workspace / "model.cfmodel")
    (workspace / "val.txt").write_text((workspace / "data.txt").read_text())
    (workspace / "sub").mkdir()
    os.link(workspace / "data.txt", workspace / "link.txt")
    before = {path: path.read_bytes() for path in workspace.iterdir() if path.is_file()}
    monkeypatch.chdir(workspace)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert {path: path.read_bytes() for path in workspace.iterdir() if path.is_file()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--model", "bin.dat", "clean.pgm", "out.pgm"],
        ["train", "--preset", "bin.dat", "--data", "data.txt", "--out", "m.cfmodel"],
        ["train", "--preset", "preset.txt", "--data", "bin.dat", "--out", "m.cfmodel"],
        ["eval", "--model", "model.cfmodel", "--data", "bin.dat"],
        ["calibrate", "--pairs", "bin.dat", "--select", "1", "--out", "p.txt"],
    ],
    ids=["apply-model", "train-preset", "train-data", "eval-data", "calibrate-pairs"],
)
def test_text_file_that_is_not_utf8_is_named(workspace, capsys, monkeypatch, argv):
    save_model(init_model([Median(3, 3), Median(1, 1)]), workspace / "model.cfmodel")
    (workspace / "bin.dat").write_bytes(b"\x89PNG\r\n\x1a\n")
    monkeypatch.chdir(workspace)
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: bin.dat: 'utf-8' codec can't decode byte 0x89 in position 0: invalid start byte\n"
    )


def test_train_builtin_preset_and_threads_identical_outputs(workspace):
    # Determinism across --threads: identical model bytes and outputs.
    paths = []
    for threads in ("1", "8"):
        model_path = workspace / f"model_t{threads}.cfmodel"
        rc = run(
            [
                "train",
                "--preset", str(workspace / "preset.txt"),
                "--data", str(workspace / "data.txt"),
                "--out", str(model_path),
                "--epochs", "6",
                "--seed", "5",
                "--threads", threads,
            ]
        )
        assert rc == 0
        paths.append(model_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    outputs = []
    for threads in ("1", "8"):
        out = workspace / f"out_t{threads}.pgm"
        rc = run(
            [
                "apply", "--model", str(paths[0]), "--threads", threads,
                str(workspace / "clean.pgm"), str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_runs_past_the_float_range_of_its_schedule(workspace, capsys):
    # With --lr-period 1 the divisor 5 ** epoch overflows a float at epoch 442.
    out, history = workspace / "model.cfmodel", workspace / "history.csv"
    rc = run(
        [
            "train", "--preset", str(workspace / "preset.txt"), "--data", str(workspace / "data.txt"),
            "--out", str(out), "--history", str(history), "--epochs", "450", "--lr-period", "1",
        ]
    )
    assert rc == 0, capsys.readouterr().err
    rows = history.read_text().splitlines()
    assert len(rows) == 451 and rows[-1].split(",")[1] == "0.0"
    load_model(out)


def test_train_divergence_names_epoch_lr_and_samples(workspace, capsys):
    data = workspace / "data.txt"
    one = workspace / "one.txt"
    one.write_text(data.read_text().splitlines(keepends=True)[0])
    for preset, manifest, epochs, named in [
        # Two steps per epoch drive a parameter past the float range.
        (str(workspace / "preset.txt"), data, "3",
         ["sample clean.pgm", "parameter wc[0] must be finite"]),
        # One step leaves finite parameters whose merged output overflows.
        ("builtin:median8", one, "2",
         ["on validation sample 'clean.pgm'", "image data must be finite"]),
    ]:
        out = workspace / "model.cfmodel"
        rc = run(
            [
                "train", "--preset", preset, "--data", str(manifest),
                "--val", str(manifest), "--out", str(out), "--epochs", epochs, "--lr0", "1e300",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "diverged at epoch 0 (lr 1e+300)" in err
        for text in named:
            assert text in err
        assert not out.exists()


def test_train_divergence_prints_only_the_error(workspace):
    # Numpy's overflow warnings on the way to a divergence are noise before
    # the error line, so a fresh interpreter (default warning filters) shows none.
    (workspace / "one.txt").write_text("clean clean.pgm gaussian 25\n")
    for preset, manifest, epochs in [
        ("preset.txt", "data.txt", "3"),
        ("builtin:median8", "one.txt", "2"),
    ]:
        done = _fresh("fbcompose", [
            "train", "--preset", preset, "--data", manifest, "--val", manifest,
            "--out", "model.cfmodel", "--epochs", epochs, "--lr0", "1e300",
        ], workspace)
        assert done.returncode == 2
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.startswith("error: training diverged at epoch 0 (lr 1e+300)")


def test_train_rejects_a_preset_listing_a_config_twice(workspace, capsys):
    preset = workspace / "twice.txt"
    preset.write_text("# fbcompose preset\nmedian:3x3\nmedian:1x1\nmedian:3x3\n")
    out = workspace / "model.cfmodel"
    rc = run(["train", "--preset", str(preset), "--data", str(workspace / "data.txt"),
              "--out", str(out), "--epochs", "1"])
    assert rc == 2
    assert f"{preset}:4: config median:3x3 repeats line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("median:3xq", "bad filter config 'median:3xq': expected 'median:K1xK2'"),
        ("bilateral:ss=0.5,ss=9,sr=1,k=3", "parameter 'ss' appears twice"),
    ],
    ids=["malformed", "repeated-name"],
)
def test_train_names_the_preset_line_of_a_bad_config(workspace, capsys, line, message):
    preset = workspace / "preset.txt"
    preset.write_text(f"median:3x3\n{line}\n")
    out = workspace / "model.cfmodel"
    rc = run(["train", "--preset", str(preset), "--data", str(workspace / "data.txt"),
              "--out", str(out), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "preset.txt:2: " in err and message in err
    assert not out.exists()


def test_train_holds_out_the_manifest_split(workspace, capsys):
    lines = ["split 0.5"]
    for i in range(4):
        write_image(synthetic_clean(320 + i, width=16, height=16), workspace / f"c{i}.pgm")
        lines.append(f"clean c{i}.pgm gaussian 25")
    manifest = workspace / "split.txt"
    manifest.write_text("\n".join(lines) + "\n")
    preset = workspace / "preset.txt"
    out = workspace / "model.cfmodel"
    rc = run(
        [
            "train", "--preset", str(preset), "--data", str(manifest),
            "--out", str(out), "--epochs", "4", "--seed", "2",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().err == ""  # no fallback warning: the split holds out 2
    expected, _ = train(
        DatasetSpec.read(manifest).load(2), read_preset(preset),
        TrainingConfig(epochs=4, seed=2), val_fraction=0.5,
    )
    assert model_to_vector(load_model(out)).tobytes() == model_to_vector(expected).tobytes()


def test_train_names_a_truncated_image_of_the_manifest(workspace, capsys):
    bad = workspace / "bad.pgm"
    bad.write_bytes(b"P5\n16 16\n255\n" + bytes(100))
    manifest = workspace / "pairs.txt"
    manifest.write_text("pair clean.pgm clean.pgm\npair bad.pgm clean.pgm\n")
    out = workspace / "model.cfmodel"
    rc = run(["train", "--preset", str(workspace / "preset.txt"), "--data", str(manifest),
              "--out", str(out), "--epochs", "1"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: payload holds 100 bytes, expected 256\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ("train", "ablate"))
def test_validation_fallback_is_one_warning_line(workspace, command):
    # data.txt lists 2 samples, so the default 0.1 split holds out none.
    argv = [command, "--preset", "preset.txt", "--data", "data.txt", "--epochs", "2"]
    outputs = ["--out", "model.cfmodel"] if command == "train" else []
    done = _fresh("fbcompose", argv + outputs, workspace)
    assert done.returncode == 0
    assert done.stderr == (
        "warning: validation fraction 0.1 holds out none of 2 samples; "
        "validating on the training set\n"
    )


@pytest.mark.parametrize("command", ("train", "ablate"))
def test_training_flags_default_to_the_training_config(command):
    argv = [command, "--preset", "preset.txt", "--data", "data.txt"]
    outputs = ["--out", "model.cfmodel"] if command == "train" else []
    assert _training_config(build_parser().parse_args(argv + outputs)) == TrainingConfig()


@pytest.mark.parametrize("threads", ("1", "2"))
def test_eval_error_names_the_sample(workspace, capsys, threads):
    # Two undersized images follow the good one; the first in manifest
    # order is named, however the pool threads finish.
    write_image(synthetic_clean(330, width=8, height=8), workspace / "small.pgm")
    write_image(synthetic_clean(331, width=6, height=6), workspace / "tiny.pgm")
    manifest = workspace / "small.txt"
    manifest.write_text(
        "clean clean.pgm gaussian 25\nclean small.pgm gaussian 25\nclean tiny.pgm gaussian 25\n"
    )
    model_path = workspace / "model.cfmodel"
    save_model(init_model([Median(3, 3), Median(1, 1)]), model_path)
    csv_path = workspace / "eval.csv"
    argv = ["eval", "--model", str(model_path), "--data", str(manifest), "--csv", str(csv_path)]
    rc = run(argv + ["--threads", threads])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: sample 'small.pgm': ssim: image 8x8 smaller than the 11x11 window\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ("eval", "ablate"))
def test_eval_and_ablate_outputs_match_across_threads_and_runs(workspace, capsys, command):
    for index in range(3):
        write_image(synthetic_clean(340 + index, width=16, height=12), workspace / f"c{index}.pgm")
    manifest = workspace / "four.txt"
    manifest.write_text(
        "split 0.4\n"
        + "".join(f"clean c{index}.pgm gaussian 25\n" for index in range(3))
        + "clean clean.pgm impulse 0.2\n"
    )
    model_path = workspace / "model.cfmodel"
    save_model(init_model([Median(3, 3), Median(1, 1)]), model_path)
    inputs = {path: path.read_bytes() for path in workspace.iterdir()}
    results = []
    for run_index, threads in enumerate(("1", "2", "1", "2")):
        out = workspace / f"out{run_index}.txt"
        if command == "eval":
            argv = ["eval", "--model", str(model_path), "--data", str(manifest), "--csv", str(out)]
        else:
            argv = ["ablate", "--preset", str(workspace / "preset.txt"), "--data", str(manifest),
                    "--epochs", "5", "--out", str(out)]
        assert run(argv + ["--threads", threads]) == 0
        captured = capsys.readouterr()
        results.append((out.read_bytes(), captured.out, captured.err))
    assert results[0][0] and results[0][1]
    assert results[1:] == [results[0]] * 3
    assert {path: path.read_bytes() for path in inputs} == inputs


def test_apply_corrupted_model_counts_is_exit_2(workspace, capsys):
    model_path = workspace / "model.cfmodel"
    save_model(init_model([Median(3, 3), Median(1, 1)]), model_path)
    doc = json.loads(model_path.read_text())
    doc["content"]["weights"] = doc["content"]["weights"][:1]
    model_path.write_text(json.dumps(doc))
    out = workspace / "o.pgm"
    rc = run(["apply", "--model", str(model_path), str(workspace / "clean.pgm"), str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1" in err and "2" in err  # both counts named
    assert not out.exists()


def test_ablate_emits_labeled_record(workspace, capsys):
    rc = run(
        [
            "ablate",
            "--preset", str(workspace / "preset.txt"),
            "--data", str(workspace / "data.txt"),
            "--epochs", "5",
            "--out", str(workspace / "ablation.txt"),
        ]
    )
    assert rc == 0
    text = (workspace / "ablation.txt").read_text()
    assert "dual_branch_psnr_db=" in text
    assert "content_only_psnr_db=" in text
    assert "gap_db=" in text
    dual = float(text.splitlines()[0].split("=")[1])
    content = float(text.splitlines()[1].split("=")[1])
    gap = float(text.splitlines()[2].split("=")[1])
    assert gap == dual - content


def test_builtin_preset_names(workspace):
    model_path = workspace / "model.cfmodel"
    rc = run(
        [
            "train",
            "--preset", "builtin:median8",
            "--data", str(workspace / "data.txt"),
            "--out", str(model_path),
            "--epochs", "2",
        ]
    )
    assert rc == 0
    doc = json.loads(model_path.read_text())
    assert len(doc["configs"]) == 8
    rc = run(
        [
            "train",
            "--preset", "builtin:nonsense",
            "--data", str(workspace / "data.txt"),
            "--out", str(model_path),
        ]
    )
    assert rc == 2


def _workspace_argv(workspace, args):
    """``args`` with {data}, {preset}, {model}, {clean} and {out} naming files of
    ``workspace``; {model} is a freshly saved two-config model."""
    model = workspace / "model.cfmodel"
    save_model(init_model([Median(3, 3), Median(1, 1)]), model)
    paths = {
        "data": workspace / "data.txt",
        "preset": workspace / "preset.txt",
        "model": model,
        "clean": workspace / "clean.pgm",
        "out": workspace / "out.txt",
    }
    return [arg.format(**paths) for arg in args]


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize(
    "args",
    [
        ["calibrate", "--grid", "median:k1=1|3,k2=1", "--pairs", "{data}", "--select", "1",
         "--out", "{out}"],
        ["train", "--preset", "{preset}", "--data", "{data}", "--epochs", "1", "--out", "{out}"],
        ["apply", "--model", "{model}", "{clean}", "{out}"],
        ["eval", "--model", "{model}", "--data", "{data}", "--csv", "{out}"],
        ["ablate", "--preset", "{preset}", "--data", "{data}", "--epochs", "1", "--out", "{out}"],
    ],
    ids=lambda args: args[0],
)
def test_nonpositive_threads_is_usage_error(workspace, capsys, args, threads):
    out = workspace / "out.txt"
    assert run(_workspace_argv(workspace, args) + ["--threads", threads]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["noise", "--gaussian", "25", "{clean}", "{out}"],
        ["calibrate", "--grid", "median:k1=1|3,k2=1", "--pairs", "{data}", "--select", "1",
         "--out", "{out}"],
        ["train", "--preset", "{preset}", "--data", "{data}", "--epochs", "1", "--out", "{out}"],
        ["eval", "--model", "{model}", "--data", "{data}", "--csv", "{out}"],
        ["ablate", "--preset", "{preset}", "--data", "{data}", "--epochs", "1", "--out", "{out}"],
    ],
    ids=lambda args: args[0],
)
def test_negative_seed_is_usage_error(workspace, capsys, args):
    # The flag is named on the first line, and no seed reaches the noise generator.
    out = workspace / "out.txt"
    assert run(_workspace_argv(workspace, args) + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"fbcompose {args[0]}: argument --seed: seed must be >= 0, got -1"
    assert [line for line in err if "--seed" in line] == err[:1]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, field",
    [
        (["train", "--epochs", "0"], "epochs"),
        (["train", "--lr0", "0"], "lr0"),
        (["train", "--alpha", "-1"], "alpha"),
        (["train", "--gamma", "nan"], "gamma"),
        (["train", "--tv-weight", "0.5"], "tv_weight"),  # the default loss never reads it
        (["train", "--loss", "l1_tv", "--tv-weight", "-0.5"], "tv_weight"),
        (["train", "--loss", "l1_tv", "--tv-weight", "inf"], "tv_weight"),
        (["ablate", "--epochs", "0"], "epochs"),
        (["ablate", "--tv-weight", "0.5"], "tv_weight"),
        (["train", "--batch-size", "2"], "--batch-size"),  # removed: one step per sample
        (["train", "--no-shuffle"], "--no-shuffle"),  # removed: the order is always seeded
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_rejected_recipe_flag_is_usage_error(workspace, capsys, args, field):
    out = workspace / "out.txt"
    inputs = ["--preset", str(workspace / "preset.txt"), "--data", str(workspace / "data.txt"),
              "--out", str(out)]
    assert run([args[0], *inputs, *args[1:]]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("flag, field", [("--lr0", "lr0"), ("--lr-divisor", "lr_divisor")])
def test_infinite_learning_rate_flag_is_usage_error(workspace, capsys, command, flag, field):
    # Unchecked, --lr0 inf read as a divergence at epoch 0 (exit 2) and
    # --lr-divisor inf wrote Infinity, which is not JSON, into the model.
    out = workspace / "out.txt"
    argv = [command, "--preset", str(workspace / "preset.txt"), "--data",
            str(workspace / "data.txt"), "--out", str(out), flag, "inf"]
    assert run(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{command}: {field} must be finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--select", "0"], "--select"),
        (["--select", "10"], "--select"),  # the grid has 9 candidates
        (["--grid", "median"], "--grid"),
        (["--grid", "median:k1=1|3,k2"], "--grid"),
        (["--grid", "median:k1=1|x,k2=3"], "--grid"),
        (["--grid", "median:k1=1|3,k2=3,kk=3"], "--grid"),
        (["--grid", "rgf:sr=0.1,ss=2,k=inf,t=1"], "--grid"),
        (["--grid", "rgf:sr=0.1,ss=2,k=9,t=nan"], "--grid"),
        (["--grid", "bilateral:ss=0.1:1.1:0,sr=1,k=5"], "--grid"),
        (["--grid", "nope:x=1"], "--grid"),
        (["--grid", "median:k1=1|3,k1=5|7,k2=3"], "--grid: parameter 'k1' appears twice"),
        (["--grid", "median:k1=3|3,k2=3|5"], "--grid: config median:3x3 appears twice"),
        (["--grid", "bilateral:ss=0.5:0.5:3,sr=1,k=5"],
         "--grid: config bilateral:ss=0.5,sr=1,k=5 appears twice"),
        (["--grid", "median:k1=3|3.0000000001,k2=5"], "--grid: config median:3x5 appears twice"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_rejected_calibrate_flag_is_usage_error(workspace, capsys, args, flag):
    # The pairs manifest does not exist: the flags are checked before it is read.
    out = workspace / "out.txt"
    report = workspace / "report.csv"
    argv = [
        "calibrate", "--grid", "median:k1=1|3|5,k2=1|3|5", "--select", "3",
        "--pairs", str(workspace / "missing.txt"), "--out", str(out), "--report", str(report),
    ]
    assert run(argv + args) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("median:k1=1|x,k2=3", "bad number 'x' for 'k1' in grid part 'k1=1|x'"),
        ("bilateral:ss=0.1:1.1:two,sr=1,k=5", "bad number 'two' for 'ss' in grid part 'ss=0.1:1.1:two'"),
        ("bilateral:ss=0.1:1.1:3,sr=1,k=y", "bad number 'y' for 'k' in grid part 'k=y'"),
    ],
)
def test_calibrate_grid_number_error_names_parameter_and_part(workspace, capsys, grid, message):
    out = workspace / "out.txt"
    argv = ["calibrate", "--grid", grid, "--select", "1", "--pairs", str(workspace / "data.txt"),
            "--out", str(out)]
    assert run(argv) == 1
    assert f"calibrate: --grid: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    subcommands = next(
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert "train" in subcommands
    for command in subcommands:
        assert run([command, "--help"]) == 0, command
        assert f"usage: fbcompose {command}" in capsys.readouterr().out, command


def test_python_m_runs_the_commands(workspace):
    done = _fresh("fbcompose", ["--help"], workspace)
    assert done.returncode == 0
    assert "usage: fbcompose" in done.stdout
    for module in ("fbcompose", "fbcompose.cli"):
        out = workspace / f"{module}.pgm"
        done = _fresh(module, ["filter", "gauss:ss=inf", "clean.pgm", out.name], workspace)
        assert done.returncode == 2, module
        assert "sigma_spatial must be finite and > 0" in done.stderr
        assert not out.exists()


def test_reused_parser_gives_the_same_codes_and_files_as_fresh_runs(workspace, capsys, monkeypatch):
    save_model(init_model([Median(3, 3), Median(1, 1)]), workspace / "model.cfmodel")

    def commands(tag):
        return [
            ["apply", "--model", "model.cfmodel", "clean.pgm", f"applied_{tag}.pgm"],
            ["eval", "--model", "model.cfmodel", "--data", "data.txt", "--csv", f"eval_{tag}.csv"],
        ]

    fresh = [_fresh("fbcompose", argv, workspace) for argv in commands("fresh")]
    assert [done.returncode for done in fresh] == [0, 0]

    assert build_parser() is build_parser()
    monkeypatch.chdir(workspace)
    assert run(["apply", "--model"]) == 1
    capsys.readouterr()
    codes, stdouts = [], []
    for argv in commands("reused"):
        codes.append(run(argv))
        stdouts.append(capsys.readouterr().out)
    assert codes == [0, 0]
    assert stdouts == [done.stdout for done in fresh]
    for name in ("applied_{}.pgm", "eval_{}.csv"):
        assert (workspace / name.format("reused")).read_bytes() == (workspace / name.format("fresh")).read_bytes()
