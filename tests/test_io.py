"""Session CSV layout, binary checkpoints, and report/export writers."""

import dataclasses
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgkin import dsp
from emgkin.errors import (
    CorruptCheckpointError,
    DataError,
    DimensionError,
    LoadError,
    UnsupportedVersionError,
)
from emgkin.evaluation import EvaluationReport
from emgkin.io import (
    CHECKPOINT_VERSION,
    atomic_write_text,
    export_feature_scatter,
    list_session_dirs,
    load_model,
    load_session,
    read_report,
    save_model,
    save_session,
    write_losses,
    write_report,
    write_trajectory,
)
from emgkin.lstm import init_lstm_params
from emgkin.nn import CnnModel, flat_dim
from emgkin.synth import SynthConfig, generate
from emgkin.training import LabelScaler, predict, train_hybrid
from conftest import traced_peak


# --------------------------------------------------------------------------
# sessions


def test_session_round_trip(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path / "s0")
    loaded = load_session(tmp_path / "s0")

    # %.17g is enough digits to reproduce every float64 exactly.
    np.testing.assert_array_equal(loaded.emg, tiny_session.emg)
    np.testing.assert_array_equal(loaded.angles, tiny_session.angles)
    np.testing.assert_array_equal(loaded.t_emg, tiny_session.t_emg)
    np.testing.assert_array_equal(loaded.t_ang, tiny_session.t_ang)
    assert loaded.protocol == tiny_session.protocol
    assert loaded.session_id == tiny_session.session_id
    assert loaded.fs_emg == tiny_session.fs_emg
    assert loaded.fs_ang == tiny_session.fs_ang
    assert loaded.dof_names == tiny_session.dof_names


def test_p4_round_trip_keeps_all_angle_columns(tmp_path):
    rec = generate(SynthConfig(protocol="P4", duration_s=10.0, seed=2))
    save_session(rec, tmp_path)
    loaded = load_session(tmp_path)
    assert loaded.dof_names == ["fe", "ps", "ru"]
    np.testing.assert_array_equal(loaded.angles, rec.angles)


def test_missing_meta_is_refused_naming_its_path(tiny_session, tmp_path):
    """Nothing is guessed for a session without meta.json: not its protocol
    from the angle columns, nor its id from the directory name."""
    save_session(tiny_session, tmp_path / "anon")
    (tmp_path / "anon" / "meta.json").unlink()
    with pytest.raises(LoadError, match=re.escape(f"missing {tmp_path / 'anon' / 'meta.json'}")):
        load_session(tmp_path / "anon")


@pytest.mark.parametrize("key", ["protocol", "session_id", "fs_emg", "fs_ang"])
def test_meta_missing_a_key_is_refused_naming_the_key(tiny_session, tmp_path, key):
    save_session(tiny_session, tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta[key]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(LoadError, match=re.escape(f"{meta_path}: missing key {key!r}")):
        load_session(tmp_path)


def test_p1_session_with_noisy_idle_columns_needs_its_meta(tmp_path):
    """A goniometer reports all three angles, so a real P1 session has small
    nonzero ps and ru columns. With its meta.json it loads as P1 with one
    DoF; without it, it is refused rather than read as P4."""
    rec = generate(SynthConfig(protocol="P1", duration_s=5.0, seed=1))
    save_session(rec, tmp_path)
    path = tmp_path / "angles.csv"
    lines = path.read_text().splitlines()
    t, fe, _, _ = lines[10].split(",")
    lines[10] = ",".join([t, fe, "0.01", "0.01"])
    path.write_text("\n".join(lines) + "\n")

    loaded = load_session(tmp_path)
    assert (loaded.protocol, loaded.dof_names) == ("P1", ["fe"])
    np.testing.assert_array_equal(loaded.angles, rec.angles)

    (tmp_path / "meta.json").unlink()
    with pytest.raises(LoadError, match="meta.json"):
        load_session(tmp_path)


def test_missing_emg_csv_rejected(tmp_path):
    with pytest.raises(LoadError, match="missing"):
        load_session(tmp_path)


def test_header_mismatch_rejected(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "emg.csv"
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("ch1", "c1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match="expected header"):
        load_session(tmp_path)


def test_wrong_channel_count_rejected(tiny_session, tmp_path):
    # Header advertises six channels but every row carries seven values.
    save_session(tiny_session, tmp_path)
    path = tmp_path / "emg.csv"
    lines = path.read_text().splitlines()
    body = [line + ",0.0" for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + body) + "\n")
    with pytest.raises(LoadError, match="expected 7 columns, got 8"):
        load_session(tmp_path)


@pytest.mark.parametrize("n_channels", [5, 8])
def test_save_refuses_a_recording_of_another_channel_count(tiny_session, tmp_path, n_channels):
    """emg.csv holds ``dsp.N_CHANNELS`` channels, the count ``load_session``
    reads; a recording of any other count is refused before a file is written."""
    emg = np.tile(tiny_session.emg[:, :1], (1, n_channels))
    rec = dataclasses.replace(tiny_session, emg=emg)
    with pytest.raises(DataError, match=f"{n_channels} EMG channels"):
        save_session(rec, tmp_path / "s0")
    assert not (tmp_path / "s0").exists()


def test_ragged_row_rejected(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "emg.csv"
    lines = path.read_text().splitlines()
    lines[4] = ",".join(lines[4].split(",")[:3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match="malformed row"):
        load_session(tmp_path)


def test_shuffled_rows_rejected_with_row_number(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "emg.csv"
    lines = path.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # data rows 3 and 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match="not strictly increasing at data row 4"):
        load_session(tmp_path)


def test_non_finite_cell_rejected_with_coordinates(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "angles.csv"
    lines = path.read_text().splitlines()
    cells = lines[6].split(",")
    cells[2] = "nan"
    lines[6] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match="non-finite cell at data row 6, column 3"):
        load_session(tmp_path)


def test_text_cell_rejected(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "emg.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError):
        load_session(tmp_path)


def test_single_letter_cell_is_a_malformed_row(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "angles.csv"
    lines = path.read_text().splitlines()
    cells = lines[6].split(",")
    cells[2] = "x"
    lines[6] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match="angles.csv: malformed row"):
        load_session(tmp_path)


def test_header_only_csv_has_no_data_rows(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    path = tmp_path / "emg.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LoadError, match="emg.csv: no data rows"):
            load_session(tmp_path)


@pytest.mark.parametrize("name", ["emg.csv", "angles.csv"])
def test_one_row_csv_rejected(tiny_session, tmp_path, name):
    """One row gives no rate to check against meta.json's."""
    save_session(tiny_session, tmp_path)
    path = tmp_path / name
    path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
    with pytest.raises(LoadError, match=name):
        load_session(tmp_path)


def test_rate_refusal_names_the_session(tiny_session, tmp_path):
    """The recording's own rate check refuses an angle rate its timestamps
    contradict, and the load names the session it read."""
    session = save_session(tiny_session, tmp_path / "s7")
    meta = json.loads((session / "meta.json").read_text())
    meta["fs_ang"] = 50.0
    (session / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(LoadError, match=r"s7.*deviates.*fs_ang"):
        load_session(session)


def test_rate_mismatch_rejected(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["fs_emg"] = 2048.0
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(LoadError, match="deviates"):
        load_session(tmp_path)


def test_unknown_protocol_in_meta_rejected(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["protocol"] = "P9"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(LoadError, match="protocol must be one of P1, P2, P3, P4, got 'P9'"):
        load_session(tmp_path)


def test_uninferable_angles_need_meta(tmp_path):
    """Hand-written CSVs with two active single-DoF columns, and no
    meta.json: the protocol is not guessed, the session is refused."""
    t_emg = np.arange(2048) / 1024.0
    t_ang = np.arange(200) / 100.0
    emg_lines = ["t," + ",".join(f"ch{i + 1}" for i in range(6))]
    emg_lines += [f"{t}," + ",".join(["0.1"] * 6) for t in t_emg]
    (tmp_path / "emg.csv").write_text("\n".join(emg_lines) + "\n")
    ang_lines = ["t,fe,ps,ru"]
    ang_lines += [f"{t},0.0,1.0,1.0" for t in t_ang]
    (tmp_path / "angles.csv").write_text("\n".join(ang_lines) + "\n")
    with pytest.raises(LoadError, match=re.escape(f"missing {tmp_path / 'meta.json'}")):
        load_session(tmp_path)


@pytest.mark.parametrize(
    "meta_text",
    [
        '["P1", 1024]',
        '"P1"',
        '{"fs_emg": "abc"}',
        '{"fs_emg": NaN}',
        '{"fs_emg": Infinity}',
        '{"fs_emg": 0}',
        '{"fs_emg": -1024.0}',
        '{"fs_emg": null}',
        '{"fs_ang": "abc"}',
        '{"fs_ang": NaN}',
        '{"fs_ang": -100.0}',
        '{"protocol": ["P1"]}',
        '{"protocol": null}',
        '{"protocol": ""}',
        '{"session_id": null}',
        '{"session_id": ""}',
        '{"session_id": 7}',
        '{"fs_emg": true}',
    ],
)
def test_malformed_meta_raises_load_error(tiny_session, tmp_path, meta_text):
    """A JSON value that is not an object replaces meta.json; an object
    replaces one key of the saved meta.json, so the case meets that key's
    rule and not a missing key."""
    save_session(tiny_session, tmp_path)
    meta_path = tmp_path / "meta.json"
    value = json.loads(meta_text)
    if isinstance(value, dict):
        ((key, _),) = value.items()
        meta = json.loads(meta_path.read_text())
        meta.update(value)
        meta_text, fault = json.dumps(meta), f"{key} must be"
    else:
        fault = "expected a JSON object"
    meta_path.write_text(meta_text)
    with pytest.raises(LoadError, match=re.escape(f"{meta_path}: {fault}")):
        load_session(tmp_path)


def test_list_session_dirs(tiny_session, tmp_path):
    save_session(tiny_session, tmp_path / "solo")
    assert list_session_dirs(tmp_path / "solo") == [tmp_path / "solo"]

    parent = tmp_path / "many"
    save_session(tiny_session, parent / "b_second")
    save_session(tiny_session, parent / "a_first")
    (parent / "not_a_session").mkdir()
    (parent / "stray.txt").write_text("x")
    assert list_session_dirs(parent) == [parent / "a_first", parent / "b_second"]


# --------------------------------------------------------------------------
# checkpoints


@pytest.fixture(scope="module")
def saved_model(desk_tiny_runs, tmp_path_factory):
    run, _ = desk_tiny_runs
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_model(run.model, path)
    return run.model, path


def test_checkpoint_round_trip_bit_identical(saved_model, tiny_session):
    model, path = saved_model
    loaded = load_model(path)

    for name, arr in model.cnn.state_arrays().items():
        np.testing.assert_array_equal(
            loaded.cnn.state_arrays()[name], arr, err_msg=name
        )
    for name, arr in model.lstm.parameters().items():
        np.testing.assert_array_equal(
            loaded.lstm.parameters()[name], arr, err_msg=name
        )
    assert loaded.k == model.k
    assert loaded.matrix_mode == model.matrix_mode
    assert loaded.dof_names == model.dof_names
    assert loaded.fs_emg == model.fs_emg == tiny_session.fs_emg
    assert dsp.window_geometry(loaded.fs_emg) == dsp.window_geometry(model.fs_emg) == (102, 51)
    np.testing.assert_array_equal(loaded.norm_stats.mins, model.norm_stats.mins)
    np.testing.assert_array_equal(loaded.norm_stats.maxs, model.norm_stats.maxs)
    np.testing.assert_array_equal(loaded.label_scaler.mean, model.label_scaler.mean)
    np.testing.assert_array_equal(loaded.label_scaler.std, model.label_scaler.std)

    before = predict(model, tiny_session)
    after = predict(loaded, tiny_session)
    np.testing.assert_array_equal(after.predictions, before.predictions)
    np.testing.assert_array_equal(after.timestamps, before.timestamps)


def test_header_holds_only_what_a_run_varies(saved_model):
    """The CNN's sizes are worked out on load (from ``matrix_mode`` at
    ``fs_emg``, ``norm_stats`` and ``dof_names``), so none is stored."""
    _, path = saved_model
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    assert set(json.loads(raw[12 : 12 + header_len])) == {
        "k", "matrix_mode", "dof_names", "fs_emg", "norm_stats", "label_scaler", "arrays"
    }


def _replace_header(raw: bytes, rebuild) -> bytes:
    """The checkpoint with its JSON header replaced by rebuild(header)."""
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = rebuild(json.loads(raw[12 : 12 + header_len]))
    encoded = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + header_len :]


def _set(key: str, value, field: str | None = None):
    """(field, rebuild) for a header whose ``key`` holds ``value``; the
    refusal names ``field``, ``key`` unless given."""
    return field or key, lambda header: {**header, key: value}


BAD_HEADERS = {
    "not-an-object": ("header", lambda header: [header]),
    "arrays-not-a-list": _set("arrays", 5),
    "entry-without-name": _set("arrays", [{"shape": [3]}]),
    "text-dimension": _set("arrays", [{"name": "cnn.conv1.W", "shape": ["x"]}]),
    "negative-dimension": _set("arrays", [{"name": "cnn.conv1.W", "shape": [-16, 6, 3]}]),
    "text-k": _set("k", "abc"),
    "zero-k": _set("k", 0),
    # The rate sets the windows and designs the filters: it must be a
    # finite number above the low-pass's Nyquist limit.
    "nan-fs-emg": _set("fs_emg", float("nan")),
    "text-fs-emg": _set("fs_emg", "1024"),
    "true-fs-emg": _set("fs_emg", True),
    "nyquist-fs-emg": _set("fs_emg", 2 * dsp.LOWPASS_HZ),
    "empty-norm-stats": _set("norm_stats", {}),
    # The header's sizes must fit the table: norm_stats sets conv1's input
    # channels, the matrix mode at the rate fc1's rows, and dof_names the
    # label scaler's length.
    "short-norm-stats": _set("norm_stats", {"mins": [0.0], "maxs": [1.0]}, "arrays"),
    "seven-channel-norm-stats": _set(
        "norm_stats", {"mins": [0.0] * 7, "maxs": [1.0] * 7}, "arrays"
    ),
    "text-label-scaler": _set("label_scaler", "x"),
    "unknown-matrix-mode": _set("matrix_mode", "wavelet"),
    # A 101-bin spectral model read as 1024 Hz temporal (102 samples) or as
    # 2048 Hz temporal (205 samples).
    "temporal-matrix-mode": (
        "arrays", lambda header: {**header, "matrix_mode": "temporal"}
    ),
    "temporal-at-2048-hz": (
        "arrays",
        lambda header: {**header, "matrix_mode": "temporal", "fs_emg": 2048.0},
    ),
    "three-dof-names": _set("dof_names", ["fe", "ps", "ru"], "label_scaler"),
    # dof_names must be one protocol's list, as save_model writes it.
    "text-dof-names": _set("dof_names", "f"),
    "number-dof-names": _set("dof_names", [1]),
    "unknown-dof-name": _set("dof_names", ["wrist"]),
    # LabelScaler.fit refuses constant labels; a zero std predicts a constant
    # and a negative one flips every angle's sign.
    "zero-label-std": _set("label_scaler", {"mean": [0.0], "std": [0.0]}),
    "negative-label-std": _set("label_scaler", {"mean": [0.0], "std": [-3.0]}),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_malformed_header_names_field(saved_model, tmp_path, case):
    field, rebuild = BAD_HEADERS[case]
    _, path = saved_model
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_replace_header(path.read_bytes(), rebuild))
    with pytest.raises(CorruptCheckpointError) as exc_info:
        load_model(bad)
    assert exc_info.value.field == field


def test_header_whose_mode_and_rate_fit_input_len_loads(saved_model, tmp_path):
    """The rate, not the relabelling, decides: 101 samples are the temporal
    window at 1014 Hz, so that header fits the spectral model's arrays."""
    _, path = saved_model
    relabelled = tmp_path / "temporal.ckpt"
    relabelled.write_bytes(_replace_header(
        path.read_bytes(),
        lambda header: {**header, "matrix_mode": "temporal", "fs_emg": 1014.0},
    ))
    assert dsp.matrix_length("temporal", 1014.0) == 101
    loaded = load_model(relabelled)
    assert (loaded.matrix_mode, loaded.fs_emg) == ("temporal", 1014.0)


@pytest.fixture(scope="module")
def saved_p4_model(saved_model, tmp_path_factory):
    """An untrained three-DoF twin of ``saved_model``, saved."""
    model, _ = saved_model
    twin = dataclasses.replace(
        model,
        cnn=CnnModel(model.cnn.input_len, model.cnn.in_channels, 3),
        lstm=init_lstm_params(n_outputs=3),
        label_scaler=LabelScaler(np.zeros(3), np.ones(3)),
        dof_names=["fe", "ps", "ru"],
    )
    return save_model(twin, tmp_path_factory.mktemp("p4") / "model.ckpt")


@pytest.mark.parametrize("dof_names", ["abc", [1, 2, 3], ["fe", "fe", "fe"]])
def test_three_dof_names_must_be_p4s(saved_p4_model, tmp_path, dof_names):
    """Three names that fit three outputs load only as P4's list."""
    assert load_model(saved_p4_model).dof_names == ["fe", "ps", "ru"]
    bad = tmp_path / "dofs.ckpt"
    _, rebuild = _set("dof_names", dof_names)
    bad.write_bytes(_replace_header(saved_p4_model.read_bytes(), rebuild))
    with pytest.raises(CorruptCheckpointError) as exc_info:
        load_model(bad)
    assert exc_info.value.field == "dof_names"


def _edit_array(raw: bytes, name: str, edit) -> bytes:
    """The checkpoint with array ``name`` replaced by edit(array), or left
    out where that returns None; a ``name`` the checkpoint lacks is appended
    as edit(None). The header's array list follows."""
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    blob = raw[12 + header_len :]
    entries, parts, offset = [], [], 0
    for entry in header["arrays"]:
        count = math.prod(entry["shape"])
        array = np.frombuffer(blob, "<f4", count, offset).reshape(entry["shape"])
        offset += 4 * count
        if entry["name"] == name:
            array = edit(array)
            if array is None:
                continue
        entries.append({"name": entry["name"], "shape": list(array.shape)})
        parts.append(np.asarray(array, "<f4").tobytes())
    if name not in [entry["name"] for entry in header["arrays"]]:
        array = edit(None)
        entries.append({"name": name, "shape": list(array.shape)})
        parts.append(np.asarray(array, "<f4").tobytes())
    encoded = json.dumps({**header, "arrays": entries}).encode("utf-8")
    return raw[:8] + struct.pack("<I", len(encoded)) + encoded + b"".join(parts)


# The table must be the one save_model writes for the header's sizes, so an
# LSTM array of another shape, a missing one or one more array is refused.
BAD_TABLES = {
    "short-b": ("lstm.b", lambda a: a[:10]),
    "narrow-W": ("lstm.W", lambda a: a[:, :-1]),
    "missing-W_y": ("lstm.W_y", lambda a: None),
    "extra-array": ("cnn.extra", lambda a: np.zeros(3)),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_array_table_must_match_the_model(saved_model, tmp_path, case):
    name, edit = BAD_TABLES[case]
    _, path = saved_model
    bad = tmp_path / "table.ckpt"
    bad.write_bytes(_edit_array(path.read_bytes(), name, edit))
    with pytest.raises(CorruptCheckpointError, match=name) as exc_info:
        load_model(bad)
    assert exc_info.value.field == "arrays"


@pytest.mark.parametrize("protocol", ["P1", "P4"])
def test_resave_is_byte_identical(tiny_config, tmp_path, protocol):
    """save_model(load_model(p)) writes exactly the bytes of p: every header
    value, the rate included, and every array survive a load unchanged."""
    rec = generate(SynthConfig(protocol=protocol, duration_s=20.0, seed=5))
    first = save_model(train_hybrid(rec, tiny_config).model, tmp_path / "first.ckpt")
    again = save_model(load_model(first), tmp_path / "again.ckpt")
    assert again.read_bytes() == first.read_bytes()


def refuse_checkpoint(path, match=None):
    """The CorruptCheckpointError ``load_model(path)`` raises, as pytest caught it."""
    with pytest.raises(CorruptCheckpointError, match=match) as exc_info:
        load_model(path)
    return exc_info


def test_oversized_header_fails_before_allocating(saved_model, tmp_path):
    """Temporal at 30 kHz gives 3000-sample matrices and asks for a
    ~95k-row fc1; the worked-out sizes must be checked against the stored
    arrays before the CNN is built at that size."""
    _, path = saved_model
    bad = tmp_path / "wide.ckpt"
    bad.write_bytes(_replace_header(
        path.read_bytes(), lambda header: {**header, "matrix_mode": "temporal", "fs_emg": 30e3}
    ))
    assert dsp.matrix_length("temporal", 30e3) == 3000
    exc_info, peak = traced_peak(refuse_checkpoint, bad)
    assert peak < 20 * 2**20
    assert exc_info.value.field == "arrays"


def test_short_blob_fails_before_allocating(saved_model, tmp_path):
    """Temporal at 10 MHz (10**6-sample matrices) with an fc1 shape to match
    passes the header checks, but the blob lacks fc1's ~38 GB: it is refused
    before the CNN is built at that size."""
    _, path = saved_model
    assert dsp.matrix_length("temporal", 10e6) == 10**6
    rows = flat_dim(10**6)

    def widen(header):
        arrays = [
            {**entry, "shape": [rows, *entry["shape"][1:]]}
            if entry["name"] == "cnn.fc1.W"
            else entry
            for entry in header["arrays"]
        ]
        return {**header, "matrix_mode": "temporal", "fs_emg": 10e6, "arrays": arrays}

    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(_replace_header(path.read_bytes(), widen))
    exc_info, peak = traced_peak(refuse_checkpoint, bad, "truncated")
    assert peak < 20 * 2**20
    assert exc_info.value.field == "blob"


def test_truncated_blob_rejected(saved_model, tmp_path):
    _, path = saved_model
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CorruptCheckpointError, match="truncated") as exc_info:
        load_model(bad)
    assert exc_info.value.field == "blob"


def test_trailing_bytes_rejected(saved_model, tmp_path):
    _, path = saved_model
    bad = tmp_path / "long.ckpt"
    bad.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CorruptCheckpointError, match="trailing") as exc_info:
        load_model(bad)
    assert exc_info.value.field == "blob"


def test_bad_magic_rejected(saved_model, tmp_path):
    _, path = saved_model
    bad = tmp_path / "magic.ckpt"
    bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(CorruptCheckpointError) as exc_info:
        load_model(bad)
    assert exc_info.value.field == "magic"


def test_tiny_file_rejected(tmp_path):
    bad = tmp_path / "stub.ckpt"
    bad.write_bytes(b"EMGK\x01")
    with pytest.raises(CorruptCheckpointError) as exc_info:
        load_model(bad)
    assert exc_info.value.field == "magic"


@pytest.mark.parametrize("version", [1, 2, 99])
def test_future_version_rejected(saved_model, tmp_path, version):
    """Only this build's version loads: v1 (per-gate LSTM arrays, no rate)
    and v2 (stored CNN sizes) are refused by name like any later one, and
    such a model is retrained."""
    _, path = saved_model
    raw = bytearray(path.read_bytes())
    assert struct.unpack("<I", raw[4:8]) == (CHECKPOINT_VERSION,) == (3,)
    raw[4:8] = struct.pack("<I", version)
    bad = tmp_path / "future.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError) as exc_info:
        load_model(bad)
    assert exc_info.value.version == version
    assert exc_info.value.field == "version"
    assert isinstance(exc_info.value, CorruptCheckpointError)


def test_missing_header_field_is_named(saved_model, tmp_path):
    _, path = saved_model
    bad = tmp_path / "nok.ckpt"
    bad.write_bytes(
        _replace_header(path.read_bytes(), lambda h: {k: v for k, v in h.items() if k != "k"})
    )
    with pytest.raises(CorruptCheckpointError, match="bad k") as exc_info:
        load_model(bad)
    assert exc_info.value.field == "k"


def test_garbage_header_rejected(saved_model, tmp_path):
    _, path = saved_model
    raw = bytearray(path.read_bytes())
    raw[12] = ord("X")  # first byte of the JSON header
    bad = tmp_path / "json.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError, match="invalid JSON") as exc_info:
        load_model(bad)
    assert exc_info.value.field == "header"


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CorruptCheckpointError) as exc_info:
        load_model(tmp_path / "nope.ckpt")
    assert exc_info.value.field == "file"


@pytest.fixture(scope="module")
def fuzz_target(saved_model, tmp_path_factory):
    """The saved checkpoint's bytes, and one path each example overwrites."""
    _, path = saved_model
    return path.read_bytes(), tmp_path_factory.mktemp("fuzz") / "fuzzed.ckpt"


def _loads_or_refuses(target, data: bytes) -> None:
    target.write_bytes(data)
    try:
        load_model(target)
    except CorruptCheckpointError:
        pass


@settings(max_examples=100, deadline=None)
@given(fraction=st.floats(0.0, 1.0))
def test_any_truncation_loads_or_is_refused(fuzz_target, fraction):
    raw, target = fuzz_target
    _loads_or_refuses(target, raw[: int(fraction * len(raw))])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_bit_flip_loads_or_is_refused(fuzz_target, data):
    """Half the flips land in the prelude and header, which are 0.2 % of the
    file but hold everything that decides what load_model builds."""
    raw, target = fuzz_target
    (header_len,) = struct.unpack("<I", raw[8:12])
    end = st.sampled_from([12 + header_len, len(raw)])
    bit = data.draw(end.flatmap(lambda stop: st.integers(0, 8 * stop - 1)))
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _loads_or_refuses(target, bytes(flipped))


# --------------------------------------------------------------------------
# reports and exports


def _toy_report() -> EvaluationReport:
    timestamps = np.linspace(0.1, 1.0, 10)
    truths = np.column_stack([np.sin(timestamps), np.cos(timestamps)])
    predictions = truths + 0.01
    return EvaluationReport(
        model="cnn-lstm",
        protocol="P4",
        split="intra:test-fold",
        dof=[{"name": "fe", "r2": 0.91}, {"name": "ps", "r2": 0.84}],
        k=18,
        matrix_mode="spectral",
        runtime_s=1.5,
        input_len=101,
        timestamps=timestamps,
        truths=truths,
        predictions=predictions,
    )


def test_report_file_round_trip(tmp_path):
    report = _toy_report()
    path = write_report(report, tmp_path / "report.json")
    loaded = read_report(path)
    assert loaded.model == report.model
    assert loaded.split == report.split
    assert loaded.dof == report.dof
    assert loaded.k == report.k
    np.testing.assert_allclose(loaded.timestamps, report.timestamps, atol=1e-15)
    np.testing.assert_allclose(loaded.predictions, report.predictions, atol=1e-15)
    np.testing.assert_allclose(loaded.truths, report.truths, atol=1e-15)


REPORT_TEXT = """\
{
  "model": "cnn",
  "protocol": "P4",
  "split": "intra:s0:folds123/fold4",
  "dof": [
    {
      "name": "fe",
      "r2": 0.5
    },
    {
      "name": "ps",
      "r2": -0.25
    }
  ],
  "k": 8,
  "matrix_mode": "temporal",
  "runtime_s": 0.125,
  "input_len": 102,
  "trajectory": {
    "t": [
      0.05,
      0.1
    ],
    "true": [
      [
        1.0,
        2.0
      ],
      [
        3.0,
        4.5
      ]
    ],
    "pred": [
      [
        1.5,
        2.0
      ],
      [
        0.30000000000000004,
        4.0
      ]
    ]
  }
}
"""


def _two_dof_report() -> EvaluationReport:
    return EvaluationReport(
        model="cnn",
        protocol="P4",
        split="intra:s0:folds123/fold4",
        dof=[{"name": "fe", "r2": 0.5}, {"name": "ps", "r2": -0.25}],
        k=8,
        matrix_mode="temporal",
        runtime_s=0.125,
        input_len=102,
        timestamps=np.array([0.05, 0.1]),
        truths=np.array([[1.0, 2.0], [3.0, 4.5]]),
        predictions=np.array([[1.5, 2.0], [0.1 + 0.2, 4.0]]),
    )


def test_report_file_text_is_pinned(tmp_path):
    """Key order, 2-space indent, shortest round-trip float text and a
    trailing newline: the report file's layout, character for character."""
    path = write_report(_two_dof_report(), tmp_path / "report.json")
    assert path.read_text() == REPORT_TEXT


def test_report_round_trip_keeps_every_field(tmp_path):
    """Every dataclass field survives the file exactly, so a field added to
    EvaluationReport cannot be dropped by ``to_dict`` or ``from_dict``."""
    report = _two_dof_report()
    loaded = read_report(write_report(report, tmp_path / "report.json"))
    for field in dataclasses.fields(EvaluationReport):
        got, want = getattr(loaded, field.name), getattr(report, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == np.float64, field.name
            np.testing.assert_array_equal(got, want, err_msg=field.name)
        else:
            assert got == want and type(got) is type(want), field.name


def test_write_report_writes_several_reports_as_an_array(tmp_path):
    """One report (alone or in a list of one) is a JSON object; several are
    an array of those objects, in order."""
    report = _two_dof_report()
    single = write_report([report], tmp_path / "one.json")
    assert single.read_text() == REPORT_TEXT
    several = write_report([report, _toy_report()], tmp_path / "two.json")
    objects = [json.loads(REPORT_TEXT), _toy_report().to_dict()]
    assert several.read_text() == json.dumps(objects, indent=2) + "\n"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_read_report_names_an_unreadable_path(tmp_path, where):
    path = tmp_path / "nowhere" / "r.json" if where == "missing" else tmp_path
    with pytest.raises(LoadError, match=re.escape(str(path))):
        read_report(path)


def test_read_report_names_a_missing_field(tmp_path):
    """Every field is required: no trajectory and no ``input_len`` are
    refused, not read as empty arrays and 0."""
    for field in ("matrix_mode", "trajectory", "input_len"):
        raw = _toy_report().to_dict()
        del raw[field]
        path = tmp_path / f"no-{field}.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(LoadError, match=f"'{field}' is missing"):
            read_report(path)


def test_read_report_refuses_an_array_of_reports(tmp_path):
    """``eval --baselines`` writes its reports as one JSON array."""
    path = tmp_path / "reports.json"
    path.write_text(json.dumps([_toy_report().to_dict()] * 3))
    with pytest.raises(LoadError, match="array of 3 reports"):
        read_report(path)


BAD_REPORTS = {
    "truncated": '{"model": "cnn", "dof": [',
    "scalar": "42",
    "trajectory-not-an-object": json.dumps({**_toy_report().to_dict(), "trajectory": [1]}),
    "dof-not-a-list": json.dumps({**_toy_report().to_dict(), "dof": 5}),
}


@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_read_report_refuses_a_malformed_file(tmp_path, case):
    path = tmp_path / "report.json"
    path.write_text(BAD_REPORTS[case])
    with pytest.raises(LoadError) as exc_info:
        read_report(path)
    assert str(path) in str(exc_info.value)


def test_trajectory_csv_layout(tmp_path):
    report = _toy_report()
    path = write_trajectory(report, tmp_path / "traj.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,true,pred,dof"
    assert len(lines) == 1 + 10 * 2  # one row per timestamp per DoF
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(report.timestamps[0])
    assert float(first[1]) == pytest.approx(report.truths[0, 0])
    assert float(first[2]) == pytest.approx(report.predictions[0, 0])
    assert [line.rsplit(",", 1)[1] for line in lines[1:5]] == [
        "fe",
        "ps",
        "fe",
        "ps",
    ]


def test_losses_csv_layout(tmp_path):
    path = write_losses(tmp_path / "losses.csv", [1.0, 0.5], [0.25])
    assert path.read_text().splitlines() == [
        "stage,epoch,loss",
        "cnn,0,1",
        "cnn,1,0.5",
        "lstm,0,0.25",
    ]
    # A float32 loss is written as the %.17g of its exact value, as a float64 is.
    path = write_losses(tmp_path / "losses32.csv", [np.float32(0.1)], [0.1])
    assert path.read_text().splitlines()[1:] == [
        "cnn,0,0.10000000149011612",
        "lstm,0,0.10000000000000001",
    ]


def test_feature_scatter_layout_and_validation(tmp_path):
    projected = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    angles = np.array([[10.0, -5.0], [20.0, -10.0], [30.0, -15.0]])
    path = export_feature_scatter(
        tmp_path / "scatter.csv", projected, angles, ["fe", "ps"], "deep"
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,angle,dof,feature_kind"
    assert len(lines) == 1 + 3 * 2
    assert lines[1] == "0,1,10,fe,deep"
    assert lines[2] == "0,1,-5,ps,deep"

    # Float32 angles are written as the %.17g of their exact value.
    angles32 = np.array([[0.1], [0.2], [0.3]], np.float32)
    path = export_feature_scatter(tmp_path / "f32.csv", projected, angles32, ["fe"], "deep")
    assert path.read_text().splitlines()[1:] == [
        "0,1,0.10000000149011612,fe,deep",
        "2,3,0.20000000298023224,fe,deep",
        "4,5,0.30000001192092896,fe,deep",
    ]
    # One DoF's labels come as a vector [M]: one angle column.
    path = export_feature_scatter(
        tmp_path / "one.csv", projected, np.array([10.0, 20.0, 30.0]), ["ru"], "handcrafted"
    )
    assert path.read_text().splitlines()[1:] == [
        "0,1,10,ru,handcrafted",
        "2,3,20,ru,handcrafted",
        "4,5,30,ru,handcrafted",
    ]

    with pytest.raises(ValueError, match="deep|handcrafted"):
        export_feature_scatter(
            tmp_path / "bad.csv", projected, angles, ["fe", "ps"], "other"
        )
    for bad_points, bad_angles in [
        (projected, angles[:2]),  # fewer angle rows than points
        (projected, np.vstack([angles, angles[:1]])),  # an extra row
        (projected, np.column_stack([angles, angles[:, :1]])),  # an extra column
        (projected, angles[:, 0]),  # one column for two DoFs
        (np.ones((3, 3)), angles),  # points that are not 2-D
    ]:
        both = f"angles {bad_angles.shape} and projected {bad_points.shape}"
        with pytest.raises(DimensionError, match=re.escape(both)):
            export_feature_scatter(tmp_path / "bad.csv", bad_points, bad_angles, ["fe", "ps"], "deep")
    assert not (tmp_path / "bad.csv").exists()


def test_atomic_write_text(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    # no leftover temp files from the swap
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]
