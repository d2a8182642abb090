"""Persistence: session CSVs, binary model checkpoints, JSON reports.

This module owns every file layout the package writes: ``write_report``
decides whether a report file is one JSON object or an array of them.

Session format (one directory per session):
    emg.csv     header ``EMG_HEADER`` (``t,ch1,...,ch6``) — seconds,
                volts-normalized; ``save_session`` refuses a recording of
                any channel count but ``dsp.N_CHANNELS`` with DataError
    angles.csv  header ``ANGLES_HEADER`` (``t,fe,ps,ru``, P4's DoFs) —
                seconds, degrees; inactive DoF columns are zeros for P1-P3
    meta.json   required, with all of ``META_KEYS``: ``protocol`` (a key of
                ``dsp.PROTOCOL_DOFS``), ``session_id`` (a non-empty string),
                and the rates ``fs_emg`` and ``fs_ang`` (finite, positive Hz)

``load_session`` reads exactly this layout. A missing ``meta.json``, a
missing key or a value its rule refuses is a LoadError naming the file and
the key; nothing is guessed from the angle columns or the directory name.
It checks the files, not the timestamps: the
``dsp.SemgRecording`` it builds applies ``dsp``'s rules (strictly increasing
timestamps, named by data row, and the rate rule), and its DataError becomes
a LoadError naming the session.

One rule, ``csv_text``, lays out every data CSV (session, trajectory, loss,
feature-scatter and the sweep's ``summary.csv``): a float as ``%.17g``
(float32 included; a float64 reads back exactly), any other cell as ``str``.

Checkpoint layout (little-endian throughout):
    magic "EMGK" | version u32 | header length u32 | header JSON | blob
The v3 header JSON holds only what a run varies: ``k``, ``matrix_mode``,
``dof_names``, the EMG rate ``fs_emg`` (which sets the window and hop
lengths), the preprocessing ``norm_stats`` and ``label_scaler``, and the
``arrays`` table: the name and shape of every array in blob order, the
CNN's ``cnn.*`` state, then the LSTM's ``lstm.W``, ``lstm.b``, ``lstm.W_y``
and ``lstm.b_y`` as ``lstm`` holds them (fused gates). The blob is their
float32 values concatenated row-major. What the recipe fixes is not stored:
the layer plan, the leaky slope, the dropout rate, the LSTM's
``lstm.HIDDEN_UNITS`` (50) units and its zero initial state. All writes go
through a temp file + rename so interrupted runs never leave partial files.

``load_model`` reads v3 only; any other version, v1 and v2 included, raises
UnsupportedVersionError (field ``version``), and a model is retrained rather
than converted. ``fs_emg`` must be a rate ``dsp.valid_emg_rate`` accepts,
``dof_names`` one of ``dsp.PROTOCOL_DOFS``'s lists, ``norm_stats`` two
equal-length lists and ``label_scaler`` two of one value per DoF. The
CNN's sizes are worked out from these: its input length is the
``dsp.matrix_length`` of ``matrix_mode`` at ``fs_emg``, its channels the
length of ``norm_stats``, its outputs (the LSTM's too) the number of
``dof_names``. Before anything is built, they are checked against the
table's ``cnn.conv1.W``, ``cnn.head.W`` and ``cnn.fc1.W`` and the blob's
length against the table, so the file's length bounds what the build
allocates. The table must equal the one ``save_model`` writes for that
model. The header is read first, and each array of the blob is then read
from the file into the model's own array, so no buffer of the file's size
is held. Every refusal is a CorruptCheckpointError naming the field at
fault.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import warnings
from itertools import zip_longest
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .dsp import LOWPASS_HZ, MATRIX_MODES, N_CHANNELS
from .dsp import PROTOCOL_DOFS, NormalizationStats, SemgRecording, matrix_length
from .dsp import channel_names, valid_emg_rate, valid_session_id
from .errors import (
    CorruptCheckpointError,
    DataError,
    DimensionError,
    LoadError,
    OutputPathError,
    UnsupportedVersionError,
)
from .evaluation import EvaluationReport
from .lstm import LstmParams, init_lstm_params
from .nn import CnnModel, flat_dim
from .training import HybridModel, LabelScaler

MAGIC = b"EMGK"
CHECKPOINT_VERSION = 3
ANGLE_COLUMNS = tuple(PROTOCOL_DOFS["P4"])
EMG_FILE = "emg.csv"
ANGLES_FILE = "angles.csv"
EMG_HEADER = "t," + ",".join(channel_names(N_CHANNELS))
ANGLES_HEADER = "t," + ",".join(ANGLE_COLUMNS)
META_FILE = "meta.json"
_FLOAT_FMT = "%.17g"


# --------------------------------------------------------------------------
# atomic write helpers


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    _atomic_write_bytes(path, text.encode("utf-8"))
    return Path(path)


def check_output(path: str | Path, directory: bool = False) -> Path:
    """Refuse, with OutputPathError naming it, an output path that the
    writers here would fail on only after the work: an existing directory
    where a file goes, an existing file where a ``directory`` goes, or a
    nearest existing ancestor that is not a directory. Missing directories
    are fine; the writers make them."""
    path = Path(path)
    if path.exists() and path.is_dir() != directory:
        found, want = ("a file", "a directory") if directory else ("a directory", "a file")
        raise OutputPathError(f"output {path} is {found}, not {want}")
    ancestor = path.parent
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise OutputPathError(f"output {path} cannot be written: {ancestor} is not a directory")
    return path


# --------------------------------------------------------------------------
# sessions


def _meta_rate(value: Any) -> bool:
    """Whether ``value`` is a finite, positive rate in Hz."""
    return type(value) in (int, float) and math.isfinite(value) and value > 0


# meta.json's keys, in the order save_session writes them, each with what its
# value must be and the rule load_session checks it by.
_META_RULES = {
    "protocol": (
        "one of " + ", ".join(PROTOCOL_DOFS), lambda v: isinstance(v, str) and v in PROTOCOL_DOFS
    ),
    "session_id": ("a non-empty string", valid_session_id),
    "fs_emg": ("a finite positive number", _meta_rate),
    "fs_ang": ("a finite positive number", _meta_rate),
}
META_KEYS = tuple(_META_RULES)


def save_session(rec: SemgRecording, directory: str | Path) -> Path:
    """Write emg.csv / angles.csv / meta.json for one recording."""
    if rec.n_channels != N_CHANNELS:
        raise DataError(f"{rec.n_channels} EMG channels; {EMG_FILE} holds {N_CHANNELS}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_text(directory / EMG_FILE, csv_text(EMG_HEADER, [rec.t_emg, *rec.emg.T]))
    by_name = dict(zip(rec.dof_names, rec.angles.T))
    angles = [by_name.get(name, np.zeros_like(rec.t_ang)) for name in ANGLE_COLUMNS]
    atomic_write_text(directory / ANGLES_FILE, csv_text(ANGLES_HEADER, [rec.t_ang, *angles]))
    meta = {key: getattr(rec, key) for key in META_KEYS}
    atomic_write_text(directory / META_FILE, json.dumps(meta, indent=2) + "\n")
    return directory


def csv_text(header: str, columns: Sequence) -> str:
    """``header`` and one line per row of ``columns``, equal-length
    sequences: a float column (float32 included) as ``%.17g``, any other
    with ``str``. Each row is one ``%`` over its cells, taken from the
    arrays a row at a time, so the table is never held as Python objects."""
    columns = [np.asarray(column) for column in columns]
    row = ",".join(_FLOAT_FMT if c.dtype.kind == "f" else "%s" for c in columns)
    cells = zip(*columns, strict=True)
    return "\n".join([header, *(row % line for line in cells)]) + "\n"


def _read_csv(path: Path, expected_header: str) -> np.ndarray:
    if not path.is_file():
        raise LoadError(f"missing {path}")
    with open(path) as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise LoadError(
                f"{path.name}: expected header {expected_header!r}, got {header!r}"
            )
        try:
            with warnings.catch_warnings():
                # An empty data section is reported below as "no data rows".
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise LoadError(f"{path.name}: malformed row ({exc})") from exc
    if data.size == 0:
        raise LoadError(f"{path.name}: no data rows")
    if len(data) < 2:
        raise LoadError(f"{path.name}: need at least 2 samples to check rate")
    n_cols = expected_header.count(",") + 1
    if data.shape[1] != n_cols:
        raise LoadError(
            f"{path.name}: expected {n_cols} columns, got {data.shape[1]}"
        )
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise LoadError(
            f"{path.name}: non-finite cell at data row {row + 1}, column {col + 1}"
        )
    return data


def _read_meta(path: Path) -> dict[str, Any]:
    """meta.json as ``save_session`` writes it: an object with every key of
    ``META_KEYS``, each value passing its rule. LoadError names the file,
    and the key at fault."""
    if not path.is_file():
        raise LoadError(f"missing {path}")
    try:
        meta = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise LoadError(f"{path}: expected a JSON object, got {meta!r:.80}")
    for key, (want, valid) in _META_RULES.items():
        if key not in meta:
            raise LoadError(f"{path}: missing key {key!r}")
        if not valid(meta[key]):
            raise LoadError(f"{path}: {key} must be {want}, got {meta[key]!r:.80}")
    return meta


def load_session(directory: str | Path) -> SemgRecording:
    """Load and validate one session directory."""
    directory = Path(directory)
    emg_data = _read_csv(directory / EMG_FILE, EMG_HEADER)
    ang_data = _read_csv(directory / ANGLES_FILE, ANGLES_HEADER)
    meta = _read_meta(directory / META_FILE)
    dof_names = PROTOCOL_DOFS[meta["protocol"]]
    angles = np.column_stack(
        [ang_data[:, 1 + ANGLE_COLUMNS.index(name)] for name in dof_names]
    )
    try:
        return SemgRecording(
            emg=emg_data[:, 1:],
            t_emg=emg_data[:, 0],
            angles=angles,
            t_ang=ang_data[:, 0],
            protocol=meta["protocol"],
            session_id=meta["session_id"],
            fs_emg=float(meta["fs_emg"]),
            fs_ang=float(meta["fs_ang"]),
        )
    except DataError as exc:
        raise LoadError(f"session {directory}: {exc}") from exc


def list_session_dirs(directory: str | Path) -> list[Path]:
    """Session directories under ``directory`` (itself, or its children)."""
    directory = Path(directory)
    if (directory / EMG_FILE).is_file():
        return [directory]
    return sorted(
        child
        for child in directory.iterdir()
        if child.is_dir() and (child / EMG_FILE).is_file()
    )


# --------------------------------------------------------------------------
# checkpoints


def _model_arrays(cnn: CnnModel, lstm: LstmParams) -> list[tuple[str, np.ndarray]]:
    """Every array of the blob, in blob order: the models' own arrays or
    views of them, so ``load_model`` fills them in place."""
    arrays = [(f"cnn.{n}", a) for n, a in cnn.state_arrays().items()]
    return arrays + [(f"lstm.{n}", a) for n, a in lstm.parameters().items()]


def save_model(model: HybridModel, path: str | Path) -> Path:
    path = Path(path)
    arrays = _model_arrays(model.cnn, model.lstm)
    header = {
        "k": model.k,
        "matrix_mode": model.matrix_mode,
        "dof_names": list(model.dof_names),
        "fs_emg": float(model.fs_emg),
        "norm_stats": {
            "mins": model.norm_stats.mins.tolist(),
            "maxs": model.norm_stats.maxs.tolist(),
        },
        "label_scaler": {
            "mean": model.label_scaler.mean.tolist(),
            "std": model.label_scaler.std.tolist(),
        },
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    header_json = json.dumps(header).encode("utf-8")
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in arrays
    )
    data = (
        MAGIC
        + struct.pack("<I", CHECKPOINT_VERSION)
        + struct.pack("<I", len(header_json))
        + header_json
        + blob
    )
    _atomic_write_bytes(path, data)
    return path


def _positive_int(value) -> int:
    if type(value) is not int or value < 1:
        raise ValueError("want a positive integer")
    return value


def _emg_rate(value) -> float:
    if type(value) not in (int, float) or not valid_emg_rate(value):
        raise ValueError(f"want a finite rate above {2 * LOWPASS_HZ:g} Hz")
    return float(value)


def _float_lists(raw: dict, names: tuple[str, str], length: int | None = None) -> list[np.ndarray]:
    """``raw[name]`` for each name as finite float64 values, one non-empty
    list each, of ``length`` values if given, else of the first's."""
    vectors = [np.asarray(raw[name], dtype=np.float64) for name in names]
    shape = (length or max(1, vectors[0].size),)
    if any(v.shape != shape or not np.all(np.isfinite(v)) for v in vectors):
        raise ValueError(f"want {names} as {shape[0]} finite numbers each")
    return vectors


def _array_entries(entries) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every array in the blob, in blob order."""
    parsed = [(entry["name"], tuple(entry["shape"])) for entry in entries]
    for name, shape in parsed:
        if not isinstance(name, str) or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"want a name and non-negative integer dims: {name!r} {shape}")
    return parsed


def _header_field(header: dict, key: str, convert=None):
    """``header[key]``, passed through ``convert`` if given. A missing key or
    a value ``convert`` rejects raises CorruptCheckpointError naming ``key``."""
    try:
        value = header[key]
    except KeyError:
        raise CorruptCheckpointError(key, "missing from header") from None
    try:
        return value if convert is None else convert(value)
    except (TypeError, ValueError, KeyError, DataError) as exc:
        raise CorruptCheckpointError(key, f"{exc!r}; got {value!r:.80}") from None


def load_model(path: str | Path) -> HybridModel:
    try:
        with Path(path).open("rb") as file:
            return _read_model(file)
    except OSError as exc:
        raise CorruptCheckpointError("file", str(exc)) from exc


def _read_model(file) -> HybridModel:
    """The model in an open checkpoint: the prelude and header are read
    first, and each array of the blob is then read from the file into the
    model built from them, so no copy of the blob is held."""
    file_len = os.fstat(file.fileno()).st_size
    prelude = file.read(12)
    if len(prelude) < 12:
        raise CorruptCheckpointError("magic", "file shorter than fixed prelude")
    if prelude[:4] != MAGIC:
        raise CorruptCheckpointError("magic", f"got {prelude[:4]!r}, want {MAGIC!r}")
    (version,) = struct.unpack("<I", prelude[4:8])
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(version, CHECKPOINT_VERSION)
    (header_len,) = struct.unpack("<I", prelude[8:12])
    if 12 + header_len > file_len:
        raise CorruptCheckpointError("header", "declared length exceeds file")
    try:
        header = json.loads(file.read(header_len))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpointError("header", f"invalid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise CorruptCheckpointError("header", f"not a JSON object: {header!r:.80}")

    table = _header_field(header, "arrays", _array_entries)
    matrix_mode = _header_field(header, "matrix_mode")
    if matrix_mode not in MATRIX_MODES:
        raise CorruptCheckpointError("matrix_mode", f"unknown mode {matrix_mode!r:.80}")
    fs_emg = _header_field(header, "fs_emg", _emg_rate)
    dof_names = _header_field(header, "dof_names")
    if dof_names not in PROTOCOL_DOFS.values():
        raise CorruptCheckpointError("dof_names", f"got {dof_names!r:.80}, want a protocol's")
    stats = _header_field(
        header, "norm_stats", lambda v: NormalizationStats(*_float_lists(v, ("mins", "maxs")))
    )
    n_outputs = len(dof_names)
    scaler = _header_field(
        header, "label_scaler", lambda v: LabelScaler(*_float_lists(v, ("mean", "std"), n_outputs))
    )
    k = _header_field(header, "k", _positive_int)
    input_len = matrix_length(matrix_mode, fs_emg)  # what predict will feed the CNN
    in_channels = len(stats.mins)
    # The sizes must fit the table's shapes, and the table the blob, before
    # they size the CNN built below: the file's length bounds what it allocates.
    shapes = dict(table)
    for name, axis, size in (
        ("cnn.conv1.W", 1, in_channels),
        ("cnn.head.W", 1, n_outputs),
        ("cnn.fc1.W", 0, flat_dim(input_len)),
    ):
        shape = shapes.get(name)
        if shape is None or len(shape) <= axis or shape[axis] != size:
            raise CorruptCheckpointError(
                "arrays", f"{name} stored as {shape}, but the header needs {size} "
                f"along axis {axis}")
    blob_len = file_len - (12 + header_len)
    nbytes = 4 * sum(math.prod(shape) for _, shape in table)
    if blob_len != nbytes:
        fault = "truncated" if blob_len < nbytes else "trailing bytes"
        raise CorruptCheckpointError("blob", f"{fault}: {blob_len} bytes, table {nbytes}")
    cnn = CnnModel(input_len, in_channels, n_outputs)
    lstm = init_lstm_params(n_outputs=n_outputs)
    arrays = _model_arrays(cnn, lstm)
    expected = [(name, array.shape) for name, array in arrays]
    if table != expected:
        got, want = next(pair for pair in zip_longest(table, expected) if pair[0] != pair[1])
        raise CorruptCheckpointError("arrays", f"table entry {got}, save_model writes {want}")
    for _, array in arrays:
        array[...] = np.fromfile(file, "<f4", array.size).reshape(array.shape)
    return HybridModel(
        cnn=cnn,
        lstm=lstm,
        norm_stats=stats,
        label_scaler=scaler,
        k=k,
        matrix_mode=matrix_mode,
        dof_names=dof_names,
        fs_emg=fs_emg,
    )


# --------------------------------------------------------------------------
# reports / exports


def write_report(
    reports: EvaluationReport | Sequence[EvaluationReport], path: str | Path
) -> Path:
    """Write one report as a JSON object, or several (``eval --baselines``'
    cnn-lstm, cnn and krr) as an array of them, indented by 2, with a
    trailing newline. A list of one is written as its one object."""
    if isinstance(reports, EvaluationReport):
        reports = [reports]
    raw = [report.to_dict() for report in reports]
    return atomic_write_text(path, json.dumps(raw[0] if len(raw) == 1 else raw, indent=2) + "\n")


def read_report(path: str | Path) -> EvaluationReport:
    """One report as ``write_report`` writes it. LoadError names the file and
    refuses a path that cannot be opened (missing, a directory, unreadable),
    invalid JSON, anything but an object (such as the array of reports that
    ``eval --baselines`` writes), a trajectory that is not an object, a
    missing field, or a field of the wrong type."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise LoadError(f"{path}: cannot read report ({exc.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(raw, list):
        raise LoadError(f"{path}: holds an array of {len(raw)} reports, not one")
    try:
        return EvaluationReport.from_dict(raw)
    except KeyError as exc:
        raise LoadError(f"{path}: report field {exc.args[0]!r} is missing") from None
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{path}: malformed report ({exc})") from None


def write_trajectory(report: EvaluationReport, path: str | Path) -> Path:
    """Long-format CSV ``t,true,pred,dof`` — one row per timestamp per DoF."""
    names = [entry["name"] for entry in report.dof]
    columns = [
        np.repeat(report.timestamps, len(names)),
        report.truths.ravel(),
        report.predictions.ravel(),
        names * len(report.timestamps),
    ]
    return atomic_write_text(path, csv_text("t,true,pred,dof", columns))


def write_losses(
    path: str | Path, cnn_loss: Sequence[float], lstm_loss: Sequence[float]
) -> Path:
    """Per-epoch training-loss CSV ``stage,epoch,loss`` for both stages."""
    stages = ["cnn"] * len(cnn_loss) + ["lstm"] * len(lstm_loss)
    epochs = [*range(len(cnn_loss)), *range(len(lstm_loss))]
    columns = [stages, epochs, [*cnn_loss, *lstm_loss]]
    return atomic_write_text(path, csv_text("stage,epoch,loss", columns))


def export_feature_scatter(
    path: str | Path,
    projected: np.ndarray,
    angles: np.ndarray,
    dof_names: Sequence[str],
    feature_kind: str,
) -> Path:
    """CSV ``x,y,angle,dof,feature_kind`` for external scatter plotting.

    One row per (sample, DoF): the [M x 2] feature projection tagged with
    that DoF's angle so color maps can be built per DoF. ``angles`` is
    [M x D] for the D ``dof_names``, or [M] for one DoF; DimensionError
    refuses any other shape.
    """
    if feature_kind not in ("deep", "handcrafted"):
        raise ValueError(f"feature_kind must be deep|handcrafted, got {feature_kind}")
    projected = np.asarray(projected)
    angles = np.asarray(angles)
    table = angles.reshape(-1, 1) if angles.ndim == 1 else angles
    n_points, n_dof = len(projected), len(dof_names)
    if projected.ndim != 2 or projected.shape[1] != 2 or table.shape != (n_points, n_dof):
        raise DimensionError(
            f"angles {angles.shape} and projected {projected.shape}; want "
            f"[M x {n_dof}] angles for {n_dof} DoF(s) and [M x 2] points"
        )
    columns = [
        *np.repeat(projected, n_dof, axis=0).T,
        table.ravel(),
        list(dof_names) * n_points,
        [feature_kind] * table.size,
    ]
    return atomic_write_text(path, csv_text("x,y,angle,dof,feature_kind", columns))
