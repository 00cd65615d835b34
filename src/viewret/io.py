"""File formats: XYZ/OBJ geometry, PGM images (written only), binary mixture and database files.

All binary layouts are little-endian with 32-bit IEEE floats. A binary reader
checks the structure; the `encode` record it builds checks the values, and
the reader names its file in that record's refusal.
"""

import math
import os
import struct
import warnings

import numpy as np

from .encode import DbEntry, DescriptorDb, GmmParams, check_model
from .errors import ViewretError
from .features import DESCRIPTOR_SIZE
from .geometry import TriangleMesh

GMM_MAGIC = b"GMM1"
DB_MAGIC = b"FVDB"
DB_VERSION = 1


# --- text files --------------------------------------------------------------

def text_lines(path):
    """Yield ``(line number, text before any '#', stripped)`` for every line of a UTF-8 file.

    Blank and comment-only lines are yielded too, as ``''``. Lines are
    numbered as text-mode iteration numbers them: a line ends at ``\\n``,
    ``\\r`` or ``\\r\\n``, bytes that a UTF-8 sequence never holds. A byte
    that is not UTF-8 raises ViewretError naming ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                yield line_no, (raw.partition("#")[0] if "#" in raw else raw).strip()
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                lines = raw.read().splitlines()
            for line_no, line in enumerate(lines, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ViewretError(f"{path}:{line_no}: byte 0x{line[exc.start]:02x} "
                                       f"is not UTF-8") from None
            raise


def _coordinates(tokens) -> list:
    """``float()`` of each token; a value that is not finite is refused, after every token parses."""
    values = [float(token) for token in tokens]
    for token, value in zip(tokens, values):
        if not math.isfinite(value):
            raise ViewretError(f"coordinate {token!r} is not finite")
    return values


# --- text geometry -----------------------------------------------------------

def load_xyz(path) -> np.ndarray:
    """Read one `x y z` triple per line; `#` starts a comment.

    numpy's reader (``np.loadtxt``) parses the file. Coordinates must be
    finite, so ``nan``, ``inf`` and overflowing tokens such as ``1e400`` are
    refused. A file that numpy refuses, or whose values are not three finite
    coordinates per line, is re-read by `text_lines`, which names its first
    bad line as ``path:line`` (a wrong count before an unparseable token, and
    that before a non-finite value) or reads what numpy does not, such as
    ``1_0``. A byte that is not UTF-8 is named as ``path:line`` too.
    """
    # numpy reads an open handle: given the path, it would open a `.gz` file transparently
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                # a file without points is re-read below, which returns it as (0, 3)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, comments="#", ndmin=2)
            if values.shape[1] == 3 and np.isfinite(values).all():
                return values
        except ValueError:
            pass
    points = []
    for line_no, line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 3:
                raise ViewretError(f"expected 3 coordinates, got {len(parts)}")
            points.append(_coordinates(parts))
        except ValueError as exc:
            raise ViewretError(f"{path}:{line_no}: {exc}") from None
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def save_xyz(points, path):
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in np.asarray(points, dtype=np.float64):
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def load_obj(path) -> TriangleMesh:
    """Read the `v`/`f` subset of OBJ; faces must be triangles; `#` starts a comment.

    Vertex coordinates must be finite, so ``nan``, ``inf`` and overflowing
    tokens such as ``1e400`` are refused. A bad line, like an unparseable
    token or a byte that is not UTF-8, is reported as ``path:line``, and a
    mesh that `TriangleMesh` refuses, such as one with no face, as ``path``.
    """
    vertices = []
    faces = []
    for line_no, line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ViewretError("vertex needs 3 coordinates")
                vertices.append(_coordinates(parts[1:4]))
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ViewretError("only triangulated faces are supported")
                idx = [int(token.split("/", 1)[0]) - 1 for token in parts[1:]]
                if min(idx) < 0:
                    raise ViewretError("face indices must be positive")
                faces.append(idx)
        except ValueError as exc:
            raise ViewretError(f"{path}:{line_no}: {exc}") from None
    try:
        return TriangleMesh(vertices, faces)
    except ValueError as exc:
        raise ViewretError(f"{path}: {exc}") from None


def load_geometry(path):
    """`.obj` loads as a `TriangleMesh`, anything else as an XYZ cloud."""
    return load_obj(path) if str(path).lower().endswith(".obj") else load_xyz(path)


def save_obj(mesh: TriangleMesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.triangles + 1:
            fh.write(f"f {a} {b} {c}\n")


# --- images ------------------------------------------------------------------

def write_pgm(img, path):
    """Binary PGM (P5), maxval 255."""
    arr = np.asarray(img, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# --- binary dumps -------------------------------------------------------------

class _BinaryReader:
    """Reads the fields of an open binary file, raising ViewretError on a short read.

    Sizes are checked against the bytes left before reading, so a corrupt
    count never becomes a huge allocation; `finish` rejects leftover bytes.
    """

    def __init__(self, fh, path, magic: bytes):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        if self.take(len(magic), "magic") != magic:
            raise ViewretError(f"{path}: bad magic, not a {magic.decode()} file")

    def take(self, size: int, field: str) -> bytes:
        if size > self.size - self.pos:
            raise ViewretError(f"{self.path}: truncated in {field}: needs {size} bytes at offset "
                               f"{self.pos}, file has {self.size}")
        self.pos += size
        return self.fh.read(size)

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def floats(self, count: int, field: str) -> np.ndarray:
        return np.frombuffer(self.take(4 * count, field), dtype="<f4")

    def finish(self):
        if self.pos != self.size:
            raise ViewretError(f"{self.path}: {self.size - self.pos} unexpected bytes "
                               f"after offset {self.pos}")


def write_gmm(gmm: GmmParams, path):
    """Write GMM1; the float32 values written are checked as a `GmmParams` before the file opens.

    So a sigma that float32 rounds to 0, or a mean it rounds to inf, is
    refused, and no file is left.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stored = [np.asarray(a, dtype="<f4") for a in (gmm.weights, gmm.means, gmm.sigmas)]
    GmmParams(*stored)
    with open(path, "wb") as fh:
        fh.write(GMM_MAGIC)
        fh.write(struct.pack("<II", *stored[1].shape))
        for values in stored:
            fh.write(values.tobytes())


def read_gmm(path) -> GmmParams:
    """Read a mixture; `GmmParams` checks its shape and values, refusing as ``path: ...``."""
    with open(path, "rb") as fh:
        reader = _BinaryReader(fh, path, GMM_MAGIC)
        k, d = reader.unpack("<II", "header")
        weights = reader.floats(k, "weights")
        means = reader.floats(k * d, "means").reshape(k, d)
        sigmas = reader.floats(k * d, "sigmas").reshape(k, d)
        reader.finish()
    try:
        return GmmParams(weights=weights, means=means, sigmas=sigmas)
    except ViewretError as exc:
        raise ViewretError(f"{path}: {exc}") from None


def write_descriptor_db(db: DescriptorDb, path):
    """Write FVDB; `DescriptorDb` construction checked every entry, so none is left partial."""
    k = db.entries[0].descriptor.size // (2 * DESCRIPTOR_SIZE)
    with open(path, "wb") as fh:
        fh.write(DB_MAGIC)
        fh.write(struct.pack("<IIII", DB_VERSION, k, DESCRIPTOR_SIZE, len(db.entries)))
        for entry in db.entries:
            name = entry.model_id.encode("utf-8")
            fh.write(struct.pack("<H", len(name)) + name
                     + struct.pack("<II", entry.class_id, entry.viewpoint_id))
            fh.write(np.asarray(entry.descriptor, dtype="<f4").tobytes())


def read_descriptor_db(path) -> DescriptorDb:
    with open(path, "rb") as fh:
        reader = _BinaryReader(fh, path, DB_MAGIC)
        version, k, d, count = reader.unpack("<IIII", "header")
        if version != DB_VERSION:
            raise ViewretError(f"{path}: unsupported database version {version}")
        dim = 2 * d * k
        entries = []
        for index in range(count):
            field = f"entry {index}"
            (name_len,) = reader.unpack("<H", field)
            try:
                model_id = reader.take(name_len, field).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ViewretError(f"{path}: {field} model id is not UTF-8") from exc
            class_id, viewpoint_id = reader.unpack("<II", field)
            entries.append(DbEntry(model_id, class_id, viewpoint_id, reader.floats(dim, field)))
        reader.finish()
    try:
        return DescriptorDb(entries=entries)
    except ViewretError as exc:
        raise ViewretError(f"{path}: {exc}") from None


# --- sidecar metadata and tables ----------------------------------------------

def write_scan_metadata(scan, path):
    cfg = scan.config
    gt = scan.ground_truth_viewpoint
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ground_truth_viewpoint={gt[0]:.17g} {gt[1]:.17g} {gt[2]:.17g}\n")
        fh.write(f"position={cfg.position[0]:.17g} {cfg.position[1]:.17g} {cfg.position[2]:.17g}\n")
        fh.write(f"target={cfg.target[0]:.17g} {cfg.target[1]:.17g} {cfg.target[2]:.17g}\n")
        fh.write(f"fov_deg={cfg.fov_deg:.17g}\n")
        fh.write(f"angular_step_deg={cfg.angular_step_deg:.17g}\n")
        fh.write(f"max_range={cfg.max_range:.17g}\n")
        fh.write(f"noise_sigma={cfg.noise_sigma:.17g}\n")
        fh.write(f"seed={cfg.seed}\n")


def write_score_grid_csv(grid, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("viewpoint_index,resolution,Q,D\n")
        for i in range(len(grid.viewpoints)):
            for j, res in enumerate(grid.resolutions):
                q, d = float(grid.quantity[i, j]), float(grid.density[i, j])
                fh.write(f"{i},{res},{q!r},{d!r}\n")


def load_manifest(path) -> list:
    """Model list: one `model_id class_id path` per line; `#` starts a comment.

    Geometry files resolve relative to the manifest and load with
    `load_geometry`. Class ids must lie in [0, 2**32) and model
    ids fit in 65535 UTF-8 bytes, the ranges a descriptor database stores.
    Model ids must be unique and at least one model listed. Every error,
    including a geometry file that cannot be read and a byte that is not
    UTF-8, names the manifest's ``path:line``.
    """
    base = os.path.dirname(os.path.abspath(path))
    models = []
    first_line = {}
    line_no = 1
    for line_no, line in text_lines(path):
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 3:
                raise ViewretError("expected `model_id class_id path`")
            model_id, class_text, rel = parts
            try:
                class_id = int(class_text)
            except ValueError:
                raise ViewretError(f"class id {class_text!r} is not an integer") from None
            check_model(model_id, class_id)
            if model_id in first_line:
                raise ViewretError(f"model id {model_id!r} repeats line {first_line[model_id]}")
            first_line[model_id] = line_no
            full = rel if os.path.isabs(rel) else os.path.join(base, rel)
            models.append((model_id, class_id, load_geometry(full)))
        except (OSError, ValueError) as exc:
            raise ViewretError(f"{path}:{line_no}: {exc}") from None
    if not models:
        raise ViewretError(f"{path}:{line_no}: no model listed before the end of the file")
    return models
