"""File formats: XYZ/OBJ geometry, PGM images (written only), binary feature/GMM/DB dumps.

All binary layouts are little-endian with 32-bit IEEE floats.
"""

import os
import re
import struct

import numpy as np

from .encode import DbEntry, DescriptorDb, GmmParams
from .errors import CorruptFile
from .features import DESCRIPTOR_SIZE
from .geometry import TriangleMesh

FEATURES_MAGIC = b"SFT1"
GMM_MAGIC = b"GMM1"
DB_MAGIC = b"FVDB"
DB_VERSION = 1
# the widths of an FVDB entry's "<H" model-id length and "<I" class and viewpoint ids
MAX_MODEL_ID_BYTES = 0xFFFF
MAX_CLASS_ID = 0xFFFFFFFF


# --- text geometry -----------------------------------------------------------

# the characters str.split() splits on, all below U+3001; the last entry
# stands for every higher code point
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[c for c in range(0x3001) if chr(c).isspace()]] = True


def load_xyz(path) -> np.ndarray:
    """Read one `x y z` triple per line; `#` starts a comment.

    The whole file is parsed at once: the tokens are ``str.split()``'s, each
    converted by ``float()``, and numpy counts them per line to check the
    layout. Coordinates must be finite, so ``nan``, ``inf`` and overflowing
    tokens such as ``1e400`` are refused. The first bad line, in file order,
    is reported as ``path:line``; within one line, a wrong count comes before
    an unparseable token, and that before a non-finite value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        space = _SPACE[chars]
    else:
        chars = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        space = _SPACE[np.minimum(chars, len(_SPACE) - 1)]
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    token_line = np.searchsorted(np.flatnonzero(chars == ord("\n")), starts)  # 0-based
    counts = np.bincount(token_line)
    bad = np.flatnonzero((counts != 0) & (counts != 3))
    tokens = text.split()
    # only the tokens before the first badly laid-out line can fail first
    end = int(np.searchsorted(token_line, bad[0])) if len(bad) else len(tokens)
    error = None
    if len(bad):
        error = f"{path}:{bad[0] + 1}: expected 3 coordinates, got {counts[bad[0]]}"
    try:
        values = np.fromiter(map(float, tokens[:end]), dtype=np.float64, count=end)
    except ValueError:
        parsed = []
        for token in tokens[:end]:
            try:
                parsed.append(float(token))
            except ValueError as exc:
                line = token_line[len(parsed)]
                error = f"{path}:{line + 1}: {exc}"
                break
        else:
            raise
        # a line's parse error comes before its own non-finite values
        values = np.asarray(parsed[:np.searchsorted(token_line, line)], dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{path}:{token_line[i] + 1}: coordinate {tokens[i]!r} is not finite")
    if error:
        raise ValueError(error)
    return values.reshape(-1, 3)


def save_xyz(points, path):
    with open(path, "w", encoding="utf-8") as fh:
        for x, y, z in np.asarray(points, dtype=np.float64):
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def load_obj(path) -> TriangleMesh:
    """Read the `v`/`f` subset of OBJ; faces must be triangles."""
    vertices = []
    faces = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{line_no}: vertex needs 3 coordinates")
                vertices.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ValueError(f"{path}:{line_no}: only triangulated faces are supported")
                idx = []
                for token in parts[1:]:
                    i = int(token.split("/", 1)[0])
                    if i < 1:
                        raise ValueError(f"{path}:{line_no}: face indices must be positive")
                    idx.append(i - 1)
                faces.append(idx)
    return TriangleMesh(np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
                        np.asarray(faces, dtype=np.int64).reshape(-1, 3))


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
    """Reads the fields of an open binary file, raising `CorruptFile` on a short read.

    Sizes are checked against the bytes left before reading, so a corrupt
    count never becomes a huge allocation; `finish` rejects leftover bytes.
    """

    def __init__(self, fh, path, magic: bytes):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        if self.take(len(magic), "magic") != magic:
            raise CorruptFile(f"{path}: bad magic, not a {magic.decode()} file")

    def take(self, size: int, field: str) -> bytes:
        if size > self.size - self.pos:
            raise CorruptFile(f"{self.path}: truncated in {field}: needs {size} bytes at offset "
                              f"{self.pos}, file has {self.size}")
        self.pos += size
        return self.fh.read(size)

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def floats(self, count: int, field: str) -> np.ndarray:
        return np.frombuffer(self.take(4 * count, field), dtype="<f4")

    def finish(self):
        if self.pos != self.size:
            raise CorruptFile(f"{self.path}: {self.size - self.pos} unexpected bytes "
                              f"after offset {self.pos}")


def write_features(features, path):
    """Write SFT1; a non-finite row, as stored in float32, is refused before the file is opened."""
    feats = np.asarray(features, dtype=np.float32).reshape(-1, DESCRIPTOR_SIZE)
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise ValueError(f"feature row {int(np.argmax(bad))} holds a non-finite value")
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<I", len(feats)))
        fh.write(feats.astype("<f4").tobytes())


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        reader = _BinaryReader(fh, path, FEATURES_MAGIC)
        (count,) = reader.unpack("<I", "header")
        data = reader.floats(count * DESCRIPTOR_SIZE, "features").reshape(count, DESCRIPTOR_SIZE)
        reader.finish()
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise CorruptFile(f"{path}: feature row {int(np.argmax(bad))} holds a non-finite value")
    return data.copy()


def write_gmm(gmm: GmmParams, path):
    with open(path, "wb") as fh:
        fh.write(GMM_MAGIC)
        fh.write(struct.pack("<II", gmm.n_components, gmm.dim))
        fh.write(gmm.weights.astype("<f4").tobytes())
        fh.write(gmm.means.astype("<f4").tobytes())
        fh.write(gmm.sigmas.astype("<f4").tobytes())


def read_gmm(path) -> GmmParams:
    """Read a mixture; rejects empty shapes, non-finite values, non-positive weights or sigmas."""
    with open(path, "rb") as fh:
        reader = _BinaryReader(fh, path, GMM_MAGIC)
        k, d = reader.unpack("<II", "header")
        if k < 1 or d < 1:
            raise CorruptFile(f"{path}: mixture shape K={k}, D={d} is empty")
        weights = reader.floats(k, "weights").astype(np.float64)
        means = reader.floats(k * d, "means").astype(np.float64).reshape(k, d)
        sigmas = reader.floats(k * d, "sigmas").astype(np.float64).reshape(k, d)
        reader.finish()
    for name, values in (("weights", weights), ("sigmas", sigmas)):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise CorruptFile(f"{path}: mixture {name} must be finite and positive")
    if not np.all(np.isfinite(means)):
        raise CorruptFile(f"{path}: mixture means must be finite")
    return GmmParams(weights=weights, means=means, sigmas=sigmas)


def write_descriptor_db(db: DescriptorDb, path):
    """Write FVDB; every entry is checked before the file is opened, so none is left partial."""
    if not db.entries:
        raise ValueError("refusing to write an empty descriptor database")
    lengths = {np.size(entry.descriptor) for entry in db.entries}
    dim = lengths.pop()
    if lengths or dim == 0 or dim % (2 * DESCRIPTOR_SIZE):
        raise ValueError(f"descriptors must share one length, a positive multiple of "
                         f"{2 * DESCRIPTOR_SIZE}")
    heads = []
    for index, entry in enumerate(db.entries):
        name = entry.model_id.encode("utf-8")
        if len(name) > MAX_MODEL_ID_BYTES:
            raise ValueError(f"entry {index}: model id is longer than {MAX_MODEL_ID_BYTES} UTF-8 bytes")
        for what, value in (("class", entry.class_id), ("viewpoint", entry.viewpoint_id)):
            if not 0 <= value <= MAX_CLASS_ID:
                raise ValueError(f"entry {index}: {what} id {value} is outside [0, {MAX_CLASS_ID}]")
        if not np.all(np.isfinite(entry.descriptor)):
            raise ValueError(f"entry {index}: descriptor holds a non-finite value")
        heads.append(struct.pack("<H", len(name)) + name
                     + struct.pack("<II", entry.class_id, entry.viewpoint_id))
    with open(path, "wb") as fh:
        fh.write(DB_MAGIC)
        fh.write(struct.pack("<IIII", DB_VERSION, dim // (2 * DESCRIPTOR_SIZE), DESCRIPTOR_SIZE,
                             len(db.entries)))
        for head, entry in zip(heads, db.entries):
            fh.write(head)
            fh.write(np.asarray(entry.descriptor, dtype="<f4").tobytes())


def read_descriptor_db(path) -> DescriptorDb:
    with open(path, "rb") as fh:
        reader = _BinaryReader(fh, path, DB_MAGIC)
        version, k, d, count = reader.unpack("<IIII", "header")
        if version != DB_VERSION:
            raise CorruptFile(f"{path}: unsupported database version {version}")
        dim = 2 * d * k
        entries = []
        for index in range(count):
            field = f"entry {index}"
            (name_len,) = reader.unpack("<H", field)
            try:
                model_id = reader.take(name_len, field).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptFile(f"{path}: {field} model id is not UTF-8") from exc
            class_id, viewpoint_id = reader.unpack("<II", field)
            desc = reader.floats(dim, field).copy()
            if not np.all(np.isfinite(desc)):
                raise CorruptFile(f"{path}: {field} descriptor holds a non-finite value")
            entries.append(DbEntry(model_id, class_id, viewpoint_id, desc))
        reader.finish()
    return DescriptorDb(entries=entries)


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


def write_score_grid_csv(grid, fh):
    fh.write("viewpoint_index,resolution,Q,D\n")
    for i in range(len(grid.viewpoints)):
        for j, res in enumerate(grid.resolutions):
            fh.write(f"{i},{res},{float(grid.quantity[i, j])!r},{float(grid.density[i, j])!r}\n")


def load_manifest(path) -> list:
    """Model list: one `model_id class_id path` per line; `#` comments.

    Geometry files resolve relative to the manifest and load with
    `load_geometry`. Class ids must lie in [0, 2**32) and model
    ids fit in 65535 UTF-8 bytes, the ranges a descriptor database stores.
    """
    base = os.path.dirname(os.path.abspath(path))
    models = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected `model_id class_id path`")
            model_id, class_text, rel = parts
            try:
                class_id = int(class_text)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: class id {class_text!r} is not an integer") from None
            if not 0 <= class_id <= MAX_CLASS_ID:
                raise ValueError(f"{path}:{line_no}: class id {class_id} is outside [0, {MAX_CLASS_ID}]")
            if len(model_id.encode("utf-8")) > MAX_MODEL_ID_BYTES:
                raise ValueError(f"{path}:{line_no}: model id is longer than "
                                 f"{MAX_MODEL_ID_BYTES} UTF-8 bytes")
            full = rel if os.path.isabs(rel) else os.path.join(base, rel)
            models.append((model_id, class_id, load_geometry(full)))
    return models
