"""File formats: XYZ/OBJ geometry, PGM/PBM images, binary feature/GMM/DB dumps.

All binary layouts are little-endian with 32-bit IEEE floats.
"""

import os
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
# the widths of an FVDB entry's "<H" model-id length and "<I" class id
MAX_MODEL_ID_BYTES = 0xFFFF
MAX_CLASS_ID = 0xFFFFFFFF


# --- text geometry -----------------------------------------------------------

def load_xyz(path) -> np.ndarray:
    """Read one `x y z` triple per line; `#` starts a comment."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 coordinates, got {len(parts)}")
            points.append([float(p) for p in parts])
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


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


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = []
    pos = 0
    while len(header) < 4:
        end = data.index(b"\n", pos)
        header.extend(data[pos:end].split())
        pos = end + 1
    if header[0] != b"P5" or int(header[3]) != 255:
        raise ValueError(f"{path}: not a maxval-255 binary PGM")
    w, h = int(header[1]), int(header[2])
    return np.frombuffer(data[pos:pos + w * h], dtype=np.uint8).reshape(h, w).copy()


def write_pbm(binary, path):
    """Binary PBM (P4); foreground pixels become set bits."""
    arr = (np.asarray(binary) > 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{arr.shape[1]} {arr.shape[0]}\n".encode("ascii"))
        fh.write(np.packbits(arr, axis=1).tobytes())


def read_pbm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = []
    pos = 0
    while len(header) < 3:
        end = data.index(b"\n", pos)
        header.extend(data[pos:end].split())
        pos = end + 1
    if header[0] != b"P4":
        raise ValueError(f"{path}: not a binary PBM")
    w, h = int(header[1]), int(header[2])
    row_bytes = (w + 7) // 8
    packed = np.frombuffer(data[pos:pos + h * row_bytes], dtype=np.uint8).reshape(h, row_bytes)
    return np.unpackbits(packed, axis=1)[:, :w].copy()


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
    feats = np.asarray(features, dtype=np.float32).reshape(-1, DESCRIPTOR_SIZE)
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<I", len(feats)))
        fh.write(feats.astype("<f4").tobytes())


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        reader = _BinaryReader(fh, path, FEATURES_MAGIC)
        (count,) = reader.unpack("<I", "header")
        data = reader.floats(count * DESCRIPTOR_SIZE, "features")
        reader.finish()
    return data.reshape(count, DESCRIPTOR_SIZE).astype(np.float64)


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
    if not db.entries:
        raise ValueError("refusing to write an empty descriptor database")
    dim = db.entries[0].descriptor.shape[0]
    k = dim // (2 * DESCRIPTOR_SIZE)
    with open(path, "wb") as fh:
        fh.write(DB_MAGIC)
        fh.write(struct.pack("<IIII", DB_VERSION, k, DESCRIPTOR_SIZE, len(db.entries)))
        for entry in db.entries:
            name = entry.model_id.encode("utf-8")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<II", entry.class_id, entry.viewpoint_id))
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


def read_scan_metadata(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    if "ground_truth_viewpoint" in out:
        out["ground_truth_viewpoint"] = np.asarray(
            [float(v) for v in out["ground_truth_viewpoint"].split()])
    return out


def write_score_grid_csv(grid, fh):
    fh.write("viewpoint_index,resolution,Q,D\n")
    for i in range(len(grid.viewpoints)):
        for j, res in enumerate(grid.resolutions):
            fh.write(f"{i},{res},{float(grid.quantity[i, j])!r},{float(grid.density[i, j])!r}\n")


def load_manifest(path) -> list:
    """Model list: one `model_id class_id path` per line; `#` comments.

    Geometry files resolve relative to the manifest. `.obj` loads as a mesh,
    anything else as an XYZ cloud. Class ids must lie in [0, 2**32) and model
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
            geometry = load_obj(full) if full.lower().endswith(".obj") else load_xyz(full)
            models.append((model_id, class_id, geometry))
    return models
