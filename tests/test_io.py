import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from oracles import fvdb_bytes, gmm_bytes, read_pgm, read_scan_metadata
from viewret import io as vio
from viewret.encode import DbEntry, DescriptorDb, GmmParams
from viewret.errors import ViewretError
from viewret.geometry import TriangleMesh
from viewret.scansim import ScannerConfig, simulate_scan
from viewret.select import ScoreGrid


class TestXyz:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        pts = rng.normal(size=(40, 3))
        path = tmp_path / "cloud.xyz"
        vio.save_xyz(pts, path)
        np.testing.assert_array_equal(vio.load_xyz(path), pts)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# header\n1 2 3\n\n4 5 6  # trailing\n")
        np.testing.assert_array_equal(vio.load_xyz(path), [[1, 2, 3], [4, 5, 6]])

    def test_bad_line(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            vio.load_xyz(path)


def load_xyz_oracle(path):
    """The line-by-line reader load_xyz replaced; a token that fails to parse or is not finite
    reports its line."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 3 coordinates, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            for token, value in zip(parts, row):
                if not np.isfinite(value):
                    raise ValueError(f"{path}:{line_no}: coordinate {token!r} is not finite")
            points.append(row)
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


GOOD_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-0", "+.5", "5.", "1_0", "\u0661\u0662", "2.4703282292062328e-324"]))
BAD_TOKENS = st.sampled_from(["abc", "1.5e", "--1", "0x10", "1,5", "_1", "\ufeff1", "nan!"])
# tokens float() parses to NaN or an infinity
NON_FINITE_TOKENS = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "+nan", "1e400",
                                     "-1e400"])
# str.split() whitespace; \x0b, \x0c, \x1c, \x85 and \u2028 end no line of a text file
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
                              "\u3000"])


@st.composite
def xyz_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "row", "bad-token", "non-finite",
                                 "count", "blank", "comment"]))
    if kind in ("blank", "comment"):
        tokens = []
    else:
        count = draw(st.integers(0, 5)) if kind == "count" else 3
        tokens = draw(st.lists(GOOD_TOKENS, min_size=count, max_size=count))
        if kind == "bad-token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(BAD_TOKENS)
        # a line already at fault may hold a non-finite token too, which must not win
        if tokens and (kind == "non-finite" or (kind != "row" and draw(st.booleans()))):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(NON_FINITE_TOKENS)
    line = draw(st.sampled_from(["", " ", "\t"]))
    for i, token in enumerate(tokens):
        line += (draw(SEPARATORS) if i else "") + token
    line += draw(st.sampled_from(["", " ", "\xa0"]))
    if kind == "comment" or draw(st.booleans()):
        line += "#" + draw(st.sampled_from(["", " 1 2 3", "#", " x # y", " \u2028 4"]))
    return line


@st.composite
def xyz_files(draw):
    lines = draw(st.lists(xyz_lines(), max_size=8))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    if text and draw(st.booleans()):
        text = text[:-1] if not text.endswith("\r\n") else text[:-2]
    return text


class TestXyzAgainstLineReader:
    @settings(derandomize=True, deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(xyz_files())
    def test_values_and_errors_match(self, tmp_path, text):
        path = tmp_path / "cloud.xyz"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = load_xyz_oracle(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                vio.load_xyz(path)
            assert str(got.value) == str(exc)
            return
        got = vio.load_xyz(path)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "  \t\n# a\n\r\n"])
    def test_files_without_points(self, tmp_path, text):
        path = tmp_path / "cloud.xyz"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # numpy warns of a file without data
            got = vio.load_xyz(path)
        assert got.shape == (0, 3) and got.dtype == np.float64

    def test_bad_token_reports_its_line(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("1 2 3\n# 1 2\n4 five 6\n7 8\n")
        with pytest.raises(ValueError, match=r"cloud\.xyz:3: could not convert string to float"):
            vio.load_xyz(path)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("1 2 3\n4 5\n7 eight 9\n")
        with pytest.raises(ValueError, match=r"cloud\.xyz:2: expected 3 coordinates, got 2"):
            vio.load_xyz(path)

    # more lines than numpy's `_loadtxt_chunksize` (50,000), with the odd line past that many
    LONG_FILE_LINES = 50_100
    LATE_LINE = 50_050

    def _long_file(self, tmp_path, late_line):
        lines = [f"{i}.25 {-i} {i}e-3\n" for i in range(self.LONG_FILE_LINES)]
        lines[self.LATE_LINE - 1] = late_line
        path = tmp_path / "cloud.xyz"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    def test_wrong_count_past_the_chunk_size_reports_its_line(self, tmp_path):
        path = self._long_file(tmp_path, "1 2\n")
        with pytest.raises(ValueError, match=rf"cloud\.xyz:{self.LATE_LINE}: expected 3 "
                                             r"coordinates, got 2$"):
            vio.load_xyz(path)

    def test_ideographic_space_past_the_chunk_size_loads_as_the_line_reader(self, tmp_path):
        path = self._long_file(tmp_path, "1\u30002 3\n")
        got = vio.load_xyz(path)
        want = load_xyz_oracle(path)
        assert got.dtype == np.float64 and got.shape == (self.LONG_FILE_LINES, 3)
        assert got.tobytes() == want.tobytes()


class TestTextLines:
    def test_every_line_numbered_as_text_mode_with_its_comment_cut(self, tmp_path):
        path = tmp_path / "any.txt"
        path.write_bytes(b"a # b\r\n\n  # c\r  d e\t\n#")
        assert list(vio.text_lines(path)) == [(1, "a"), (2, ""), (3, ""), (4, "d e"), (5, "")]


class TestNotUtf8:
    def test_xyz_names_the_line(self, tmp_path):
        path = tmp_path / "latin.xyz"
        path.write_bytes(b"1 2 3\n4 5 \xff\n")
        with pytest.raises(ValueError, match=r"latin\.xyz:2: byte 0xff is not UTF-8$"):
            vio.load_xyz(path)

    def test_obj_names_the_line_as_text_mode_counts_it(self, tmp_path):
        path = tmp_path / "latin.obj"
        path.write_bytes(b"v 0 0 0\r\nv 1 0 0\rv 0 1 0 # caf\xe9\nf 1 2 3\n")
        with pytest.raises(ValueError, match=r"latin\.obj:3: byte 0xe9 is not UTF-8$"):
            vio.load_obj(path)

    def test_manifest_names_its_own_line_and_the_geometry_file_line(self, tmp_path):
        vio.save_xyz(np.random.default_rng(62).normal(size=(10, 3)), tmp_path / "m.xyz")
        (tmp_path / "latin.xyz").write_bytes(b"1 2 3\n\xc3\n")
        manifest = tmp_path / "models.txt"
        manifest.write_bytes(b"ok 0 m.xyz\nbad 1 latin.xyz\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: ") + r".*latin\.xyz:2: "
                                             r"byte 0xc3 is not UTF-8$"):
            vio.load_manifest(manifest)
        manifest.write_bytes(b"ok 0 m.xyz\n# se\xf1or\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: byte 0xf1 is not UTF-8")):
            vio.load_manifest(manifest)


class TestObj:
    def test_round_trip(self, tmp_path):
        mesh = TriangleMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                            np.array([[0, 1, 2]]))
        path = tmp_path / "tri.obj"
        vio.save_obj(mesh, path)
        loaded = vio.load_obj(path)
        np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
        np.testing.assert_array_equal(loaded.triangles, mesh.triangles)

    def test_face_suffixes_ignored(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1/1/1 2/2/1 3/3/1\n")
        loaded = vio.load_obj(path)
        np.testing.assert_array_equal(loaded.triangles, [[0, 1, 2]])

    def test_face_past_the_vertices_names_the_file(self, tmp_path):
        path = tmp_path / "short.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nf 1 2 3\n")
        with pytest.raises(ValueError, match=r"short\.obj: triangle index out of range"):
            vio.load_obj(path)

    def test_hash_after_the_first_token_starts_a_comment(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("v 0 0 0  # origin\nv 1 0 0#x\nv 0 1 0\nf 1 2 3 # tri\n")
        mesh = vio.load_obj(path)
        np.testing.assert_array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])

    def test_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(ValueError):
            vio.load_obj(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_vertex_names_its_line(self, tmp_path, token):
        path = tmp_path / "tri.obj"
        path.write_text(f"# tri\nv 0 0 0\nv 1 {token} 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(ValueError, match=rf"tri\.obj:3: coordinate '{token}' is not finite"):
            vio.load_obj(path)

    @pytest.mark.parametrize("line, message", [
        ("v 0 zero 0", "could not convert string to float: 'zero'"),
        ("v 0 0", "vertex needs 3 coordinates"),
        ("f 1 2 x", "invalid literal for int"),
        ("f 1 0 2", "face indices must be positive")])
    def test_bad_line_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "tri.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\n")
        with pytest.raises(ValueError, match=rf"tri\.obj:4: {message}"):
            vio.load_obj(path)


class TestImages:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        vio.write_pgm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        np.testing.assert_array_equal(read_pgm(path), img)


class TestBinaryDumps:
    def test_gmm_round_trip(self, tmp_path):
        rng = np.random.default_rng(54)
        gmm = GmmParams(weights=np.array([0.25, 0.75]),
                        means=rng.normal(size=(2, 128)),
                        sigmas=rng.uniform(0.1, 1.0, size=(2, 128)))
        path = tmp_path / "mixture.bin"
        vio.write_gmm(gmm, path)
        assert path.read_bytes()[:4] == b"GMM1"
        loaded = vio.read_gmm(path)
        assert loaded.n_components == 2 and loaded.dim == 128
        np.testing.assert_allclose(loaded.weights, gmm.weights, atol=1e-7)
        np.testing.assert_allclose(loaded.means, gmm.means, atol=1e-5)

    def test_db_round_trip(self, tmp_path):
        rng = np.random.default_rng(55)
        dim = 2 * 128 * 2
        entries = [DbEntry(f"model-{i}", i % 3, i % 20, rng.normal(size=dim).astype(np.float32))
                   for i in range(5)]
        path = tmp_path / "db.fvdb"
        vio.write_descriptor_db(DescriptorDb(entries=entries), path)
        assert path.read_bytes()[:4] == b"FVDB"
        loaded = vio.read_descriptor_db(path)
        assert len(loaded.entries) == 5
        for a, b in zip(loaded.entries, entries):
            assert a.model_id == b.model_id
            assert a.class_id == b.class_id
            assert a.viewpoint_id == b.viewpoint_id
            np.testing.assert_array_equal(a.descriptor, b.descriptor)

    @pytest.mark.parametrize("second, message", [
        (dict(class_id=-1), "entry 1: class id -1 is outside"),
        (dict(class_id=2 ** 32), "entry 1: class id 4294967296 is outside"),
        (dict(viewpoint_id=-1), "entry 1: viewpoint id -1 is outside"),
        (dict(viewpoint_id=2 ** 32), "entry 1: viewpoint id 4294967296 is outside"),
        (dict(model_id="é" * 32768), "entry 1: model id is longer than 65535 UTF-8 bytes"),
        (dict(descriptor=np.ones(2 * 128 * 3, dtype=np.float32)), "entry 1: .*share one length"),
        (dict(descriptor=np.ones((2, 2 * 128), dtype=np.float32)), "entry 1: .*1-D real arrays"),
        (dict(descriptor=[1.0] * 2 * 128 * 2), "entry 1: .*1-D real arrays"),
        (dict(descriptor=np.ones(2 * 128 * 2, dtype=np.complex64)), "entry 1: .*1-D real arrays"),
        (dict(descriptor=np.full(2 * 128 * 2, np.nan, dtype=np.float32)),
         "entry 1: descriptor is not finite and non-zero in float32"),
        (dict(descriptor=np.r_[np.ones(2 * 128 * 2 - 1), np.inf].astype(np.float32)),
         "entry 1: descriptor is not finite and non-zero in float32"),
        (dict(descriptor=np.zeros(2 * 128 * 2, dtype=np.float32)),
         "entry 1: descriptor is not finite and non-zero in float32"),
        (dict(model_id=""), "entry 1: model id is empty or holds whitespace"),
        (dict(model_id="two words"), "entry 1: model id is empty or holds whitespace"),
        (dict(model_id="m\nthird"), "entry 1: model id is empty or holds whitespace"),
    ])
    def test_unstorable_entry_raises_before_writing(self, second, message):
        """`DescriptorDb` refuses it where it is built, so there is nothing to write."""
        first = DbEntry("ok", 0, 0, np.ones(2 * 128 * 2, dtype=np.float32))
        fields = dict(model_id="m", class_id=1, viewpoint_id=1, descriptor=first.descriptor)
        with pytest.raises(ViewretError, match=message):
            DescriptorDb(entries=[first, DbEntry(**{**fields, **second})])
        assert first.descriptor.flags.writeable

    @pytest.mark.parametrize("dim", [0, 100, 2 * 128 + 1])
    def test_descriptor_length_must_be_a_positive_multiple_of_256(self, dim):
        entries = [DbEntry(f"m{i}", 0, i, np.ones(dim, dtype=np.float32)) for i in range(2)]
        with pytest.raises(ViewretError, match="entry 0: .*positive multiple of 256"):
            DescriptorDb(entries=entries)

    def test_empty_database_is_refused_where_it_is_built(self, tmp_path):
        with pytest.raises(ViewretError, match="^descriptor database is empty$"):
            DescriptorDb(entries=[])
        path = tmp_path / "empty.fvdb"
        path.write_bytes(fvdb_bytes(1, 128, []))
        with pytest.raises(ViewretError, match=re.escape(f"{path}: descriptor database is empty")):
            vio.read_descriptor_db(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            vio.read_gmm(path)
        with pytest.raises(ValueError):
            vio.read_descriptor_db(path)


def write_small_binaries(tmp_path):
    """One valid mixture and descriptor db; returns path -> (reader, header size)."""
    rng = np.random.default_rng(57)
    gmm = tmp_path / "mixture.gmm"
    vio.write_gmm(GmmParams(weights=np.array([0.5, 0.5]), means=rng.normal(size=(2, 128)),
                            sigmas=rng.uniform(0.1, 1.0, size=(2, 128))), gmm)
    db = tmp_path / "models.fvdb"
    entries = [DbEntry(f"model-{i}", i, i, rng.normal(size=2 * 128 * 2).astype(np.float32))
               for i in range(2)]
    vio.write_descriptor_db(DescriptorDb(entries=entries), db)
    return {gmm: (vio.read_gmm, 12), db: (vio.read_descriptor_db, 20)}


class TestCorruptBinaries:
    def test_truncation_in_header_and_body_raises(self, tmp_path):
        for path, (reader, header) in write_small_binaries(tmp_path).items():
            data = path.read_bytes()
            reader(path)
            # inside the magic, inside the header, one byte into the body,
            # and one byte short of the end
            for cut in (2, header - 1, header + 1, len(data) - 1):
                path.write_bytes(data[:cut])
                with pytest.raises(ViewretError, match=re.escape(f"{path}: truncated in ")):
                    reader(path)
            path.write_bytes(data)

    def test_trailing_bytes_raise(self, tmp_path):
        for path, (reader, _) in write_small_binaries(tmp_path).items():
            path.write_bytes(path.read_bytes() + b"\0" * 4)
            with pytest.raises(ViewretError, match=re.escape(f"{path}: 4 unexpected bytes")):
                reader(path)

    def test_huge_count_fails_before_allocating(self, tmp_path):
        """K·D = (2**32 - 1)**2 floats: refused by size, before any array is made."""
        huge = struct.pack("<I", 2 ** 32 - 1)
        gmm = tmp_path / "mixture.gmm"
        gmm.write_bytes(b"GMM1" + huge * 2 + b"\0" * 64)
        # a version-1 header, then one entry head with an empty model id
        db = tmp_path / "models.fvdb"
        db.write_bytes(b"FVDB" + struct.pack("<I", 1) + huge * 3 + b"\0" * 10 + b"\0" * 64)
        for path, reader, field in ((gmm, vio.read_gmm, "weights"),
                                    (db, vio.read_descriptor_db, "entry 0")):
            with pytest.raises(ViewretError, match=f"truncated in {field}: needs"):
                reader(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_and_descriptors_raise(self, tmp_path, value):
        db = tmp_path / "models.fvdb"
        vio.write_descriptor_db(DescriptorDb(entries=[
            DbEntry(f"m{i}", 0, i, np.ones(2 * 128, dtype=np.float32)) for i in range(3)]), db)
        data = bytearray(db.read_bytes())
        # the last float of entry 1: each entry is a 2 + 2 + 8 byte head and 256 floats
        end = 20 + 2 * (12 + 4 * 256)
        data[end - 4:end] = np.float32(value).tobytes()
        db.write_bytes(bytes(data))
        message = f"{db}: entry 1: descriptor is not finite and non-zero in float32"
        with pytest.raises(ViewretError, match=re.escape(message)):
            vio.read_descriptor_db(db)

    @pytest.mark.parametrize("name", [b"", b"two words", b"m\nthird 0.0", b"tab\t",
                                      "\u2028".encode()])
    def test_model_id_query_cannot_print_on_one_line_is_refused(self, tmp_path, name):
        path = tmp_path / "models.fvdb"
        entries = [(b"ok", 0, 0, np.ones(256)), (name, 1, 1, np.ones(256))]
        path.write_bytes(fvdb_bytes(1, 128, entries))
        with pytest.raises(ViewretError, match=re.escape(f"{path}: entry 1: model id is empty or "
                                                         f"holds whitespace")):
            vio.read_descriptor_db(path)

    @pytest.mark.parametrize("field,value", [("sigmas", -1.0), ("sigmas", 0.0),
                                             ("sigmas", np.nan), ("weights", 0.0),
                                             ("weights", np.inf), ("means", np.nan)])
    def test_gmm_rejects_invalid_values(self, tmp_path, field, value):
        params = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 4)),
                  "sigmas": np.ones((2, 4))}
        params[field] = params[field].copy()
        params[field].flat[1] = value
        path = tmp_path / "mixture.gmm"
        path.write_bytes(gmm_bytes(**params))
        with pytest.raises(ViewretError, match=re.escape(f"{path}: mixture {field} must be finite")):
            vio.read_gmm(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, at", [("weights", 0), ("means", 2 + 5), ("sigmas", 2 + 8 + 3)])
    def test_gmm_signalling_nan_is_refused_without_a_warning(self, tmp_path, field, at):
        path = tmp_path / "mixture.gmm"
        vio.write_gmm(GmmParams(np.array([0.5, 0.5]), np.zeros((2, 4)), np.ones((2, 4))), path)
        data = bytearray(path.read_bytes())
        # float `at` after the 12-byte header: a signalling NaN, which a cast to float64 flags
        data[12 + 4 * at:16 + 4 * at] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(data))
        with pytest.raises(ViewretError, match=f"mixture {field} must be finite"):
            vio.read_gmm(path)


# float values that float32 holds, extremes included, and values it does not: beyond its
# range (1e39), below its smallest subnormal (1e-50), and non-finite
STORABLE_VALUES = st.one_of(st.floats(-10.0, 10.0, width=32),
                            st.sampled_from([-0.0, 3.4e38, -3.4e38, 1e-40, 1e-45]))
UNSTORABLE_VALUES = st.sampled_from([1e39, -1e39, 1e-50, np.nan, np.inf, -np.inf])


@st.composite
def db_entries(draw):
    """1-3 entries, each with one fault that FVDB cannot store one time in eight."""
    dim = draw(st.sampled_from([256, 512]))
    entries = []
    for index in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(["model id", "class id", "viewpoint id", "length", "value",
                                      "zero"])) if draw(st.integers(0, 7)) == 0 else None
        model_id = draw(st.sampled_from(["", "a b", "t\t", "é" * 32768] if fault == "model id"
                                        else [f"m{index}", "é" * 3, "é" * 32767 + "a"]))
        class_id = draw(st.one_of(st.integers(0, 3), st.just(2 ** 32 - 1))
                        if fault != "class id" else st.sampled_from([2 ** 32, -1]))
        viewpoint_id = draw(st.one_of(st.integers(0, 19), st.just(2 ** 32 - 1))
                            if fault != "viewpoint id" else st.sampled_from([2 ** 32, -1]))
        length = dim if fault != "length" else draw(st.sampled_from([dim // 2 * 3, 300, 0]))
        descriptor = np.ones(length, dtype=draw(st.sampled_from([np.float32, np.float64])))
        for _ in range(draw(st.integers(0, 3)) if length else 0):
            with np.errstate(over="ignore"):
                descriptor[draw(st.integers(0, length - 1))] = draw(STORABLE_VALUES)
        if fault == "value":
            with np.errstate(over="ignore"):
                descriptor[draw(st.integers(0, length - 1))] = draw(UNSTORABLE_VALUES)
        if fault == "zero":
            descriptor[:] = draw(st.sampled_from([0.0, -0.0, 1e-50]))
        entries.append(DbEntry(model_id, class_id, viewpoint_id, descriptor))
    return entries


@st.composite
def mixtures(draw):
    """(weights, means, sigmas) of K = 1-3 and D = 1-4 in float32 or float64, each with a
    fault one time in four: a mismatched shape, or a value GMM1 cannot store."""
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    positive = st.one_of(st.floats(0.125, 10.0, width=32), st.sampled_from([3.4e38, 1e-40]))
    arrays = []
    for shape, elements in (((k,), positive), ((k, d), STORABLE_VALUES), ((k, d), positive)):
        fault = draw(st.sampled_from(["shape", "value"])) if draw(st.integers(0, 3)) == 0 else None
        if fault == "shape":
            shape = (shape[0] + 1,) + shape[1:]
        values = np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))).reshape(shape)
        if fault == "value":
            values.flat[draw(st.integers(0, values.size - 1))] = draw(st.one_of(
                UNSTORABLE_VALUES, st.sampled_from([0.0, -1.0])))
        with np.errstate(over="ignore"):
            arrays.append(values.astype(dtype))
    return arrays


class TestWritersWriteWhatTheirReadersRead:
    """No writer writes a file its reader refuses, and a refusal comes before the file is made."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(db_entries())
    def test_every_database_that_constructs_round_trips_byte_for_byte(self, tmp_path, entries):
        path, again = tmp_path / "db.fvdb", tmp_path / "again.fvdb"
        for p in (path, again):
            p.unlink(missing_ok=True)
        try:
            db = DescriptorDb(entries=entries)
        except ViewretError:
            event("refused where built")
            assert not path.exists()
            return
        vio.write_descriptor_db(db, path)
        loaded = vio.read_descriptor_db(path)
        assert [(e.model_id, e.class_id, e.viewpoint_id) for e in loaded.entries] == \
            [(e.model_id, e.class_id, e.viewpoint_id) for e in entries]
        for got, want in zip(loaded.entries, entries):
            assert got.descriptor.dtype == np.float32
            np.testing.assert_array_equal(got.descriptor, want.descriptor.astype(np.float32))
        vio.write_descriptor_db(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mixtures())
    def test_every_mixture_that_constructs_round_trips_byte_for_byte(self, tmp_path, arrays):
        path, again = tmp_path / "mixture.gmm", tmp_path / "again.gmm"
        for p in (path, again):
            p.unlink(missing_ok=True)
        try:
            gmm = GmmParams(*arrays)
        except ViewretError:
            event("refused where built")
            return
        try:
            vio.write_gmm(gmm, path)
        except ViewretError:
            event("refused by the writer")
            assert not path.exists()
            return
        loaded = vio.read_gmm(path)
        for got, want in zip((loaded.weights, loaded.means, loaded.sigmas), arrays):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want.astype(np.float32))
        vio.write_gmm(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_descriptor_beyond_float32_is_refused_without_a_warning(self, tmp_path):
        path = tmp_path / "db.fvdb"
        with pytest.raises(ViewretError, match="entry 0: descriptor is not finite and non-zero in float32"):
            vio.write_descriptor_db(DescriptorDb(entries=[
                DbEntry("a", 0, 0, np.r_[1e39, np.ones(255)])]), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [0.0, 1e-50])
    def test_descriptor_zero_in_float32_is_refused(self, tmp_path, value):
        path = tmp_path / "db.fvdb"
        with pytest.raises(ViewretError, match="entry 1: descriptor is not finite and non-zero in float32"):
            vio.write_descriptor_db(DescriptorDb(entries=[
                DbEntry("a", 0, 0, np.ones(256)), DbEntry("b", 0, 0, np.full(256, value))]), path)
        assert not path.exists()

    def test_sigma_zero_in_float32_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "mixture.gmm"
        with pytest.raises(ViewretError, match="mixture sigmas must be finite and positive"):
            vio.write_gmm(GmmParams(np.ones(1), np.zeros((1, 4)), np.full((1, 4), 1e-50)), path)
        assert not path.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mean_beyond_float32_is_refused_before_writing_without_a_warning(self, tmp_path):
        path = tmp_path / "mixture.gmm"
        with pytest.raises(ViewretError, match="mixture means must be finite"):
            vio.write_gmm(GmmParams(np.ones(1), np.full((1, 4), 1e39), np.ones((1, 4))), path)
        assert not path.exists()

    def test_weights_that_do_not_match_the_means_are_refused(self, tmp_path):
        path = tmp_path / "mixture.gmm"
        with pytest.raises(ViewretError, match=re.escape(
                "mixture needs (K,) weights and (K, D) means and sigmas, got (2,), (1, 4) "
                "and (1, 4)")):
            vio.write_gmm(GmmParams(np.full(2, 0.5), np.zeros((1, 4)), np.ones((1, 4))), path)
        assert not path.exists()


class TestScanMetadata:
    def test_round_trip(self, tmp_path):
        mesh = TriangleMesh(np.array([[-2.0, -2.0, 0.0], [2.0, -2.0, 0.0], [0.0, 2.0, 0.0]]),
                            np.array([[0, 1, 2]]))
        cfg = ScannerConfig(position=(0.0, 0.5, 4.0), target=(0.0, 0.0, 0.0),
                            fov_deg=30.0, angular_step_deg=1.0, max_range=10.0)
        scan = simulate_scan(mesh, cfg)
        path = tmp_path / "scan.xyz.meta"
        vio.write_scan_metadata(scan, path)
        meta = read_scan_metadata(path)
        np.testing.assert_allclose(meta["ground_truth_viewpoint"],
                                   scan.ground_truth_viewpoint, atol=1e-12)
        assert float(meta["fov_deg"]) == 30.0


class TestScoreGridCsv:
    def test_layout(self, tmp_path):
        grid = ScoreGrid(viewpoints=np.eye(3)[:2], resolutions=(32, 64),
                         quantity=np.array([[0.5, 1.0], [0.25, 0.75]]),
                         density=np.array([[0.1, 0.2], [0.3, 0.4]]))
        path = tmp_path / "grid.csv"
        vio.write_score_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "viewpoint_index,resolution,Q,D"
        assert lines[1] == "0,32,0.5,0.1"
        assert len(lines) == 5


class TestManifest:
    def test_loads_mixed_geometry(self, tmp_path):
        vio.save_xyz(np.random.default_rng(56).normal(size=(10, 3)), tmp_path / "cloud.xyz")
        vio.save_obj(TriangleMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                                  np.array([[0, 1, 2]])), tmp_path / "tri.obj")
        manifest = tmp_path / "models.txt"
        manifest.write_text("# models\ncloudy 0 cloud.xyz\nmeshy 1 tri.obj\n")
        models = vio.load_manifest(manifest)
        assert models[0][0] == "cloudy" and models[0][1] == 0
        assert isinstance(models[1][2], TriangleMesh)
        np.testing.assert_array_equal(models[0][2], vio.load_geometry(tmp_path / "cloud.xyz"))
        assert isinstance(vio.load_geometry(str(tmp_path / "tri.obj")), TriangleMesh)

    def test_extreme_ids_that_a_database_stores_load_and_round_trip(self, tmp_path):
        vio.save_xyz(np.random.default_rng(57).normal(size=(10, 3)), tmp_path / "m.xyz")
        longest = "é" * 32767 + "a"   # 65535 UTF-8 bytes
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"{longest} 4294967295 m.xyz\nzero 0 m.xyz\n", encoding="utf-8")
        models = vio.load_manifest(manifest)
        assert [(m[0], m[1]) for m in models] == [(longest, 4294967295), ("zero", 0)]
        entries = [DbEntry(model_id, class_id, 0, np.ones(2 * 128, dtype=np.float32))
                   for model_id, class_id, _ in models]
        path = tmp_path / "db.fvdb"
        vio.write_descriptor_db(DescriptorDb(entries=entries), path)
        loaded = vio.read_descriptor_db(path).entries
        assert [(e.model_id, e.class_id) for e in loaded] == [(longest, 4294967295), ("zero", 0)]

    @pytest.mark.parametrize("line, message", [
        ("m -1 m.xyz", "class id -1 is outside"),
        ("m 4294967296 m.xyz", "class id 4294967296 is outside"),
        ("m one m.xyz", "class id 'one' is not an integer"),
        ("é" * 32768 + " 0 m.xyz", "model id is longer than 65535 UTF-8 bytes"),
    ])
    def test_ids_a_database_cannot_store_rejected_with_line(self, tmp_path, line, message):
        vio.save_xyz(np.random.default_rng(58).normal(size=(10, 3)), tmp_path / "m.xyz")
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"ok 0 m.xyz\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{manifest}:2: {message}"):
            vio.load_manifest(manifest)

    def test_repeated_model_id_rejected_with_both_lines(self, tmp_path):
        vio.save_xyz(np.random.default_rng(59).normal(size=(10, 3)), tmp_path / "m.xyz")
        manifest = tmp_path / "models.txt"
        manifest.write_text("a 0 m.xyz\nb 0 m.xyz\n\na 1 m.xyz\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:4: model id 'a' repeats line 1")):
            vio.load_manifest(manifest)

    @pytest.mark.parametrize("text, line", [("", 1), ("# none\n\n   \n", 3)])
    def test_manifest_without_models_rejected(self, tmp_path, text, line):
        manifest = tmp_path / "models.txt"
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:{line}: no model listed")):
            vio.load_manifest(manifest)

    def test_missing_geometry_file_names_the_manifest_line(self, tmp_path):
        vio.save_xyz(np.random.default_rng(60).normal(size=(10, 3)), tmp_path / "m.xyz")
        manifest = tmp_path / "models.txt"
        manifest.write_text("ok 0 m.xyz\nghost 0 missing.xyz\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: [Errno 2]")) as info:
            vio.load_manifest(manifest)
        assert "missing.xyz" in str(info.value)

    @pytest.mark.parametrize("name, text, message", [
        ("bad.xyz", "1 2\n", "bad.xyz:1: expected 3 coordinates, got 2"),
        ("bad.obj", "v 0 0 0\nv 0 1 0\nv 1 0 0\nf 1 2\n", "bad.obj:4: only triangulated faces"),
    ])
    def test_bad_geometry_file_names_the_manifest_line(self, tmp_path, name, text, message):
        vio.save_xyz(np.random.default_rng(61).normal(size=(10, 3)), tmp_path / "m.xyz")
        (tmp_path / name).write_text(text, encoding="utf-8")
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"ok 0 m.xyz\n# then\nbad 1 {name}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:3: ") + ".*" + re.escape(message)):
            vio.load_manifest(manifest)
