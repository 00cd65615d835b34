import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import viewret
from oracles import fvdb_bytes, gmm_bytes, read_pgm, read_scan_metadata
from viewret import cli
from viewret import io as vio
from viewret.cli import _load_config_file, run
from viewret.config import PipelineConfig
from viewret.encode import GmmParams
from viewret.errors import ViewretError
from viewret.evaluate import (desk_benchmark_config, make_synthetic_dataset,
                              precision_recall_curve, run_benchmark)
from viewret.geometry import normalize_pose
from viewret.scansim import make_cylinder, make_sphere


@pytest.fixture
def cloud_file(tmp_path):
    rng = np.random.default_rng(60)
    pts = rng.normal(size=(600, 3))
    pts, _ = normalize_pose(pts)
    path = tmp_path / "cloud.xyz"
    vio.save_xyz(pts, path)
    return path


@pytest.fixture
def mesh_file(tmp_path):
    path = tmp_path / "sphere.obj"
    vio.save_obj(make_sphere(radius=1.0, rings=8, segments=12), path)
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["select", "--wat"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_command_is_usage_error(self):
        assert run([]) == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.xyz")
        assert run(["select", "--input", missing]) == 2
        assert "nope.xyz" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--input", "--db", "--gmm", "--config"])
    def test_missing_file_is_named_by_its_loader(self, cloud_file, tmp_path, capsys, flag):
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"cloud 0 {cloud_file.name}\n")
        missing = str(tmp_path / f"{flag.lstrip('-')}.missing")
        never_read = str(tmp_path / "never-read")
        argv = {"--input": ["query", "--input", missing, "--db", never_read, "--gmm", never_read],
                "--db": ["query", "--input", str(cloud_file), "--db", missing, "--gmm", never_read],
                "--gmm": ["build-db", "--input", str(manifest), "--gmm", missing,
                          "--output", str(tmp_path / "models.fvdb")],
                "--config": ["select", "--input", str(cloud_file), "--config", missing]}[flag]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"viewret {argv[0]}: error: [Errno 2] ")
        assert err.endswith(f"{missing!r}\n") and err.count("\n") == 1

    def test_commands_that_read_no_config_take_no_config_flags(self, cloud_file, tmp_path,
                                                                capsys):
        for argv in (["normalize", "--input", str(cloud_file)],
                     ["render", "--input", str(cloud_file), "--viewpoint-index", "0",
                      "--resolution", "32", "--output", str(tmp_path / "img.pgm")]):
            for flag, value in (("--seed", "3"), ("--config", "nope.cfg"), ("--threads", "2")):
                capsys.readouterr()
                assert run([*argv, flag, value]) == 1
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "img.pgm").exists()

    def test_no_command_takes_a_threads_flag(self, cloud_file, mesh_file, tmp_path, capsys):
        never_read = str(tmp_path / "never-read")
        out = str(tmp_path / "out")
        before = sorted(tmp_path.iterdir())
        for argv in (["select", "--input", str(cloud_file), "--dump-grid", out],
                     ["scan-sim", "--mesh", str(mesh_file), "--scanner-pos", "3,1.8,1.2",
                      "--output", out],
                     ["fit-gmm", "--input", never_read, "--output", out],
                     ["build-db", "--input", never_read, "--gmm", never_read, "--output", out],
                     ["query", "--input", str(cloud_file), "--db", never_read, "--gmm", never_read,
                      "--output", out],
                     ["bench", "--report", out]):
            capsys.readouterr()
            assert run([*argv, "--threads", "2"]) == 1
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_codes_reach_the_shell(self, cloud_file, tmp_path):
        """``python -m viewret.cli`` runs `main`, which exits the process with `run`'s code."""
        paths = [os.path.dirname(os.path.dirname(viewret.__file__)), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        for argv, code in ((["normalize", "--input", str(cloud_file)], 0),
                           (["select", "--wat"], 1),
                           (["select", "--input", str(tmp_path / "nope.xyz")], 2)):
            proc = subprocess.run([sys.executable, "-m", "viewret.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == code, proc.stderr
            assert "Traceback" not in proc.stderr
        assert "nope.xyz" in proc.stderr


class TestNormalize:
    def test_prints_transform_and_writes_cloud(self, tmp_path, capsys):
        path = tmp_path / "raw.xyz"
        vio.save_xyz([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)], path)
        out = tmp_path / "norm.xyz"
        assert run(["normalize", "--input", str(path), "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0].startswith("translation -1 ")
        assert printed.splitlines()[1] == "scale 1"
        np.testing.assert_allclose(vio.load_xyz(out), [(-1, 0, 0), (1, 0, 0)])


class TestRender:
    def test_renders_cloud_to_pgm(self, cloud_file, tmp_path):
        out = tmp_path / "img.pgm"
        assert run(["render", "--input", str(cloud_file), "--viewpoint-index", "0",
                    "--resolution", "64", "--output", str(out)]) == 0
        img = read_pgm(out)
        assert img.shape == (64, 64)
        assert (img > 0).any()

    def test_renders_mesh(self, mesh_file, tmp_path):
        out = tmp_path / "img.pgm"
        assert run(["render", "--input", str(mesh_file), "--viewpoint", "0,0,1",
                    "--resolution", "64", "--output", str(out)]) == 0
        assert (read_pgm(out) > 0).sum() > 100

    def test_requires_exactly_one_viewpoint_flag(self, cloud_file, tmp_path):
        assert run(["render", "--input", str(cloud_file), "--resolution", "32",
                    "--output", str(tmp_path / "x.pgm")]) == 1
        assert run(["render", "--input", str(cloud_file), "--resolution", "32",
                    "--viewpoint-index", "2", "--viewpoint", "0,0,1",
                    "--output", str(tmp_path / "x.pgm")]) == 1

    def test_out_of_range_viewpoint_index(self, cloud_file, tmp_path):
        assert run(["render", "--input", str(cloud_file), "--resolution", "32",
                    "--viewpoint-index", "20", "--output", str(tmp_path / "x.pgm")]) == 1

    def test_missing_required_output(self, cloud_file):
        assert run(["render", "--input", str(cloud_file), "--resolution", "32",
                    "--viewpoint-index", "0"]) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vector", ["0,0,0", "nan,0,1", "inf,0,0", "1e300,1e300,0"])
    def test_zero_or_non_finite_viewpoint_is_data_error(self, cloud_file, tmp_path, capsys,
                                                         vector):
        out = tmp_path / "img.pgm"
        assert run(["render", "--input", str(cloud_file), "--resolution", "32",
                    "--viewpoint", vector, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "--viewpoint" in err
        assert not out.exists()


class TestSelect:
    def test_reports_choice(self, cloud_file, tmp_path, capsys):
        grid_path = tmp_path / "grid.csv"
        code = run(["select", "--input", str(cloud_file), "--resolutions", "32,64",
                    "--dump-grid", str(grid_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("viewpoint_index ")
        index = int(lines[0].split()[1])
        assert 0 <= index < 20
        assert lines[2].split()[1] in {"32", "64"}
        assert grid_path.read_text().splitlines()[0] == "viewpoint_index,resolution,Q,D"

    def test_ransac_method(self, cloud_file, capsys):
        code = run(["select", "--input", str(cloud_file), "--resolutions", "32,64",
                    "--method", "ransac", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        direction = np.array([float(v) for v in out.splitlines()[1].split()[1:]])
        assert abs(np.linalg.norm(direction) - 1.0) <= 1e-6

    def test_deterministic_output(self, cloud_file, capsys):
        run(["select", "--input", str(cloud_file), "--resolutions", "32,64"])
        first = capsys.readouterr().out
        run(["select", "--input", str(cloud_file), "--resolutions", "32,64"])
        assert capsys.readouterr().out == first

    def test_threads_do_not_change_output(self, cloud_file, tmp_path, capsys):
        outputs = []
        for threads in ("1", "4"):
            grid_path = tmp_path / f"grid{threads}.csv"
            config = tmp_path / f"threads{threads}.cfg"
            config.write_text(f"threads = {threads}\n")
            assert run(["select", "--input", str(cloud_file), "--resolutions", "32,64,128",
                        "--config", str(config), "--dump-grid", str(grid_path)]) == 0
            outputs.append((capsys.readouterr().out, grid_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_absurd_resolution_is_data_error(self, cloud_file, capsys):
        assert run(["select", "--input", str(cloud_file), "--resolutions", "32,99999999"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "99999999" in err


class TestScanSim:
    def test_writes_cloud_and_metadata(self, mesh_file, tmp_path):
        out = tmp_path / "scan.xyz"
        code = run(["scan-sim", "--mesh", str(mesh_file), "--scanner-pos", "0,0,3",
                    "--fov", "30", "--step", "1.0", "--output", str(out)])
        assert code == 0
        cloud = vio.load_xyz(out)
        assert len(cloud) > 50
        meta = read_scan_metadata(str(out) + ".meta")
        np.testing.assert_allclose(meta["ground_truth_viewpoint"], [0, 0, 1], atol=1e-9)

    def test_absurd_ray_lattice_is_data_error(self, mesh_file, tmp_path, capsys):
        out = tmp_path / "scan.xyz"
        assert run(["scan-sim", "--mesh", str(mesh_file), "--scanner-pos", "0,0,3",
                    "--fov", "40", "--step", "1e-6", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "rays" in err
        assert not out.exists()

    def test_scanner_at_the_mesh_centroid_is_one_error_line_and_no_output(self, tmp_path,
                                                                             capsys):
        mesh = tmp_path / "cylinder.obj"
        vio.save_obj(make_cylinder(), mesh)
        centroid = ",".join(repr(float(c)) for c in vio.load_obj(mesh).centroid)
        out = tmp_path / "scan.xyz"
        assert run(["scan-sim", "--mesh", str(mesh), f"--scanner-pos={centroid}",
                    "--target", "1,0,0", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("viewret scan-sim: error: scanner position must differ from the "
                       "mesh centroid\n")
        assert not out.exists() and not os.path.exists(f"{out}.meta")

    @pytest.mark.parametrize("flags, code", [
        (["--noise-sigma", "inf"], 2), (["--noise-sigma", "nan"], 2), (["--noise-sigma=-1"], 2),
        (["--max-range", "nan"], 2), (["--max-range", "0"], 2),
        (["--fov", "400", "--step", "1"], 2), (["--fov", "180", "--step", "1"], 2),
        (["--scanner-pos", "nan,0,0"], 2), (["--target", "0,inf,0"], 2),
        (["--scanner-pos", "1,2"], 1)])
    def test_bad_setting_is_one_error_line_and_no_output(self, mesh_file, tmp_path, capsys,
                                                         flags, code):
        out = tmp_path / "scan.xyz"
        argv = ["scan-sim", "--mesh", str(mesh_file), "--output", str(out), *flags]
        if "--scanner-pos" not in flags:
            argv += ["--scanner-pos", "3,1.8,1.2"]
        assert run(argv) == code
        err = capsys.readouterr().err
        # a usage error prints the usage first, then its one error line
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith("viewret scan-sim: error: ")
        assert code == 1 or err.count("\n") == 1
        assert not out.exists() and not os.path.exists(f"{out}.meta")


class TestPipelineEndToEnd:
    def test_fit_query_flow(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        paths = {}
        for name, shift in (("ball", 0.0), ("shell", 0.35)):
            pts = rng.normal(size=(700, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts *= (1.0 - shift) + shift * rng.random((700, 1))
            path = tmp_path / f"{name}.xyz"
            vio.save_xyz(pts, path)
            paths[name] = path
        manifest = tmp_path / "models.txt"
        manifest.write_text("ball 0 ball.xyz\nshell 1 shell.xyz\n")
        config = tmp_path / "desk.cfg"
        config.write_text("n_keypoints=40\ngaussians=2\nresolutions=32,64\ngmm_sample_cap=3000\n")

        gmm_path = tmp_path / "mixture.bin"
        assert run(["fit-gmm", "--input", str(manifest), "--config", str(config),
                    "--output", str(gmm_path)]) == 0
        db_path = tmp_path / "db.fvdb"
        assert run(["build-db", "--input", str(manifest), "--gmm", str(gmm_path),
                    "--config", str(config), "--output", str(db_path)]) == 0
        assert run(["query", "--input", str(paths["ball"]), "--db", str(db_path),
                    "--gmm", str(gmm_path), "--config", str(config), "--top-k", "2"]) == 0
        ranked = capsys.readouterr().out.splitlines()
        assert len(ranked) == 2
        assert ranked[0].split()[0] in {"ball", "shell"}

    def test_build_db_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(62)
        pts = rng.normal(size=(500, 3))
        vio.save_xyz(pts, tmp_path / "m.xyz")
        manifest = tmp_path / "models.txt"
        manifest.write_text("m 0 m.xyz\n")
        config = tmp_path / "desk.cfg"
        config.write_text("n_keypoints=30\ngaussians=2\nresolutions=32\ngmm_sample_cap=2000\n")
        gmm_path = tmp_path / "mixture.bin"
        assert run(["fit-gmm", "--input", str(manifest), "--config", str(config),
                    "--output", str(gmm_path)]) == 0
        out1, out2 = tmp_path / "a.fvdb", tmp_path / "b.fvdb"
        for out in (out1, out2):
            assert run(["build-db", "--input", str(manifest), "--gmm", str(gmm_path),
                        "--config", str(config), "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        vio.save_xyz(np.random.default_rng(64).normal(size=(500, 3)), tmp_path / "m.xyz")
        manifest = tmp_path / "models.txt"
        manifest.write_text("m 0 m.xyz\n")
        config = tmp_path / "desk.cfg"
        config.write_text("n_keypoints=30\ngaussians=4\nresolutions=32\ngmm_sample_cap=2000\n")
        out = tmp_path / "mixture.bin"
        assert run(["fit-gmm", "--input", str(manifest), "--config", str(config),
                    "--gaussians", "2", "--output", str(out)]) == 0
        assert vio.read_gmm(out).n_components == 2

    def test_multiview_query(self, tmp_path, capsys):
        rng = np.random.default_rng(65)
        ball = rng.normal(size=(600, 3))
        ball /= np.linalg.norm(ball, axis=1, keepdims=True)
        ball *= rng.random((600, 1)) ** (1 / 3)
        shell = rng.normal(size=(600, 3))
        shell /= np.linalg.norm(shell, axis=1, keepdims=True)
        vio.save_xyz(ball, tmp_path / "ball.xyz")
        vio.save_xyz(shell, tmp_path / "shell.xyz")
        manifest = tmp_path / "models.txt"
        manifest.write_text("ball 0 ball.xyz\nshell 1 shell.xyz\n")
        config = tmp_path / "desk.cfg"
        config.write_text("n_keypoints=60\ngaussians=2\nresolutions=32,64\ngmm_sample_cap=4000\n")
        gmm_path = tmp_path / "mixture.bin"
        db_path = tmp_path / "db.fvdb"
        assert run(["fit-gmm", "--input", str(manifest), "--config", str(config),
                    "--output", str(gmm_path)]) == 0
        assert run(["build-db", "--input", str(manifest), "--gmm", str(gmm_path),
                    "--config", str(config), "--output", str(db_path)]) == 0
        assert run(["query", "--input", str(tmp_path / "ball.xyz"), "--db", str(db_path),
                    "--gmm", str(gmm_path), "--config", str(config), "--multiview"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].split()[0] == "ball"


def desk_pipeline(tmp_path):
    """fit-gmm and build-db over a one-model manifest; returns (query cloud, gmm, db, config)."""
    rng = np.random.default_rng(66)
    vio.save_xyz(rng.normal(size=(500, 3)), tmp_path / "m.xyz")
    (tmp_path / "models.txt").write_text("m 0 m.xyz\n")
    config = tmp_path / "desk.cfg"
    config.write_text("n_keypoints=30\ngaussians=2\nresolutions=32\ngmm_sample_cap=2000\n")
    gmm_path, db_path = tmp_path / "mixture.gmm", tmp_path / "models.fvdb"
    assert run(["fit-gmm", "--input", str(tmp_path / "models.txt"), "--config", str(config),
                "--output", str(gmm_path)]) == 0
    assert run(["build-db", "--input", str(tmp_path / "models.txt"), "--gmm", str(gmm_path),
                "--config", str(config), "--output", str(db_path)]) == 0
    return tmp_path / "m.xyz", gmm_path, db_path, config


class TestCorruptInputs:
    def test_truncated_db_and_gmm_are_data_errors(self, tmp_path, capsys):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        query = ["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(gmm_path),
                 "--config", str(config)]
        # header sizes: FVDB 20 bytes, GMM1 12 bytes
        for path, header in ((db_path, 20), (gmm_path, 12)):
            data = path.read_bytes()
            for cut in (header - 3, len(data) - 25):
                path.write_bytes(data[:cut])
                capsys.readouterr()
                assert run(query) == 2
                err = capsys.readouterr().err
                assert "Traceback" not in err and str(path) in err
            path.write_bytes(data)
        assert run(query) == 0

    def test_binary_file_given_to_fit_gmm_is_data_error(self, tmp_path, capsys):
        _, gmm_path, db_path, config = desk_pipeline(tmp_path)
        for binary in (gmm_path, db_path):
            capsys.readouterr()
            assert run(["fit-gmm", "--input", str(binary), "--config", str(config),
                        "--output", str(tmp_path / "refit.gmm")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"viewret fit-gmm: error: {binary}:") and err.count("\n") == 1
        assert not (tmp_path / "refit.gmm").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, capsys, token):
        cloud = tmp_path / "cloud.xyz"
        rows = [f"{x} {x % 7} {x % 5}" for x in range(40)]
        rows[23] = f"1 {token} 2"
        cloud.write_text("# scan\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        assert run(["select", "--input", str(cloud)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"{cloud}:25: coordinate '{token}' is not finite" in captured.err

    def test_non_finite_obj_vertex_names_its_line(self, tmp_path, capsys):
        mesh = tmp_path / "tetra.obj"
        mesh.write_text("v 0 0 1\nv 0 nan 0\nv 1 0 0\nv 0 0 0\nf 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")
        (tmp_path / "models.txt").write_text("tetra 0 tetra.obj\n")
        gmm_path = tmp_path / "mixture.gmm"
        vio.write_gmm(GmmParams(np.full(2, 0.5), np.zeros((2, 128)), np.ones((2, 128))), gmm_path)
        capsys.readouterr()
        for argv in (["scan-sim", "--mesh", str(mesh), "--scanner-pos", "0,0,3",
                      "--output", str(tmp_path / "scan.xyz")],
                     ["build-db", "--input", str(tmp_path / "models.txt"), "--gmm", str(gmm_path),
                      "--output", str(tmp_path / "models.fvdb")]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert f"{mesh}:2: coordinate 'nan' is not finite" in captured.err

    def test_non_finite_db_and_feature_values_are_data_errors(self, tmp_path, capsys):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        data = bytearray(db_path.read_bytes())
        data[-4:] = np.float32(np.nan).tobytes()       # the last value of the last of 20 entries
        db_path.write_bytes(bytes(data))
        capsys.readouterr()
        assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(gmm_path),
                    "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"{db_path}: entry 19" in captured.err

    def test_absurd_query_resolution_is_data_error(self, tmp_path, capsys):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        capsys.readouterr()
        assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(gmm_path),
                    "--config", str(config), "--resolutions", "32,99999999"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "99999999" in err

    def test_absurd_db_resolution_is_data_error(self, tmp_path, mesh_file, capsys):
        _, gmm_path, _, _ = desk_pipeline(tmp_path)
        manifest = tmp_path / "meshes.txt"
        manifest.write_text(f"sphere 0 {mesh_file.name}\n")
        config = tmp_path / "huge.cfg"
        config.write_text("n_keypoints=30\ngaussians=2\ndb_resolution=99999999\n")
        capsys.readouterr()
        assert run(["build-db", "--input", str(manifest), "--gmm", str(gmm_path),
                    "--config", str(config), "--output", str(tmp_path / "db.fvdb")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "99999999" in err

    @pytest.mark.parametrize("line", ["m -1 m.xyz", "m 4294967296 m.xyz",
                                      "é" * 32768 + " 0 m.xyz"])
    def test_manifest_id_a_database_cannot_store_is_data_error(self, tmp_path, capsys, line):
        _, gmm_path, _, config = desk_pipeline(tmp_path)
        manifest = tmp_path / "bad.txt"
        manifest.write_text(f"{line}\n", encoding="utf-8")
        for command, flags, out in (("fit-gmm", [], tmp_path / "bad.gmm"),
                                    ("build-db", ["--gmm", str(gmm_path)], tmp_path / "bad.fvdb")):
            capsys.readouterr()
            assert run([command, "--input", str(manifest), *flags, "--config", str(config),
                        "--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err and f"{manifest}:1" in err
            assert not out.exists()

    @pytest.mark.parametrize("text, line", [
        ("m 0 m.xyz\nm 1 m.xyz\n", 2),
        ("", 1),
        ("# no models\n", 1),
        ("m 0 m.xyz\nghost 0 missing.xyz\n", 2),
    ])
    def test_bad_manifest_is_data_error_with_its_line(self, tmp_path, capsys, text, line):
        _, gmm_path, _, config = desk_pipeline(tmp_path)
        manifest = tmp_path / "bad.txt"
        manifest.write_text(text, encoding="utf-8")
        for command, flags, out in (("fit-gmm", [], tmp_path / "bad.gmm"),
                                    ("build-db", ["--gmm", str(gmm_path)], tmp_path / "bad.fvdb")):
            capsys.readouterr()
            assert run([command, "--input", str(manifest), *flags, "--config", str(config),
                        "--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err and f"{manifest}:{line}:" in err
            assert not out.exists()

    def test_model_id_holding_a_newline_is_data_error(self, tmp_path, capsys):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        entries = vio.read_descriptor_db(db_path).entries
        # the writer refuses such an id, so the database is laid out by hand
        db_path.write_bytes(fvdb_bytes(vio.read_gmm(gmm_path).n_components, 128, [
            (b"two words\nthird 0.0" if i == 1 else e.model_id.encode(), e.class_id,
             e.viewpoint_id, e.descriptor) for i, e in enumerate(entries)]))
        capsys.readouterr()
        assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(gmm_path),
                    "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"viewret query: error: {db_path}: entry 1: model id is empty or "
                                f"holds whitespace\n")

    def test_mixture_of_another_dimension_names_its_file_before_any_selection(
            self, tmp_path, capsys, monkeypatch):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        # the writer refuses such a mixture, so it is laid out by hand
        gmm_path.write_bytes(gmm_bytes(np.full(4, 0.25), np.zeros((4, 64)), np.ones((4, 64))))
        monkeypatch.setattr("viewret.cli.propose", _refused_before_this)
        capsys.readouterr()
        assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(gmm_path),
                    "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"viewret query: error: {gmm_path}: mixture dimension 64, "
                                f"expected 128\n")

    def test_mixture_of_another_k_names_both_files_before_any_selection(
            self, tmp_path, capsys, monkeypatch):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        other = tmp_path / "k4.gmm"
        vio.write_gmm(GmmParams(np.full(4, 0.25), np.zeros((4, 128)), np.ones((4, 128))), other)
        monkeypatch.setattr("viewret.cli.propose", _refused_before_this)
        out = tmp_path / "ranking.txt"
        capsys.readouterr()
        assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(other),
                    "--config", str(config), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"viewret query: error: {db_path} holds descriptors of K=2, "
                                f"but {other} has K=4\n")
        assert not out.exists()

    def test_a_refused_ranking_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)

        def refused(*args, **kwargs):
            raise ViewretError("the ranking is refused")

        monkeypatch.setattr("viewret.cli.query_db", refused)
        out = tmp_path / "ranking.txt"
        capsys.readouterr()
        assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm", str(gmm_path),
                    "--config", str(config), "--output", str(out)]) == 2
        assert capsys.readouterr().err == "viewret query: error: the ranking is refused\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit-gmm", "build-db"])
    def test_a_flat_model_names_the_view_that_renders_no_pixel(self, tmp_path, capsys, command):
        # dodecahedron views 12 to 15 lie in the square's plane, so they see no face of it
        (tmp_path / "plate.obj").write_text("v -1 -1 0\nv 1 -1 0\nv 1 1 0\nv -1 1 0\n"
                                            "f 1 2 3\nf 1 3 4\n")
        manifest = tmp_path / "models.txt"
        manifest.write_text("plate 0 plate.obj\n")
        gmm_path = tmp_path / "mixture.gmm"
        vio.write_gmm(GmmParams(np.full(2, 0.5), np.zeros((2, 128)), np.ones((2, 128))), gmm_path)
        out = tmp_path / "out"
        argv = [command, "--input", str(manifest), "--output", str(out)]
        argv += ["--gmm", str(gmm_path)] if command == "build-db" else []
        assert run(argv) == 2
        assert capsys.readouterr().err == (f"viewret {command}: error: model plate: view 12 "
                                           f"renders no pixel\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_empty_mesh_is_one_error_line_that_says_mesh(self, tmp_path, capsys):
        mesh = tmp_path / "empty.obj"
        manifest = tmp_path / "models.txt"
        manifest.write_text("empty 0 empty.obj\n")
        gmm_path = tmp_path / "mixture.gmm"
        vio.write_gmm(GmmParams(np.full(2, 0.5), np.zeros((2, 128)), np.ones((2, 128))), gmm_path)
        for text, message in (("# no vertex\n", "mesh has no vertices"),
                              ("v 0 0 0\nv 1 0 0\nv 0 1 0\n", "mesh has no triangles")):
            mesh.write_text(text)
            for argv, where in ((["scan-sim", "--mesh", str(mesh), "--scanner-pos", "0,0,3",
                                  "--output", str(tmp_path / "scan.xyz")], mesh),
                                (["render", "--input", str(mesh), "--viewpoint-index", "3",
                                  "--resolution", "32", "--output", str(tmp_path / "empty.pgm")],
                                 mesh),
                                (["build-db", "--input", str(manifest), "--gmm", str(gmm_path),
                                  "--output", str(tmp_path / "models.fvdb")],
                                 f"{manifest}:1: {mesh}")):
                capsys.readouterr()
                assert run(argv) == 2
                err = capsys.readouterr().err
                assert err == f"viewret {argv[0]}: error: {where}: {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_huge_coordinate_is_data_error(self, tmp_path, capsys):
        cloud = tmp_path / "huge.xyz"
        cloud.write_text("1e300 0 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
        mesh = tmp_path / "huge.obj"
        mesh.write_text("v 0 0 1\nv 1e300 0 0\nv 0 1 0\nv 0 0 0\nf 1 2 3\nf 1 3 4\n")
        for argv in (["select", "--input", str(cloud)],
                     ["render", "--input", str(mesh), "--viewpoint-index", "3",
                      "--resolution", "32", "--output", str(tmp_path / "huge.pgm")]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"viewret {argv[0]}: error: ") and err.count("\n") == 1
            assert "too large" in err
        assert not (tmp_path / "huge.pgm").exists()

    def test_top_k_below_one_is_usage_error(self, tmp_path, capsys):
        cloud, gmm_path, db_path, config = desk_pipeline(tmp_path)
        for top_k in ("0", "-1"):
            assert run(["query", "--input", str(cloud), "--db", str(db_path), "--gmm",
                        str(gmm_path), "--config", str(config), "--top-k", top_k]) == 1
            assert "--top-k" in capsys.readouterr().err


def mutate(data, kind, at, byte):
    """``data`` cut short at ``at``, with the byte there set to ``byte``, or with a NUL inserted."""
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    if kind == "nul":
        return data[:at] + b"\0" + data[at:]
    at = min(at, len(data) - 1)
    return data[:at] + bytes([byte]) + data[at + 1:]


MUTATIONS = (st.sampled_from(["truncate", "byte", "nul"]), st.integers(0, 2 ** 16),
             st.integers(0, 255))


class TestFuzzedTextFiles:
    """An XYZ cloud, OBJ mesh, manifest or config file cut short, with one byte set to any value,
    or with a NUL inserted."""

    TETRA = ("# tetrahedron\nv 0 0 1\nv 0 1.5 0\nv 1 0 0.25\nv 0 0 0\n"
             "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n")

    def case(self, tmp_path, fmt):
        """The file to mutate, its loader, and the command that reads it."""
        cloud = tmp_path / "scan.xyz"
        vio.save_xyz(np.random.default_rng(68).normal(size=(30, 3)), cloud)
        tetra = tmp_path / "tetra.obj"
        tetra.write_text(self.TETRA)
        if fmt == "xyz":
            return cloud, vio.load_xyz, ["select", "--input", str(cloud), "--resolutions", "32,64"]
        if fmt == "obj":
            return tetra, vio.load_obj, ["render", "--input", str(tetra), "--viewpoint-index", "3",
                                         "--resolution", "32", "--output", str(tmp_path / "t.pgm")]
        if fmt == "manifest":
            path = tmp_path / "models.txt"
            path.write_text("# models\ntetra 0 tetra.obj\ncloud 1 scan.xyz  # thirty points\n")
            micro = tmp_path / "micro.cfg"
            micro.write_text("n_keypoints = 10\ngaussians = 2\nresolutions = 32\n"
                             "db_resolution = 32\ngmm_sample_cap = 200\n")
            return path, vio.load_manifest, ["fit-gmm", "--input", str(path), "--config", str(micro),
                                             "--output", str(tmp_path / "m.gmm")]
        path = tmp_path / "select.cfg"
        path.write_text("# select\nresolutions = 32,64\nransac_iterations = 50\n"
                        "keypoint_decay = 1.5  # unused by select\nseed = 3\n")
        return path, _load_config_file, ["select", "--input", str(cloud), "--method", "ransac",
                                         "--config", str(path)]

    @settings(derandomize=True, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["xyz", "obj", "manifest", "config"]), *MUTATIONS)
    def test_loads_or_names_the_file_and_exits_0_or_2(self, tmp_path, capsys, fmt, kind, at, byte):
        path, load, argv = self.case(tmp_path, fmt)
        path.write_bytes(mutate(path.read_bytes(), kind, at, byte))
        try:
            load(path)
        except ViewretError as exc:
            assert str(path) in str(exc)
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert err.startswith(f"viewret {argv[0]}: error: ") and err.count("\n") == 1


class TestFuzzedBinaryFiles:
    """A GMM1 mixture or FVDB database mutated as in `TestFuzzedTextFiles`, then read by its loader
    and by `build-db` or `query`; a warning fails the test, so the encoder may not make a NaN."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([("mixture", "build-db"), ("mixture", "query"), ("database", "query")]),
           *MUTATIONS)
    def test_loads_or_names_the_file_and_exits_0_or_2(self, tmp_path, capsys, case, kind, at, byte):
        # hypothesis runs every example in one call of the test, so one tmp_path holds the pipeline
        if not hasattr(self, "pipeline"):
            self.pipeline = desk_pipeline(tmp_path)
        cloud, gmm_path, db_path, config = self.pipeline
        fuzzed, command = case
        path, load = {"mixture": (gmm_path, vio.read_gmm),
                      "database": (db_path, vio.read_descriptor_db)}[fuzzed]
        argv = (["build-db", "--input", str(tmp_path / "models.txt"), "--output",
                 str(tmp_path / "rebuilt.fvdb")] if command == "build-db" else
                ["query", "--input", str(cloud), "--db", str(db_path)])
        argv += ["--gmm", str(gmm_path), "--config", str(config)]
        original = path.read_bytes()
        path.write_bytes(mutate(original, kind, at, byte))
        try:
            try:
                load(path)
            except ViewretError as exc:
                assert str(path) in str(exc)
            capsys.readouterr()
            code = run(argv)
            captured = capsys.readouterr()
        finally:
            path.write_bytes(original)
        assert code in (0, 2) and "Traceback" not in captured.err
        if code == 2:
            assert (captured.err.startswith(f"viewret {command}: error: ")
                    and captured.err.count("\n") == 1)
        elif command == "query":
            # one model, so the last token is its distance whatever its id holds
            assert np.isfinite(float(captured.out.split()[-1]))


class TestDumpGrid:
    def test_one_csv_under_either_method(self, cloud_file, tmp_path):
        grids = []
        for method in ("proposed", "ransac"):
            out = tmp_path / f"grid-{method}.csv"
            assert run(["select", "--input", str(cloud_file), "--resolutions", "32,64,128",
                        "--method", method, "--dump-grid", str(out)]) == 0
            grids.append(out.read_bytes())
        lines = grids[0].decode().splitlines()
        assert lines[0] == "viewpoint_index,resolution,Q,D"
        assert len(lines) == 1 + 20 * 3
        assert grids[1] == grids[0]

    def test_ransac_scores_the_grid_only_for_the_dump(self, cloud_file, tmp_path, monkeypatch):
        def scored(*args, **kwargs):
            raise AssertionError("the grid was scored without --dump-grid")

        monkeypatch.setattr("viewret.cli.score_grid", scored)
        assert run(["select", "--input", str(cloud_file), "--resolutions", "32,64",
                    "--method", "ransac"]) == 0

    def test_a_refused_ransac_leaves_no_grid(self, tmp_path, capsys):
        cloud = tmp_path / "two.xyz"
        cloud.write_text("0 0 0\n1 0 0\n")
        grid = tmp_path / "grid.csv"
        assert run(["select", "--input", str(cloud), "--method", "ransac",
                    "--dump-grid", str(grid)]) == 2
        assert capsys.readouterr().err == ("viewret select: error: plane fitting needs at least "
                                           "3 points\n")
        assert not grid.exists()

    def test_grid_dump_command_is_gone(self, cloud_file, capsys):
        assert run(["grid-dump", "--input", str(cloud_file)]) == 1
        assert "invalid choice: 'grid-dump'" in capsys.readouterr().err


def write_every_field(config, path):
    """Every PipelineConfig field as a `key = value` line, ladder joined by commas."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in asdict(config).items():
            if key == "resolutions":
                value = ",".join(str(r) for r in value)
            fh.write(f"{key} = {value}\n")


def test_run_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert [run([]), run([]), run(["normalize"])] == [1, 1, 1]
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    assert capsys.readouterr().err.count("usage: viewret") == 3


class TestConfigSchema:
    def test_every_field_round_trips(self, cloud_file, tmp_path, capsys):
        path = tmp_path / "every.cfg"
        for config in (PipelineConfig(), PipelineConfig(keypoint_decay=2.5, resolutions=(32, 64),
                                                         seed=0)):
            write_every_field(config, path)
            assert PipelineConfig(**_load_config_file(path)) == config
        write_every_field(PipelineConfig(), path)
        assert run(["select", "--input", str(cloud_file), "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("viewpoint_index ")

    def test_byte_that_is_not_utf8_names_its_line(self, cloud_file, tmp_path, capsys):
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"seed = 3\n# d\xe9faut\n")
        capsys.readouterr()
        assert run(["select", "--input", str(cloud_file), "--config", str(path)]) == 2
        assert capsys.readouterr().err == (f"viewret select: error: {path}:2: "
                                           f"byte 0xe9 is not UTF-8\n")

    def test_resolutions_flag_and_key_give_one_grid(self, cloud_file, tmp_path):
        config = tmp_path / "ladder.cfg"
        config.write_text("resolutions = 32 64\n")
        grids = []
        for index, flags in enumerate((["--resolutions", "32,64"], ["--resolutions", "32 64"],
                                       ["--resolutions", "32, 64"], ["--config", str(config)])):
            out = tmp_path / f"grid{index}.csv"
            assert run(["select", "--input", str(cloud_file), *flags, "--dump-grid", str(out)]) == 0
            grids.append(out.read_bytes())
        assert grids[1:] == grids[:1] * 3
        assert b"\n0,64," in grids[0]

    @pytest.mark.parametrize("line", ["gaussians = abc", "keypoint_decay = x",
                                      "seed = 1.5", "resolutions = 32,x", "resolutions = ,",
                                      "keypoint_decay = nan", "keypoint_decay = inf",
                                      "keypoint_decay = 1e400", "keypoint_decay = -inf"])
    def test_bad_value_names_file_line_and_key(self, cloud_file, tmp_path, capsys, line):
        config = tmp_path / "bad.cfg"
        config.write_text(f"# desk\nn_keypoints = 30\n{line}\n")
        key = line.split("=")[0].strip()
        assert run(["select", "--input", str(cloud_file), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{config}:3" in err and repr(key) in err

    def test_a_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("seed = 3\n# again\nseed = 5\n")
        with pytest.raises(ViewretError) as refusal:
            _load_config_file(path)
        assert str(refusal.value) == f"{path}:3: key 'seed' repeats line 1"

    def test_ransac_tolerance_is_an_unknown_key(self, cloud_file, tmp_path, capsys):
        path = tmp_path / "tolerance.cfg"
        path.write_text("ransac_tolerance = 0.01\n")
        assert run(["select", "--input", str(cloud_file), "--method", "ransac",
                    "--config", str(path)]) == 2
        assert capsys.readouterr().err == (f"viewret select: error: {path}:1: "
                                           f"unknown config key 'ransac_tolerance'\n")

    def test_empty_resolutions_flag_is_usage_error(self, cloud_file, capsys):
        assert run(["select", "--input", str(cloud_file), "--resolutions", ""]) == 1
        assert "--resolutions" in capsys.readouterr().err


def _refused_before_this(*args, **kwargs):
    raise AssertionError("the run should have been refused before this call")


class TestBench:
    def test_tiny_bench_report(self, tmp_path):
        report = tmp_path / "report.csv"
        config = tmp_path / "bench.cfg"
        config.write_text("n_keypoints=40\ngaussians=2\nresolutions=32,64\ngmm_sample_cap=4000\n")
        code = run(["bench", "--cases", "prop-prop", "--classes", "2", "--scans-per-class", "2",
                    "--config", str(config), "--report", str(report), "--seed", "5"])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "case,metric,value"
        assert len(lines) == 4
        assert all(line.startswith("prop-prop,") for line in lines[1:])

    def test_pr_data_is_each_ranking_precision_recall_curve(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text("n_keypoints=40\ngaussians=2\nresolutions=32,64\ngmm_sample_cap=4000\n")
        pr = tmp_path / "pr.csv"
        assert run(["bench", "--cases", "prop-prop,gt-fixed", "--classes", "2",
                    "--scans-per-class", "2", "--config", str(config),
                    "--report", str(tmp_path / "report.csv"), "--pr-data", str(pr),
                    "--seed", "5"]) == 0
        dataset = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=5)
        config = desk_benchmark_config(seed=5).override(
            n_keypoints=40, gaussians=2, resolutions=(32, 64), gmm_sample_cap=4000)
        report = run_benchmark(dataset, ["prop-prop", "gt-fixed"], config, seed=5)
        want = ["case,query_id,recall,precision"]
        for name, result in report.cases.items():
            for entry, retrieval in zip(dataset, result.retrievals):
                want += [f"{name},{entry.model_id},{recall:.10f},{precision:.10f}"
                         for recall, precision in precision_recall_curve(retrieval)]
        assert len(want) == 1 + 2 * 4 * 3   # two cases, four queries, three ranked models each
        assert pr.read_text().splitlines() == want

    def test_pr_data_without_a_relevant_model_writes_no_file(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr("viewret.cli.make_synthetic_dataset", _refused_before_this)
        monkeypatch.setattr("viewret.cli.run_benchmark", _refused_before_this)
        config = tmp_path / "bench.cfg"
        config.write_text("n_keypoints=40\ngaussians=2\nresolutions=32,64\ngmm_sample_cap=4000\n")
        report, pr = tmp_path / "report.csv", tmp_path / "pr.csv"
        assert run(["bench", "--cases", "prop-prop", "--classes", "2", "--scans-per-class", "1",
                    "--config", str(config), "--report", str(report), "--pr-data", str(pr),
                    "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no relevant items" in err
        assert not report.exists() and not pr.exists()

    @pytest.mark.parametrize("cases, message", [
        (",", "no case requested"), ("", "no case requested"),
        ("prop-prop,prop-prop", "case prop-prop is requested twice"),
        ("gt-gt", "unknown case 'gt-gt'; expected one of gt-prop,gt-fixed,prop-prop,prop-fixed,"
                  "ransac-prop,ransac-fixed")])
    def test_no_case_or_a_repeated_one_writes_no_file(self, tmp_path, capsys, monkeypatch,
                                                      cases, message):
        monkeypatch.setattr("viewret.cli.make_synthetic_dataset", _refused_before_this)
        monkeypatch.setattr("viewret.cli.run_benchmark", _refused_before_this)
        report, pr = tmp_path / "report.csv", tmp_path / "pr.csv"
        assert run(["bench", "--cases", cases, "--classes", "2", "--scans-per-class", "2",
                    "--report", str(report), "--pr-data", str(pr)]) == 2
        err = capsys.readouterr().err
        assert err == f"viewret bench: error: {message}\n"
        assert not report.exists() and not pr.exists()

    @pytest.mark.parametrize("flags", [["--classes", "9"], ["--classes", "0"],
                                       ["--classes", "-1"], ["--scans-per-class", "0"]])
    def test_dataset_size_out_of_range_is_data_error(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr("viewret.cli.run_benchmark", _refused_before_this)
        report = tmp_path / "report.csv"
        assert run(["bench", "--report", str(report)] + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("viewret bench: error: ")
        assert not report.exists()


class TestConfigRefusals:
    """Every out-of-range field is refused where the config is built, naming its key."""

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be non-negative, got -1"),
        ("gmm_sample_cap", 0, "gmm_sample_cap must be at least 1, got 0"),
        ("gmm_sample_cap", -5, "gmm_sample_cap must be at least 1, got -5"),
        ("gaussians", 0, "gaussians must be at least 1, got 0"),
        ("n_keypoints", 0, "n_keypoints must be at least 1, got 0"),
        ("ransac_iterations", 0, "ransac_iterations must be at least 1, got 0"),
        ("keypoint_decay", 0.5, "keypoint_decay must be at least 1, got 0.5"),
        ("keypoint_decay", float("nan"), "keypoint_decay must be at least 1, got nan"),
        ("resolutions", (), "resolutions must hold at least one rung"),
        ("resolutions", (32, 9000), r"resolutions rung 9000 is outside \[32, 8192\]"),
        ("resolutions", (7,), r"resolutions rung 7 is outside \[32, 8192\]"),
        ("resolutions", (8, 32), r"resolutions rung 8 is outside \[32, 8192\]"),
        ("resolutions", (32, 31), r"resolutions rung 31 is outside \[32, 8192\]"),
        ("db_resolution", 9000, r"db_resolution 9000 is outside \[32, 8192\]"),
        ("db_resolution", 4, r"db_resolution 4 is outside \[32, 8192\]"),
        ("db_resolution", 16, r"db_resolution 16 is outside \[32, 8192\]"),
        ("gmm_sample_cap", 100, r"gmm_sample_cap 100 is below \d+, the 10 rows per component "
                                r"that gaussians = \d+ needs"),
        ("resolutions", (32, 32, 64, 128), "resolutions rung 32 is repeated"),
        ("resolutions", (64, 32, 128, 32), "resolutions rung 32 is repeated"),
        ("resolutions", (32.5, 64), r"resolutions rung 32\.5 is not an integer"),
        ("resolutions", (32, 64.0), r"resolutions rung 64\.0 is not an integer"),
        ("gaussians", 2.5, r"gaussians must be an integer, got 2\.5"),
        ("seed", 1.5, r"seed must be an integer, got 1\.5"),
        ("n_keypoints", "5", "n_keypoints must be an integer, got '5'"),
        ("ransac_iterations", 10.0, r"ransac_iterations must be an integer, got 10\.0"),
        ("db_resolution", 256.0, r"db_resolution must be an integer, got 256\.0"),
        ("gmm_sample_cap", 5000.0, r"gmm_sample_cap must be an integer, got 5000\.0"),
        ("threads", None, "threads must be an integer, got None"),
        ("keypoint_decay", "2", "keypoint_decay must be a real number, got '2'")])
    def test_the_config_refuses_it(self, key, value, message):
        with pytest.raises(ViewretError, match=message):
            PipelineConfig(**{key: value})
        with pytest.raises(ViewretError, match=message):
            desk_benchmark_config().override(**{key: value})

    def test_numpy_numbers_are_kept(self):
        config = PipelineConfig(resolutions=(np.int64(32), np.uint16(64)), seed=np.int32(3),
                                gaussians=np.int8(4), keypoint_decay=np.float32(2.0))
        assert config.resolutions == (32, 64) and config.seed == 3

    def test_select_refuses_a_repeated_rung(self, cloud_file, capsys):
        assert run(["select", "--input", str(cloud_file), "--resolutions", "32,32,64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "viewret select: error: resolutions rung 32 is repeated\n"

    def test_rungs_at_the_bounds_are_kept(self):
        assert PipelineConfig(resolutions=(32, 8192)).resolutions == (32, 8192)
        assert desk_benchmark_config().override(resolutions=(8192, 32)).resolutions == (8192, 32)

    @pytest.mark.parametrize("command", ["fit-gmm", "bench"])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_fit_gmm_and_bench_refuse_before_any_view(self, tmp_path, capsys, monkeypatch,
                                                      mesh_file, command, how):
        monkeypatch.setattr("viewret.encode.database_views", _refused_before_this)
        monkeypatch.setattr("viewret.cli.make_synthetic_dataset", _refused_before_this)
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"sphere 0 {mesh_file}\n")
        config = tmp_path / "bad.cfg"
        config.write_text("gmm_sample_cap = -5\n")
        argv = (["fit-gmm", "--input", str(manifest), "--output", str(tmp_path / "m.gmm")]
                if command == "fit-gmm" else ["bench", "--report", str(tmp_path / "r.csv")])
        argv += ["--seed", "-1"] if how == "flag" else ["--config", str(config)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        key = "seed" if how == "flag" else "gmm_sample_cap"
        assert err.count("\n") == 1 and err.startswith(f"viewret {command}: error: {key} ")
        assert not any(p.suffix in (".gmm", ".csv") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("command, line", [("fit-gmm", "gaussians = 0"),
                                               ("build-db", "db_resolution = 9000"),
                                               ("bench", "ransac_iterations = 0")])
    def test_a_stage_key_is_named_before_any_view(self, tmp_path, capsys, monkeypatch,
                                                  mesh_file, command, line):
        monkeypatch.setattr("viewret.encode.database_views", _refused_before_this)
        monkeypatch.setattr("viewret.cli.make_synthetic_dataset", _refused_before_this)
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"sphere 0 {mesh_file}\n")
        config = tmp_path / "bad.cfg"
        config.write_text(f"{line}\n")
        gmm = tmp_path / "ok.gmm"
        vio.write_gmm(GmmParams(np.full(2, 0.5), np.zeros((2, 128)), np.ones((2, 128))), gmm)
        out = tmp_path / "out"
        argv = {"fit-gmm": ["fit-gmm", "--input", str(manifest), "--output", str(out)],
                "build-db": ["build-db", "--input", str(manifest), "--gmm", str(gmm),
                             "--output", str(out)],
                "bench": ["bench", "--report", str(out)]}[command]
        assert run([*argv, "--config", str(config)]) == 2
        key, value = (part.strip() for part in line.split("="))
        err = capsys.readouterr().err
        assert err.startswith(f"viewret {command}: error: {key} ") and value in err
        assert err.count("\n") == 1 and not out.exists()

    def test_scan_sim_refuses_a_negative_seed(self, mesh_file, tmp_path, capsys):
        out = tmp_path / "scan.xyz"
        assert run(["scan-sim", "--mesh", str(mesh_file), "--scanner-pos", "3,1.8,1.2",
                    "--noise-sigma", "0.01", "--seed", "-1", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "viewret scan-sim: error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_fit_gmm_refuses_an_unfittable_pool_before_any_render(self, tmp_path, capsys,
                                                                   monkeypatch, mesh_file):
        monkeypatch.setattr("viewret.encode.render_mesh", _refused_before_this)
        manifest = tmp_path / "models.txt"
        manifest.write_text(f"sphere 0 {mesh_file}\n")
        config = tmp_path / "pool.cfg"
        config.write_text("gaussians = 32\ngmm_sample_cap = 100\n")
        out = tmp_path / "m.gmm"
        assert run(["fit-gmm", "--input", str(manifest), "--config", str(config),
                    "--output", str(out)]) == 2
        assert capsys.readouterr().err == ("viewret fit-gmm: error: gmm_sample_cap 100 is below "
                                           "320, the 10 rows per component that gaussians = 32 "
                                           "needs\n")
        assert not out.exists()

    def test_flags_and_file_values_are_checked_together(self, tmp_path):
        config = tmp_path / "pool.cfg"
        config.write_text("gmm_sample_cap = 100\n")
        args = cli._parser().parse_args(["fit-gmm", "--input", "models.txt", "--output", "m.gmm",
                                         "--config", str(config), "--gaussians", "2"])
        effective = cli._effective_config(args)
        assert (effective.gaussians, effective.gmm_sample_cap) == (2, 100)

    @pytest.mark.parametrize("command", ["fit-gmm", "build-db", "query", "bench"])
    def test_a_rung_too_small_to_describe_is_refused_before_any_input(self, tmp_path, capsys,
                                                                       monkeypatch, command):
        monkeypatch.setattr("viewret.cli.make_synthetic_dataset", lambda **kwargs: [])
        monkeypatch.setattr("viewret.evaluate._prepare_scan", _refused_before_this)
        config = tmp_path / "rungs.cfg"
        config.write_text("resolutions = 32,16\n")
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        argv = {"fit-gmm": ["fit-gmm", "--input", missing, "--output", str(out)],
                "build-db": ["build-db", "--input", missing, "--gmm", missing,
                             "--output", str(out)],
                "query": ["query", "--input", missing, "--db", missing, "--gmm", missing,
                          "--output", str(out)],
                "bench": ["bench", "--report", str(out)]}[command]
        assert run([*argv, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"viewret {command}: error: resolutions rung 16 is outside "
                              f"[32, 8192]")
        assert err.count("\n") == 1 and not out.exists()


    def test_bench_refuses_a_rung_too_small_to_describe_before_any_scan(self, tmp_path, capsys,
                                                                         monkeypatch):
        monkeypatch.setattr("viewret.cli.make_synthetic_dataset", _refused_before_this)
        config = tmp_path / "rungs.cfg"
        config.write_text("resolutions = 16,32\n")
        out = tmp_path / "report.csv"
        assert run(["bench", "--config", str(config), "--report", str(out)]) == 2
        assert capsys.readouterr().err == ("viewret bench: error: resolutions rung 16 is outside "
                                           "[32, 8192]\n")
        assert not out.exists()


class TestOutputRefusals:
    """An output the writer cannot open is refused before any input is read."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for target in ("viewret.io.load_xyz", "viewret.io.load_obj", "viewret.io.load_geometry",
                       "viewret.io.load_manifest", "viewret.io.read_gmm",
                       "viewret.encode.render_mesh", "viewret.cli.render_point_cloud",
                       "viewret.cli.fit_gmm", "viewret.cli.make_synthetic_dataset"):
            monkeypatch.setattr(target, _refused_before_this)

    @pytest.mark.parametrize("argv", [
        ["normalize", "--input", "in.xyz", "--output"],
        ["render", "--input", "in.obj", "--viewpoint-index", "0", "--resolution", "32", "--output"],
        ["select", "--input", "in.xyz", "--dump-grid"],
        ["scan-sim", "--mesh", "in.obj", "--scanner-pos", "3,1.8,1.2", "--output"],
        ["fit-gmm", "--input", "models.txt", "--output"],
        ["build-db", "--input", "models.txt", "--gmm", "in.gmm", "--output"],
        ["query", "--input", "in.xyz", "--db", "in.fvdb", "--gmm", "in.gmm", "--output"],
        ["bench", "--report"], ["bench", "--pr-data"]], ids=" ".join)
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_is_refused_before_any_work(self, tmp_path, capsys, argv, where):
        if where == "directory":
            path = str(tmp_path)
            message = f"[Errno 21] Is a directory: {path!r}"
        else:
            path = str(tmp_path / "nodir" / "x.out")
            message = f"[Errno 2] No such file or directory: {path!r}"
        assert run([*argv, path]) == 2
        assert capsys.readouterr().err == f"viewret {argv[0]}: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_matches_the_writers_own_refusal(self, tmp_path):
        path = str(tmp_path / "nodir" / "x.gmm")
        with pytest.raises(OSError) as writer:
            vio.write_gmm(GmmParams(np.full(2, 0.5), np.zeros((2, 128)), np.ones((2, 128))), path)
        args = cli._parser().parse_args(["fit-gmm", "--input", "models.txt", "--output", path])
        with pytest.raises(ViewretError) as check:
            cli._check_outputs(args)
        assert str(check.value) == str(writer.value)
