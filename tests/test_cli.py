import numpy as np
import numpy.testing as npt
import pytest

from orbitpool.bench import KINDS, MatchConfig, describe
from orbitpool.cli import main
from orbitpool.descriptor import grid_keypoints, read_rows
from orbitpool.image import load_image, save_pgm
from orbitpool import textures
from conftest import gaussian_blob


@pytest.fixture
def ramp_file(tmp_path):
    path = tmp_path / "ramp.pgm"
    save_pgm(textures.ramp(64, 64, angle=0.4), path)
    return str(path)


@pytest.fixture
def noise_file(tmp_path):
    path = tmp_path / "noise.pgm"
    save_pgm(textures.filtered_noise(64, 64, seed=31, smooth=1.8), path)
    return str(path)


@pytest.fixture
def base_dir(tmp_path):
    d = tmp_path / "bases"
    d.mkdir()
    for i in range(2):
        save_pgm(textures.filtered_noise(72, 72, seed=40 + i, smooth=1.8), d / f"base{i}.pgm")
    return d


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["describe", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_bad_int_flag(self, capsys):
        assert main(["synth", "--bases", "x", "--out", "y", "--seed", "soon"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["match", "--kind", "sift"]) == 1


class TestDataErrors:
    def test_missing_image(self, capsys):
        assert main(["describe", "/nonexistent/image.pgm"]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not an image at all")
        assert main(["describe", str(bad)]) == 2

    def test_empty_base_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["synth", "--bases", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_occlusion(self, base_dir, tmp_path, capsys):
        rv = main(["synth", "--bases", str(base_dir), "--out", str(tmp_path / "o"),
                   "--occlusion", "0.9"])
        assert rv == 2

    def test_eval_on_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", "--pairs", str(empty)]) == 2

    def test_eval_on_malformed_meta(self, base_dir, tmp_path, capsys):
        pairs_dir = tmp_path / "pairs"
        assert main(["synth", "--bases", str(base_dir), "--out", str(pairs_dir)]) == 0
        meta = pairs_dir / "pair-000" / "meta.json"
        meta.write_text(meta.read_text().replace('"scale": 1.0', '"scale": "1.0"'))
        capsys.readouterr()
        assert main(["eval", "--pairs", str(pairs_dir), "--out", str(tmp_path / "r.csv")]) == 2
        assert "error: meta.json field 'scale'" in capsys.readouterr().err

    def test_bad_sample_spec(self, noise_file, capsys):
        assert main(["soa", "--template", noise_file, "--query", noise_file,
                     "--samples", "spin:9"]) == 2


class TestDescribe:
    def test_dsp_sift_on_ramp(self, ramp_file, capsys):
        assert main(["describe", ramp_file, "--kind", "dsp-sift"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("cells=4,bins=8")
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5 + 128

    def test_custom_grid_shape(self, noise_file, capsys):
        assert main(["describe", noise_file, "--kind", "sift", "--cells", "2", "--bins", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("cells=2,bins=4")
        assert len(lines[1].split(",")) == 5 + 2 * 2 * 4

    def test_sizes_flag_controls_prior(self, noise_file, capsys):
        assert main(["describe", noise_file, "--kind", "dsp-sift", "--sizes", "0.9,1.0,1.1"]) == 0
        pooled = capsys.readouterr().out
        assert main(["describe", noise_file, "--kind", "dsp-sift", "--sizes", "1.0"]) == 0
        delta = capsys.readouterr().out
        assert pooled != delta

    def test_scattering_rows(self, noise_file, capsys):
        assert main(["describe", noise_file, "--kind", "sc"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("order=2,length=216")
        assert len(lines[1].split(",")) == 5 + 216

    def test_infinite_size_rejected(self, noise_file, capsys):
        assert main(["describe", noise_file, "--kind", "dsp-sift", "--sizes", "1.0,inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size multiplier must be finite, got inf" in captured.err

    @pytest.mark.parametrize("kind", ["dsp-sift", "dsp-sc"])
    def test_overflowing_size_has_no_support(self, noise_file, kind, capsys):
        assert main(["describe", noise_file, "--kind", kind, "--sizes", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no keypoints with descriptor support" in captured.err

    @pytest.mark.parametrize("kind", ["sift", "sc"])
    def test_sizes_rejected_for_single_size_kinds(self, noise_file, kind, capsys):
        assert main(["describe", noise_file, "--kind", kind, "--sizes", "0.9,1.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sizes" in captured.err

    @pytest.mark.parametrize("sizes", ["", ","])
    def test_empty_sizes_rejected(self, noise_file, sizes, capsys):
        assert main(["describe", noise_file, "--kind", "dsp-sift", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "prior needs at least one sample" in captured.err
        assert main(["describe", noise_file, "--kind", "sift", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sizes" in captured.err

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_are_what_matching_compares(self, noise_file, tmp_path, kind):
        dest = tmp_path / "desc.csv"
        assert main(["describe", noise_file, "--kind", kind, "--out", str(dest)]) == 0
        with open(dest) as fh:
            _, rows = read_rows(fh)
        img = load_image(noise_file)
        kps = grid_keypoints(img, stride=16, base_size=8.0)
        mcfg = MatchConfig()
        kept, matrix, degenerate = describe(
            img, kps, kind, mcfg.prior, mcfg.descriptor, mcfg.scattering_bank()
        )
        assert [kp for kp, _, _ in rows] == [kps[i] for i in kept]
        assert [flag for _, flag, _ in rows] == degenerate.tolist()
        npt.assert_array_equal(np.stack([values for _, _, values in rows]), matrix)

    def test_out_file(self, ramp_file, tmp_path):
        dest = tmp_path / "desc.csv"
        assert main(["describe", ramp_file, "--out", str(dest)]) == 0
        assert dest.read_text().startswith("cells=4,bins=8")

    def test_dog_detector_on_blob(self, tmp_path, capsys):
        path = tmp_path / "blob.pgm"
        save_pgm(gaussian_blob(48, 48, center=(24.0, 24.0), sigma=3.0), path)
        assert main(["describe", str(path), "--dog", "--kind", "sift"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 2


class TestSynthMatchEval:
    def test_full_pipeline(self, base_dir, tmp_path, capsys):
        pairs_dir = tmp_path / "pairs"
        rv = main(["synth", "--bases", str(base_dir), "--out", str(pairs_dir),
                   "--seed", "5", "--scale-range", "1.1,1.3"])
        assert rv == 0
        assert (pairs_dir / "pair-000" / "meta.json").exists()
        assert (pairs_dir / "pair-001" / "reference.pgm").exists()
        capsys.readouterr()

        rv = main(["match", "--pair", str(pairs_dir / "pair-000"), "--kind", "sift"])
        assert rv == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "ref_u,ref_v,proj_u,proj_v,matched_u,matched_v,distance,ratio,correct"
        assert len(lines) > 1
        assert "candidates" in captured.err

        report = tmp_path / "report.csv"
        rv = main(["eval", "--pairs", str(pairs_dir), "--kinds", "sift,dsp-sift",
                   "--out", str(report)])
        assert rv == 0
        text = report.read_text()
        assert text.startswith("pair,kind,threshold,precision,recall\n")
        assert "mAP sift" in capsys.readouterr().out

    def test_eval_reports_are_byte_identical(self, base_dir, tmp_path, capsys):
        pairs_dir = tmp_path / "pairs"
        assert main(["synth", "--bases", str(base_dir), "--out", str(pairs_dir),
                     "--seed", "9", "--scale-range", "0.8,1.2", "--occlusion", "0.2"]) == 0
        r1, r2, r3 = tmp_path / "r1.csv", tmp_path / "r2.csv", tmp_path / "r3.csv"
        capsys.readouterr()
        assert main(["eval", "--pairs", str(pairs_dir), "--kinds", "sift", "--out", str(r1)]) == 0
        once = capsys.readouterr().out
        assert main(["eval", "--pairs", str(pairs_dir), "--kinds", "sift", "--out", str(r2)]) == 0
        # a kind named twice is evaluated, written and printed once
        assert main(["eval", "--pairs", str(pairs_dir), "--kinds", "sift,sift", "--out", str(r3)]) == 0
        assert r1.read_bytes() == r2.read_bytes() == r3.read_bytes()
        assert capsys.readouterr().out.split("\n")[2:] == once.replace("r1.csv", "r3.csv").split("\n")

    def test_synth_deterministic_across_runs(self, base_dir, tmp_path, capsys):
        d1, d2 = tmp_path / "p1", tmp_path / "p2"
        args = ["--bases", str(base_dir), "--seed", "3",
                "--scale-range", "0.7,1.4", "--contrast", "mixed", "--occlusion", "0.1"]
        assert main(["synth", *args, "--out", str(d1)]) == 0
        assert main(["synth", *args, "--out", str(d2)]) == 0
        for sub in ("pair-000", "pair-001"):
            for name in ("reference.pgm", "transformed.pgm", "mask.pgm", "meta.json"):
                assert (d1 / sub / name).read_bytes() == (d2 / sub / name).read_bytes()
        capsys.readouterr()


class TestSOACommand:
    def test_self_match_identity_argmax(self, noise_file, capsys):
        rv = main(["soa", "--template", noise_file, "--query", noise_file,
                   "--samples", "rot:4"])
        assert rv == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 6
        argmax = next(ln for ln in lines if ln.startswith("argmax"))
        assert argmax == "argmax 1"
        value = float(next(ln for ln in lines if ln.startswith("value")).split()[1])
        assert value >= 0.99

    def test_rotated_query_moves_argmax(self, tmp_path, capsys):
        from orbitpool.image import SimilarityTransform, warp

        img = textures.filtered_noise(64, 64, seed=55, smooth=1.8)
        rotated, _ = warp(img, SimilarityTransform(rotation=np.pi / 2.0))
        t_path, q_path = tmp_path / "t.pgm", tmp_path / "q.pgm"
        save_pgm(img, t_path)
        save_pgm(rotated, q_path)
        assert main(["soa", "--template", str(t_path), "--query", str(q_path)]) == 0
        out = capsys.readouterr().out
        assert "argmax 2" in out

    def test_default_samples_spec(self, noise_file, capsys):
        rv = main(["soa", "--template", noise_file, "--query", noise_file,
                   "--samples", "default:delta"])
        assert rv == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 14  # 12 samples + argmax + value
        # identity sits second in each rotation's scale triple
        assert any(ln == "argmax 2" for ln in lines)
