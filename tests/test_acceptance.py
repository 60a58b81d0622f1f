"""Acceptance gate: one test per headline property, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
The directional benchmark test at the end is the slow one (a few minutes,
single-threaded); everything else is seconds.
"""

import io
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import clean_noise_seeds, fold_image, wrapped_gaussian_oracle

from orbitpool import textures
from orbitpool.bench import (
    MatchConfig,
    SynthSpec,
    directional_benchmark,
    make_pair,
    match_pair,
    synth_pairs,
    save_pair,
)
from orbitpool.cli import main as cli_main
from orbitpool.descriptor import (
    DescriptorConfig,
    Keypoint,
    SizePrior,
    accumulate_grid,
    dsp_descriptor,
    single_size_descriptor,
)
from orbitpool.image import (
    MAG_EPSILON,
    AffineContrast,
    GammaContrast,
    SimilarityTransform,
    apply_contrast,
    compute_gradients,
    extract_patch,
    gradient_field_of_array,
    apply_contrast_raw,
    warp,
)
from orbitpool.orientation import (
    CircularKernel,
    SpatialKernel,
    bin_centers,
    normalize,
    pooled_histogram,
)
from orbitpool.scattering import build_filter_bank, dsp_scatter, scatter
from orbitpool.soa import GroupSampleSet, build_template, soa_likelihood
from orbitpool.textures import benchmark_bases


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


BANK = build_filter_bank()


class TestAcceptance:
    def test_affine_contrast_invariance(self):
        """Descriptors of a*x+b on the unclipped path match the originals."""
        start = time.perf_counter()
        seeds = clean_noise_seeds(10)
        kp = Keypoint(15.5, 15.5, 3.2)
        worst = 0.0
        for seed in seeds:
            img = textures.filtered_noise(32, 32, seed=seed)
            base = dsp_descriptor(compute_gradients(img), kp).values
            for a in (0.5, 2.0):
                for b in (-0.1, 0.1):
                    raw = apply_contrast_raw(img, AffineContrast(a, b))
                    mapped = dsp_descriptor(gradient_field_of_array(raw), kp).values
                    rel = np.abs(mapped - base) / np.maximum(np.abs(base), 1e-12)
                    worst = max(worst, float(rel.max()))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-6 and elapsed < 10.0
        _report(
            "affine contrast invariance (10 patches, 1e-6 relative, < 10 s)",
            ok,
            f"worst rel {worst:.2e}, {elapsed:.1f} s",
        )

    def test_monotone_contrast_argmax_invariance(self):
        """Gamma maps leave the pooled-histogram argmax bin unchanged."""
        patches = []
        rng = np.random.default_rng(404)
        for _ in range(8):
            patches.append(textures.ramp(33, 33, angle=float(rng.uniform(0, 2 * np.pi))))
        patches.append(fold_image(side=33, skew=0.6))

        kern = CircularKernel(2.0 * np.pi / 8.0)
        spatial = SpatialKernel(4.0)
        checked = 0
        ok = True
        detail = ""
        for img in patches:
            field = compute_gradients(img)
            sel = field.valid[6:-6, 6:-6]
            if not sel.all() or field.magnitude[6:-6, 6:-6].min() <= 10 * MAG_EPSILON:
                continue
            h0 = pooled_histogram(field, img.center, 10.0, spatial, kern, bins=8)
            ref = int(np.argmax(h0.bins))
            for gamma in (0.5, 2.0):
                g = apply_contrast(img, GammaContrast(gamma))
                gf = compute_gradients(g)
                if gf.magnitude[6:-6, 6:-6].min() <= 10 * MAG_EPSILON:
                    continue
                hg = pooled_histogram(gf, img.center, 10.0, spatial, kern, bins=8)
                checked += 1
                if int(np.argmax(hg.bins)) != ref:
                    ok = False
                    detail = f"argmax moved on gamma={gamma}"
        ok = ok and checked >= 12
        _report(
            "monotone contrast argmax invariance (gamma 0.5 and 2)",
            ok,
            detail or f"{checked} patch-gamma combinations",
        )

    def test_delta_prior_reduction(self):
        """Single-sample priors reduce to the single-size operators."""
        ok = True
        details = []
        for seed in (21, 22, 23):
            img = textures.filtered_noise(64, 64, seed=seed)
            field = compute_gradients(img)
            kp = Keypoint(31.5, 31.5, 6.0)
            cfg = DescriptorConfig()

            pre_single = accumulate_grid(field, kp, (kp.base_size * cfg.support_factor,), (1.0,), cfg)
            pre_pooled = 1.0 * pre_single
            if pre_single.tobytes() != pre_pooled.tobytes():
                ok = False
                details.append("pre-normalization grids differ bitwise")

            d_single = single_size_descriptor(field, kp, kp.base_size * cfg.support_factor)
            d_delta = dsp_descriptor(field, kp, SizePrior.delta())
            if not np.array_equal(d_single.values, d_delta.values):
                ok = False
                details.append("descriptor delta prior not exact")
            if not np.allclose(d_single.values, d_delta.values, rtol=0, atol=1e-12):
                ok = False
                details.append("descriptor delta prior beyond 1e-12")

            s_delta = dsp_scatter(img, kp, SizePrior.delta(), bank=BANK).flatten()
            patch = extract_patch(img, (kp.u, kp.v), kp.base_size * 3.0, 32)
            s_single = scatter(patch, BANK).flatten()
            if not np.array_equal(s_delta, s_single):
                ok = False
                details.append("scattering delta prior not exact")
            if not np.allclose(s_delta, s_single, rtol=0, atol=1e-12):
                ok = False
                details.append("scattering delta prior beyond 1e-12")
        _report(
            "delta prior reduction (bit-level pre-normalization, 1e-12 after)",
            ok,
            "; ".join(sorted(set(details))) or "exact on 3 seeds",
        )

    def test_soa_group_closure(self):
        """Quarter-turn queries permute the per-sample scores exactly."""
        kp = Keypoint(31.5, 31.5, 6.6)
        samples = GroupSampleSet.rotation_group(4)
        worst = 0.0
        ok = True
        for seed in (301, 302, 303, 304, 305):
            img = textures.filtered_noise(64, 64, seed=seed)
            template = build_template(img, kp, samples)
            base = soa_likelihood(
                template, single_size_descriptor(compute_gradients(img), kp, 3.0 * kp.base_size)
            )
            for k in (1, 2, 3):
                rotated, _ = warp(img, SimilarityTransform(rotation=np.pi * k / 2.0))
                q = single_size_descriptor(compute_gradients(rotated), kp, 3.0 * kp.base_size)
                res = soa_likelihood(template, q)
                worst = max(worst, abs(res.value - base.value))
                expect = ((base.argmax_index - 1 + k) % 4) + 1
                if res.argmax_index != expect:
                    ok = False
        ok = ok and worst < 1e-6
        _report(
            "group closure of the orbit likelihood (5 templates, 1e-6)",
            ok,
            f"worst value drift {worst:.2e}",
        )

    def test_wrapped_kernel_correctness(self):
        """Unit mass and truncation accuracy of the circular kernel."""
        thetas = np.linspace(-np.pi, np.pi, 4001, endpoint=False)
        step = 2.0 * np.pi / 4001
        worst_mass = 0.0
        worst_trunc = 0.0
        for eps in (0.1, 0.25, 2.0 * np.pi / 8.0, 0.5, 1.0):
            kern = CircularKernel(eps)
            mass = float(np.sum(kern(thetas)) * step)
            worst_mass = max(worst_mass, abs(mass - 1.0))
            for delta in np.linspace(-np.pi, np.pi, 17):
                ref = wrapped_gaussian_oracle(delta, eps, wraps=50)
                worst_trunc = max(worst_trunc, abs(kern(delta) - ref))
        ok = worst_mass < 1e-6 and worst_trunc < 1e-6
        _report(
            "wrapped gaussian kernel (unit mass, 5 vs 50 wraps, 1e-6)",
            ok,
            f"mass err {worst_mass:.2e}, truncation err {worst_trunc:.2e}",
        )

    def test_scattering_sanity(self):
        """Constant kill, sinusoid selectivity vs a dense oracle, fft agreement."""
        flat = textures.ramp(32, 32, lo=0.6, hi=0.6)
        vec = scatter(flat, BANK)
        const_ok = float(vec.order1.max()) < 1e-6 and float(vec.order2.max()) < 1e-6

        def rolled_order1(img):
            """Dense-convolution oracle: modulus via explicit shifts, then phi."""
            weights = np.exp(
                -((np.arange(32.0)[None, :] - 15.5) ** 2 + (np.arange(32.0)[:, None] - 15.5) ** 2)
                / (2.0 * BANK.phi_sigma**2)
            )
            weights /= weights.sum()
            out = np.zeros((3, 8))
            for j in range(3):
                for l in range(8):
                    kern = BANK.kernels[j][l]
                    r = kern.shape[0] // 2
                    acc = np.zeros((32, 32), dtype=complex)
                    for ky in range(-r, r + 1):
                        for kx in range(-r, r + 1):
                            acc += kern[ky + r, kx + r] * np.roll(
                                img.values, (ky, kx), axis=(0, 1)
                            )
                    out[j, l] = float(np.sum(np.abs(acc) * weights))
            return out

        xi = 3.0 * np.pi / 4.0
        sweep_ok = True
        for freq in (xi, xi / 1.5, xi / 2.0, xi / 3.0, xi / 4.0):
            img = textures.grating(32, 32, freq=freq, angle=2.0 * np.pi / 8.0)
            got = scatter(img, BANK, order=1).order1
            oracle = rolled_order1(img)
            gj, gl = np.unravel_index(int(np.argmax(got)), got.shape)
            oj, ol = np.unravel_index(int(np.argmax(oracle)), oracle.shape)
            # rotations l and l+4 are conjugate filters, an exact tie on real
            # input, so compare the rotation index mod 4
            if gj != oj or gl % 4 != ol % 4:
                sweep_ok = False

        noise = textures.filtered_noise(48, 48, seed=77)
        a = scatter(noise, BANK, method="fft").flatten()
        b = scatter(noise, BANK, method="direct").flatten()
        fft_err = float(np.max(np.abs(a - b)))
        ok = const_ok and sweep_ok and fft_err < 1e-6
        _report(
            "scattering sanity (constant, 5-frequency sweep, fft vs direct)",
            ok,
            f"fft-direct err {fft_err:.2e}",
        )

    def test_first_layer_kinship(self):
        """Finest-scale order-1 coefficients track the orientation histogram."""
        kern = CircularKernel(2.0 * np.pi / 8.0)
        svals, hvals = [], []
        count = 0
        for k in range(60):
            ang = (k * 2.399) % (2 * np.pi)
            img = textures.oriented_noise(32, 32, seed=900 + k, angle=ang)
            field = compute_gradients(img)
            c = (img.width - 1) / 2.0
            h = normalize(pooled_histogram(field, (c, c), 12.0, SpatialKernel(8.0), kern, bins=8))
            s = scatter(img, BANK, order=1).order1[0]
            # a rotation-l filter answers for gradients at both l and l+4:
            # orientation is a direction, the filter only sees the axis
            folded = h.bins + np.roll(h.bins, -4)
            svals.extend(s)
            hvals.extend(folded)
            count += 1
        rho = float(spearmanr(svals, hvals).statistic)
        ok = count >= 50 and rho >= 0.7
        _report(
            "first-layer kinship with orientation histograms (Spearman >= 0.7)",
            ok,
            f"rho {rho:.3f} over {count} patches",
        )

    def test_occlusion_robustness(self):
        """25% occluders: modest precision drop, no credit inside the box."""
        bases = benchmark_bases(8)[2:]
        mcfg = MatchConfig(ratio=0.8)
        precision = {}
        audit_ok = True
        for occ in (0.0, 0.25):
            total_correct = total_accepted = 0
            for i, base in enumerate(bases):
                pair = make_pair(base, SynthSpec(occlusion=occ), np.random.default_rng([11, i]))
                pm = match_pair(pair, "dsp-sift", mcfg)
                total_accepted += len(pm.records)
                total_correct += sum(r.correct for r in pm.records)
                if pair.occluder is not None:
                    u0, v0, rw, rh = pair.occluder
                    assert not pair.covisible_mask[v0 : v0 + rh, u0 : u0 + rw].any()
                    for r in pm.records:
                        if r.correct:
                            if not (r.covisible_ref and r.covisible_matched):
                                audit_ok = False
                            pu, pv = r.projected
                            if u0 <= round(pu) < u0 + rw and v0 <= round(pv) < v0 + rh:
                                audit_ok = False
            precision[occ] = total_correct / total_accepted
        degradation = (precision[0.0] - precision[0.25]) / precision[0.0]
        ok = degradation < 0.5 and audit_ok
        _report(
            "occlusion robustness (precision@0.8 drop < 50%, mask audit)",
            ok,
            f"degradation {degradation:.1%}",
        )

    def test_end_to_end_determinism(self, tmp_path, capsys):
        """Two eval runs over the same pair directory emit identical bytes."""
        bases = [textures.filtered_noise(72, 72, seed=60 + i, smooth=1.8) for i in range(2)]
        pairs = synth_pairs(bases, SynthSpec(scale_range=(0.8, 1.2), occlusion=0.15), seed=5)
        pairs_dir = tmp_path / "pairs"
        for pair in pairs:
            save_pair(pair, pairs_dir / pair.name)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            rv = cli_main(
                ["eval", "--pairs", str(pairs_dir), "--kinds", "sift,dsp-sift", "--out", str(out)]
            )
            assert rv == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        ok = outs[0] == outs[1] and len(outs[0]) > 0
        _report("end-to-end determinism (byte-identical eval reports)", ok)

    def test_directional_dsp_claim(self):
        """Size pooling helps both descriptor families under scale changes."""
        start = time.perf_counter()
        report = directional_benchmark()
        elapsed = time.perf_counter() - start
        m = report.mean_ap
        ok = (
            m["dsp-sift"] >= m["sift"]
            and m["dsp-sc"] >= m["sc"]
            and elapsed < 300.0
        )
        _report(
            "directional size-pooling claim (20 bases x 4 scales, < 5 min)",
            ok,
            f"dsp-sift {m['dsp-sift']:.3f} vs sift {m['sift']:.3f}, "
            f"dsp-sc {m['dsp-sc']:.3f} vs sc {m['sc']:.3f}, {elapsed:.0f} s",
        )
