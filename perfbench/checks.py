"""Output checks that do not trust the library's own arithmetic.

Each check returns a list of failure messages; an empty list is a pass.
They run outside the timed phase, on every run.

* ``histogram_oracle`` rebuilds a grid descriptor pixel by pixel in plain
  Python: cell assignment, Gaussian cell weight, wrapped-Gaussian vote
  summed over many turns, prior-weighted pooling, one l1 normalization.
* ``scattering_failures`` compares the FFT path of ``scatter`` with its
  direct-convolution reference and tests the conjugate symmetry a real
  patch must have (orientation l equals l + L/2).
* ``ap_from_rows`` recomputes average precision from the precision and
  recall rows a report writes, and checks that recall never falls as the
  ratio threshold rises.
* ``pooling_failures`` and ``orbit_failures`` test properties the method
  must have: pooling is no worse than a single size on scale pairs, and
  exact quarter-turn queries are found exactly by the orbit templates.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

HIST_TOL = 1e-9
FFT_TOL = 1e-9
SYMMETRY_TOL = 1e-12
AP_TOL = 1e-12
ORBIT_TOL = 1e-12


# ---------------------------------------------------------------------------
# histogram grids


def _wrapped_gaussian(delta, eps, wraps=8):
    total = 0.0
    for k in range(-wraps, wraps + 1):
        z = (delta + 2.0 * math.pi * k) / eps
        total += math.exp(-0.5 * z * z)
    return total / (eps * math.sqrt(2.0 * math.pi))


def oracle_grid(field, u, v, orientation, size, cells, bins, eps, kappa_fraction):
    """Un-normalized cells*cells*bins votes over one square window."""
    mag = field.magnitude.tolist()
    ori = field.orientation.tolist()
    valid = field.valid.tolist()
    half = size / 2.0
    cell = size / cells
    sigma = kappa_fraction * cell
    c, s = math.cos(-orientation), math.sin(-orientation)
    grid = [0.0] * (cells * cells * bins)
    for row in range(len(mag)):
        for col in range(len(mag[0])):
            if not valid[row][col]:
                continue
            du, dv = col - u, row - v
            ex = c * du - s * dv
            ey = s * du + c * dv
            if abs(ex) > half or abs(ey) > half:
                continue
            ix = min(max(math.floor((ex + half) / cell), 0), cells - 1)
            iy = min(max(math.floor((ey + half) / cell), 0), cells - 1)
            ox = ex - ((ix + 0.5) * cell - half)
            oy = ey - ((iy + 0.5) * cell - half)
            weight = mag[row][col] * math.exp(-0.5 * (ox * ox + oy * oy) / (sigma * sigma))
            rel = (ori[row][col] - orientation) % (2.0 * math.pi)
            base = (iy * cells + ix) * bins
            for b in range(bins):
                grid[base + b] += weight * _wrapped_gaussian(2.0 * math.pi * b / bins - rel, eps)
    return grid


def oracle_descriptor(field, kp, sides, weights, cfg):
    """Prior-weighted pooling of oracle grids, l1-normalized once."""
    eps = cfg.bandwidth if cfg.bandwidth is not None else 2.0 * math.pi / cfg.bins
    pooled = [0.0] * (cfg.cells * cfg.cells * cfg.bins)
    for side, weight in zip(sides, weights):
        grid = oracle_grid(
            field, kp.u, kp.v, kp.orientation, side, cfg.cells, cfg.bins, eps, cfg.kappa_fraction
        )
        pooled = [p + weight * g for p, g in zip(pooled, grid)]
    total = sum(pooled)
    if total <= 0:
        return [1.0 / len(pooled)] * len(pooled)
    return [p / total for p in pooled]


def histogram_failures(name, expected, values):
    """Compare an oracle vector with a library descriptor's values."""
    if len(expected) != len(values):
        return [f"{name}: length {len(values)} != oracle {len(expected)}"]
    worst = max(abs(a - float(b)) for a, b in zip(expected, values))
    if not worst <= HIST_TOL:
        return [f"{name}: differs from the pixel oracle by {worst:.3g}"]
    return []


# ---------------------------------------------------------------------------
# scattering


def scattering_failures(name, fft_vec, direct_vec=None):
    """FFT path against the direct reference, and conjugate symmetry."""
    out = []
    if direct_vec is not None:
        a, b = fft_vec.flatten(), direct_vec.flatten()
        worst = float(abs(a - b).max())
        if not worst <= FFT_TOL:
            out.append(f"{name}: FFT and direct scattering differ by {worst:.3g}")
    o1, o2 = fft_vec.order1, fft_vec.order2
    L = o1.shape[1]
    h = L // 2
    gaps = [
        float(abs(o1[:, :h] - o1[:, h:]).max()),
        float(abs(o2[:, :h, :] - o2[:, h:, :]).max()) if o2.size else 0.0,
        float(abs(o2[:, :, :h] - o2[:, :, h:]).max()) if o2.size else 0.0,
    ]
    for label, gap in zip(("order 1", "order 2 first index", "order 2 second index"), gaps):
        if not gap <= SYMMETRY_TOL:
            out.append(f"{name}: {label} breaks l / l+L/2 symmetry by {gap:.3g}")
    return out


# ---------------------------------------------------------------------------
# average precision


def ap_from_rows(report):
    """Per-(pair, kind) AP rebuilt from the report's CSV rows.

    Returns ``(ap, failures)`` with ``ap[kind]`` a list over pairs in
    pair-name order.
    """
    buf = io.StringIO()
    report.write_csv(buf)
    buf.seek(0)
    curves = defaultdict(list)
    for row in csv.DictReader(buf):
        key = (row["pair"], row["kind"])
        curves[key].append((float(row["threshold"]), float(row["precision"]), float(row["recall"])))
    failures = []
    ap = defaultdict(list)
    for (pair, kind), rows in sorted(curves.items()):
        rows.sort()
        area, prev = 0.0, 0.0
        for _, precision, recall in rows:
            if recall < prev:
                failures.append(f"{pair}/{kind}: recall falls from {prev} to {recall}")
            area += (recall - prev) * precision
            prev = recall
        ap[kind].append(area)
    for kind, values in ap.items():
        mean = sum(values) / len(values)
        stated = report.mean_ap.get(kind)
        if stated is None or not abs(mean - stated) <= AP_TOL:
            failures.append(f"{kind}: report mean AP {stated} but rows give {mean}")
    return dict(ap), failures


def pooling_failures(map_single, map_pooled):
    if not map_pooled >= map_single:
        return [f"pooled mean AP {map_pooled} below single-size {map_single}"]
    return []


# ---------------------------------------------------------------------------
# orbit templates


def reciprocal_rank(scores, true_index):
    """1 / rank of the 1-based true sample; ties rank in its favour."""
    target = scores[true_index - 1]
    return 1.0 / (1 + sum(1 for s in scores if s > target))


def orbit_failures(name, delta_results, grid_results, true_indices, per_rotation):
    """Checks on the four exact quarter-turn queries of one texture.

    The delta template holds the exact warp of every sample, so it must
    score 1 at the true sample and rank it first.  The anti-aliased
    template's winner must step by one rotation per quarter turn, with the
    same scale.
    """
    out = []
    for k, (res, true) in enumerate(zip(delta_results, true_indices)):
        score = res.per_sample_scores[true - 1]
        if not abs(score - 1.0) <= ORBIT_TOL:
            out.append(f"{name} turn {k}: delta score {score!r} at the true sample, not 1")
        if res.argmax_index != true:
            out.append(f"{name} turn {k}: delta argmax {res.argmax_index}, true sample {true}")
    rot0, scale0 = divmod(grid_results[0].argmax_index - 1, per_rotation)
    rotations = len(grid_results[0].per_sample_scores) // per_rotation
    for k, res in enumerate(grid_results):
        got = divmod(res.argmax_index - 1, per_rotation)
        want = ((rot0 + k) % rotations, scale0)
        if got != want:
            out.append(f"{name} turn {k}: anti-aliased argmax at (rotation, scale) {got}, want {want}")
    return out
