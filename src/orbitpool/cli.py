"""Command-line surface: describe, synth, match, eval, soa.

Exit codes: 0 on success, 1 on a usage error (argparse-level, usage text
on stderr), 2 on a data error (bad image, empty directory, unsupported
geometry, out-of-range parameter).
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from .bench import (
    HISTOGRAM_KINDS,
    KINDS,
    POOLED_KINDS,
    MatchConfig,
    SynthSpec,
    describe,
    evaluate,
    load_pair,
    match_pair,
    save_pair,
    synth_pairs,
)
from .descriptor import (
    DescriptorConfig,
    Keypoint,
    SizePrior,
    dog_keypoints,
    grid_keypoints,
    single_size_descriptor,
    write_rows,
)
from .image import compute_gradients, load_image
from .scattering import build_filter_bank
from .soa import GroupSampleSet, build_template, soa_likelihood


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_range(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        v = float(parts[0])
        return (v, v)
    if len(parts) == 2:
        return (float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 'lo,hi' or a single value, got {text!r}")


def _parse_floats(text: str):
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_samples(text: str) -> GroupSampleSet:
    """Sample-set spec: 'default' or 'rot:N', optionally ':grid'/':delta'."""
    parts = text.split(":")
    anti_alias = "grid"
    if parts[-1] in ("grid", "delta"):
        anti_alias = parts[-1]
        parts = parts[:-1]
    if parts == ["default"]:
        return GroupSampleSet.default(anti_alias=anti_alias)
    if len(parts) == 2 and parts[0] == "rot":
        return GroupSampleSet.rotation_group(int(parts[1]), anti_alias=anti_alias)
    raise ValueError(f"bad sample spec {text!r}: expected 'default' or 'rot:N' (+ ':grid'/':delta')")


def build_parser() -> _Parser:
    parser = _Parser(prog="orbitpool", description="Local descriptor toolbox and benchmark.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("describe", help="write descriptors of one image as CSV")
    p.add_argument("image", help="input image (PGM or PNG)")
    p.add_argument("--kind", choices=KINDS, default="dsp-sift")
    det = p.add_mutually_exclusive_group()
    det.add_argument("--grid", action="store_true", help="keypoint lattice (default)")
    det.add_argument("--dog", action="store_true", help="difference-of-Gaussians extrema")
    p.add_argument("--sizes", type=_parse_floats, default=None,
                   help="comma-separated size multipliers for the dsp-sift/dsp-sc pooling prior")
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("synth", help="generate benchmark pairs from base images")
    p.add_argument("--bases", required=True, help="directory of base images")
    p.add_argument("--out", required=True, help="output directory for pair subdirectories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale-range", type=_parse_range, default=(1.0, 1.0))
    p.add_argument("--rot-range", type=_parse_range, default=(0.0, 0.0))
    p.add_argument("--contrast", choices=("none", "gamma", "affine", "mixed"), default="none")
    p.add_argument("--occlusion", type=float, default=0.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("match", help="match one generated pair, print match records")
    p.add_argument("--pair", required=True, help="pair directory")
    p.add_argument("--kind", choices=KINDS, default="dsp-sift")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="evaluate descriptor kinds over a directory of pairs")
    p.add_argument("--pairs", required=True, help="directory of pair subdirectories")
    p.add_argument("--kinds", default=",".join(KINDS), help="comma-separated descriptor kinds")
    p.add_argument("--out", default="report.csv", help="report CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("soa", help="orbit-sampled likelihood of a query against a template image")
    p.add_argument("--template", required=True, help="template image")
    p.add_argument("--query", required=True, help="query image")
    p.add_argument("--samples", default="rot:4", help="'default' or 'rot:N', + ':grid'/':delta'")
    p.set_defaults(func=_cmd_soa)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_describe(args) -> int:
    if args.sizes is not None and args.kind not in POOLED_KINDS:
        raise ValueError(f"--sizes sets the pooling prior of {' and '.join(POOLED_KINDS)}, not of {args.kind}")
    img = load_image(args.image)
    cfg = DescriptorConfig(cells=args.cells, bins=args.bins)
    kps = dog_keypoints(img) if args.dog else grid_keypoints(img, stride=16, base_size=8.0)
    prior = SizePrior.uniform(args.sizes) if args.sizes is not None else SizePrior.default()
    kept, matrix, degenerate = describe(img, kps, args.kind, prior, cfg, build_filter_bank())
    if not kept:
        raise ValueError(f"no keypoints with descriptor support in {args.image}")
    if len(kept) < len(kps):
        print(f"dropped {len(kps) - len(kept)} keypoints without support", file=sys.stderr)

    if args.kind in HISTOGRAM_KINDS:
        header = {"cells": cfg.cells, "bins": cfg.bins, "metric": "bhattacharyya"}
    else:
        header = {"order": 2, "length": matrix.shape[1], "kind": args.kind}
    rows = ((kps[i], flag, values) for i, flag, values in zip(kept, degenerate, matrix))
    if args.out:
        with open(args.out, "w") as fh:
            write_rows(fh, header, rows)
    else:
        write_rows(sys.stdout, header, rows)
    return 0


def _load_bases(dirpath):
    d = Path(dirpath)
    if not d.is_dir():
        raise ValueError(f"base directory {d} does not exist")
    files = sorted(p for p in d.iterdir() if p.suffix.lower() in (".pgm", ".png"))
    if not files:
        raise ValueError(f"no .pgm or .png images in {d}")
    return [load_image(p) for p in files]


def _cmd_synth(args) -> int:
    bases = _load_bases(args.bases)
    spec = SynthSpec(
        scale_range=args.scale_range,
        rotation_range=args.rot_range,
        contrast=args.contrast,
        occlusion=args.occlusion,
    )
    pairs = synth_pairs(bases, spec, seed=args.seed)
    out = Path(args.out)
    for pair in pairs:
        save_pair(pair, out / pair.name)
    print(f"wrote {len(pairs)} pairs to {out}")
    return 0


def _cmd_match(args) -> int:
    pair = load_pair(args.pair)
    pm = match_pair(pair, args.kind, MatchConfig())
    if pm.warning:
        print("warning: no keypoints with descriptor support on one side", file=sys.stderr)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["ref_u", "ref_v", "proj_u", "proj_v",
                     "matched_u", "matched_v", "distance", "ratio", "correct"])
    for r in pm.records:
        writer.writerow([
            repr(float(r.ref_kp.u)), repr(float(r.ref_kp.v)),
            repr(r.projected[0]), repr(r.projected[1]),
            repr(float(r.matched_kp.u)), repr(float(r.matched_kp.v)),
            repr(r.distance), repr(r.ratio), str(int(r.correct)),
        ])
    correct = sum(1 for r in pm.records if r.correct)
    print(f"{correct}/{len(pm.records)} correct, {pm.candidates} candidates", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    root = Path(args.pairs)
    if not root.is_dir():
        raise ValueError(f"pair directory {root} does not exist")
    pair_dirs = sorted(p for p in root.iterdir() if (p / "meta.json").exists())
    if not pair_dirs:
        raise ValueError(f"no pair subdirectories (with meta.json) in {root}")
    pairs = [load_pair(p) for p in pair_dirs]
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    report = evaluate(pairs, kinds)
    report.save(args.out)
    for kind, ap in report.mean_ap.items():
        print(f"mAP {kind} = {ap:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_soa(args) -> int:
    template_img = load_image(args.template)
    query_img = load_image(args.query)
    samples = _parse_samples(args.samples)

    cu, cv = template_img.center
    base_size = min(template_img.width, template_img.height) / 10.0
    kp = Keypoint(cu, cv, base_size)
    cfg = DescriptorConfig()
    template = build_template(template_img, kp, samples, cfg, source=str(args.template))

    qu, qv = query_img.center
    qkp = Keypoint(qu, qv, base_size)
    field = compute_gradients(query_img)
    query = single_size_descriptor(field, qkp, cfg.support_factor * base_size, cfg)

    result = soa_likelihood(template, query)
    for i, score in enumerate(result.per_sample_scores, start=1):
        print(f"sample {i}: {score!r}")
    print(f"argmax {result.argmax_index}")
    print(f"value {result.value!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
