"""Command line interface.

Subcommands: extract, train, identify, eval-duration, eval-phonetic,
synth-corpus. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, SosidError
from .experiment import (
    DurationProtocolConfig,
    _seconds_to_frames,
    emit_report,
    load_corpus,
    load_manifest,
    run_duration_experiment,
    run_phonetic_experiment,
)
from .frontend import (
    FrontendConfig,
    extract_features,
    load_features_csv,
    load_wav,
    save_features_csv,
)
from .gaussian import GaussianModel, load_model_store, save_model_store, stack_blocks
from .identify import ScoreSheet, SpeakerRegistry, score_matrix, score_sheets_csv
from .measures import MEASURE_KINDS, MU_G, SC_CONVENTIONS, SC_DECOMPOSITION
from .phonetic import CLASS_ORDER, default_taxonomy, load_taxonomy
from .synthetic import SynthCorpusConfig, write_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _frontend_config(path) -> FrontendConfig:
    if path is None:
        return FrontendConfig()
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return FrontendConfig(**doc)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _write_or_print(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _cmd_extract(args) -> int:
    cfg = _frontend_config(args.config)
    features = extract_features(load_wav(args.wav), cfg)
    save_features_csv(features, args.out)
    return 0


def _cmd_train(args) -> int:
    cfg = _frontend_config(args.config)
    corpus = load_corpus(args.manifest, frontend_config=cfg)
    limit = None
    if args.train_seconds is not None:
        limit = _seconds_to_frames(args.train_seconds)
    models = {}
    for speaker_id, sentences in corpus.speakers:
        frames = [sentence.frames for sentence in sentences]
        concat = np.concatenate(frames)
        if limit is not None:
            if len(concat) < limit:
                raise InsufficientDataError(
                    f"speaker {speaker_id}: {len(concat)} frames < {limit} needed "
                    f"for {args.train_seconds:g} s training"
                )
            concat = concat[:limit]
        models[speaker_id] = GaussianModel.from_frames(concat)
    save_model_store(args.out, models, config_hash=cfg.digest())
    return 0


def _cmd_identify(args) -> int:
    if args.measure and len(args.measure) > 1:
        raise _UsageError("identify takes a single --measure")
    kind = args.measure[0] if args.measure else MU_G
    registry = SpeakerRegistry.from_models(load_model_store(args.store))
    sheets = []
    # one stack per file: a stack of several files moves scores in their last bits
    for features_path in args.features:
        vectors = load_features_csv(features_path).vectors
        if vectors.shape[1] != registry.dim:
            raise SosidError(
                f"{features_path}: feature dimension {vectors.shape[1]} "
                f"differs from the store's {registry.dim}"
            )
        tests = stack_blocks([vectors[None]])
        values = score_matrix(registry, tests, kind, args.sc_convention or SC_DECOMPOSITION)
        sheets.append(ScoreSheet.from_row(Path(features_path).stem, registry.ids, values[0]))
    _write_or_print(score_sheets_csv(sheets), args.out)
    return 0


def _duration_config(args) -> DurationProtocolConfig:
    """The --config file's protocol, with the flags given on the command line over it."""
    if args.config is None:
        overrides = {}
    else:
        overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(overrides, dict):
            raise ConfigurationError(f"{args.config}: not a JSON object")
    for key in ("train_durations", "test_durations", "measures"):
        if key in overrides:
            if not isinstance(overrides[key], list):
                raise ConfigurationError(f"{args.config}: {key!r} is not an array")
            overrides[key] = tuple(overrides[key])
    if args.measure:
        overrides["measures"] = tuple(args.measure)
    if args.sc_convention is not None:
        overrides["sc_convention"] = args.sc_convention
    try:
        return DurationProtocolConfig(**overrides)
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{args.config}: {exc}") from None


def _load_eval_corpus(args):
    manifest = load_manifest(args.manifest)
    if args.seed is not None:
        manifest = type(manifest)(speakers=manifest.speakers, seed=args.seed)
    return load_corpus(manifest, base_dir=Path(args.manifest).parent)


def _cmd_eval_duration(args) -> int:
    cfg = _duration_config(args)
    report = run_duration_experiment(_load_eval_corpus(args), cfg)
    _write_or_print(emit_report(report, args.format), args.out)
    return 0


def _cmd_eval_phonetic(args) -> int:
    corpus = _load_eval_corpus(args)
    taxonomy = load_taxonomy(args.taxonomy) if args.taxonomy else default_taxonomy()
    selectors = args.selectors.split(",") if args.selectors else None
    kinds = tuple(args.measure) if args.measure else MEASURE_KINDS
    report = run_phonetic_experiment(
        corpus,
        taxonomy=taxonomy,
        selectors=selectors,
        kinds=kinds,
        train_seconds=args.train_seconds,
        test_len=args.test_frames,
        min_tests=args.min_tests,
        sc_convention=args.sc_convention or SC_DECOMPOSITION,
    )
    _write_or_print(emit_report(report, args.format), args.out)
    return 0


def _cmd_synth_corpus(args) -> int:
    cfg = SynthCorpusConfig(
        n_speakers=args.speakers,
        dim=args.dim,
        separation=args.separation,
        class_spread=args.class_spread,
        frame_correlation=args.frame_correlation,
        frames_per_speaker=args.frames_per_speaker,
        sentence_len_frames=args.sentence_frames,
        seed=args.seed if args.seed is not None else 0,
    )
    manifest_path = write_corpus(cfg, args.out)
    print(manifest_path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing does not change it."""
    parser = _Parser(prog="sosid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    seed = _Parser(add_help=False)
    seed.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (eval-*: overrides the manifest seed; synth-corpus: default 0)",
    )

    measure = _Parser(add_help=False)
    measure.add_argument(
        "--measure",
        action="append",
        choices=MEASURE_KINDS,
        default=None,
        help="measure kind; repeat for several (default: all three)",
    )
    measure.add_argument(
        "--sc-convention",
        choices=SC_CONVENTIONS,
        default=None,
        help="mu_sc symmetrization convention (default: decomposition, or an eval-duration "
        "--config file's)",
    )

    p = sub.add_parser("extract", parents=[common], help="WAV file to feature CSV")
    p.add_argument("wav", help="mono 16-bit PCM WAV file")
    p.add_argument("--config", default=None, help="front-end config JSON")
    p.set_defaults(func=_cmd_extract, out_required=True)

    p = sub.add_parser("train", parents=[common], help="manifest to model store")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="front-end config JSON (WAV manifests)")
    p.add_argument("--train-seconds", type=float, default=None)
    p.set_defaults(func=_cmd_train, out_required=True)

    p = sub.add_parser(
        "identify", parents=[common, measure], help="score test features against a model store"
    )
    p.add_argument("--store", required=True, help="model store directory")
    p.add_argument("features", nargs="+", help="feature CSV files, one test each")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser(
        "eval-duration", parents=[common, seed, measure], help="run the duration grid protocol"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="protocol config JSON")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=_cmd_eval_duration)

    p = sub.add_parser(
        "eval-phonetic", parents=[common, seed, measure], help="run the phonetic-content protocol"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--taxonomy", default=None, help="taxonomy JSON (default: built-in)")
    p.add_argument(
        "--selectors",
        default=None,
        help=f"comma-separated selectors (default: {','.join(CLASS_ORDER)})",
    )
    p.add_argument("--train-seconds", type=float, default=15.0)
    p.add_argument("--test-frames", type=int, default=100)
    p.add_argument("--min-tests", type=int, default=40)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=_cmd_eval_phonetic)

    p = sub.add_parser(
        "synth-corpus", parents=[common, seed], help="write a synthetic corpus and manifest"
    )
    p.add_argument("--speakers", type=int, default=20)
    p.add_argument("--dim", type=int, default=24)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--class-spread", type=float, default=0.0)
    p.add_argument("--frame-correlation", type=float, default=0.0)
    p.add_argument("--frames-per-speaker", type=int, default=3000)
    p.add_argument("--sentence-frames", type=int, default=300)
    p.set_defaults(func=_cmd_synth_corpus, out_required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "out_required", False) and args.out is None:
            raise _UsageError(f"{args.command}: --out is required")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SosidError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
