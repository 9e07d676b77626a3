"""Command line interface.

Subcommands: extract, train, identify, eval-duration, eval-phonetic,
synth-corpus. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateModelError,
    InsufficientDataError,
    SosidError,
    json_document,
)
from .experiment import (
    DurationProtocolConfig,
    PhoneticProtocolConfig,
    _ordered_map,
    _read_sentence,
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
from .gaussian import (
    _block_moments,
    _concat_moments,
    load_model_store,
    save_model_store,
    stack_blocks,
    stack_moments,
)
from .identify import ScoreSheet, SpeakerRegistry, score_matrix, score_sheets_csv
from .measures import MEASURE_KINDS, MU_G, SC_CONVENTIONS
from .phonetic import load_taxonomy
from .synthetic import SynthCorpusConfig, write_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _given(args, *names) -> dict:
    """The flags among ``names`` given on the command line; each name is its config field."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _frontend_config(path) -> FrontendConfig:
    if path is None:
        return FrontendConfig()
    with json_document(path, "front-end config") as doc:
        return FrontendConfig(**doc)


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
    """Write one model per manifest speaker from its concatenated sentences.

    Each speaker is read (its sentences in manifest order), concatenated, cut
    to ``--train-seconds`` and reduced to raw moments by the process that
    takes it in :func:`~sosid.experiment._ordered_map`, so a process holds one
    speaker's frames at a time and the caller only the moments. The warnings
    and the first error are those of a serial pass over the speakers: one
    speaker's read errors, then its count errors, come before any of the
    next speaker's, read errors included.
    """
    cfg = _frontend_config(args.config)
    limit = None if args.train_seconds is None else _seconds_to_frames(args.train_seconds)
    manifest = load_manifest(args.manifest)
    if not manifest.speakers:
        raise InsufficientDataError(f"{args.manifest}: no speakers to train")
    base = Path(args.manifest).parent
    ids = [speaker_id for speaker_id, _ in manifest.speakers]
    # items: (speaker id, sentences already read, refs still to read)
    items = [(speaker_id, (), refs) for speaker_id, refs in manifest.speakers]
    dim = None
    first_refs = manifest.speakers[0][1]
    if first_refs:
        # the first sentence fixes the column count of the rest, as in load_corpus
        first = _read_sentence(base, cfg, None, first_refs[0])
        items[0] = (ids[0], (first,), first_refs[1:])
        dim = first.frames.shape[1]

    def speaker_moments(item):
        speaker_id, read, refs = item
        if not (read or refs):
            raise InsufficientDataError(f"speaker {speaker_id}: no sentences to train on")
        sentences = [*read, *(_read_sentence(base, cfg, dim, ref) for ref in refs)]
        concat = np.concatenate([sentence.frames for sentence in sentences])
        if limit is not None and len(concat) < limit:
            raise InsufficientDataError(
                f"speaker {speaker_id}: {len(concat)} frames < {limit} needed "
                f"for {args.train_seconds:g} s training"
            )
        return _block_moments(concat[None, :limit])

    moments = _ordered_map(speaker_moments, items)
    stack = stack_moments(_concat_moments(moments))
    save_model_store(args.out, ids, stack, config_hash=cfg.digest())
    return 0


def _cmd_identify(args) -> int:
    if args.measures and len(args.measures) > 1:
        raise _UsageError("identify takes a single --measure")
    kind = args.measures[0] if args.measures else MU_G
    registry = SpeakerRegistry(*load_model_store(args.store))
    sheets = []
    # one stack per file: a stack of several files moves scores in their last bits
    for features_path in args.features:
        vectors = load_features_csv(features_path).vectors
        if vectors.shape[1] != registry.dim:
            raise SosidError(
                f"{features_path}: feature dimension {vectors.shape[1]} "
                f"differs from the store's {registry.dim}"
            )
        try:
            tests = stack_blocks([vectors[None]])
        except DegenerateModelError as exc:
            raise DegenerateModelError(f"{features_path}: {exc}") from None
        values = score_matrix(registry, tests, kind, **_given(args, "sc_convention"))
        sheets.append(ScoreSheet.from_row(Path(features_path).stem, registry.ids, values[0]))
    _write_or_print(score_sheets_csv(sheets), args.out)
    return 0


def _duration_config(args) -> DurationProtocolConfig:
    """The --config file's protocol, with the flags given on the command line over it."""
    flags = _given(args, "measures", "sc_convention")
    if args.config is None:
        return DurationProtocolConfig(**flags)
    with json_document(args.config, "protocol config") as doc:
        for key in ("train_durations", "test_durations", "measures"):
            if key in doc and not isinstance(doc[key], list):
                raise ConfigurationError(f"{key!r} is not an array")
        return DurationProtocolConfig(**{**doc, **flags})


def _load_eval_corpus(args):
    manifest = load_manifest(args.manifest)
    if args.seed is not None:
        manifest = dataclasses.replace(manifest, seed=args.seed)
    return load_corpus(manifest, base_dir=Path(args.manifest).parent)


def _cmd_eval_duration(args) -> int:
    cfg = _duration_config(args)
    report = run_duration_experiment(_load_eval_corpus(args), cfg)
    _write_or_print(emit_report(report, **_given(args, "fmt")), args.out)
    return 0


def _cmd_eval_phonetic(args) -> int:
    fields = ("selectors", "measures", "train_seconds", "test_len", "min_tests", "sc_convention")
    given = _given(args, *fields)
    if args.taxonomy is not None:
        given["taxonomy"] = load_taxonomy(args.taxonomy)
    cfg = PhoneticProtocolConfig(**given)
    report = run_phonetic_experiment(_load_eval_corpus(args), cfg)
    _write_or_print(emit_report(report, **_given(args, "fmt")), args.out)
    return 0


def _cmd_synth_corpus(args) -> int:
    fields = [field.name for field in dataclasses.fields(SynthCorpusConfig)]
    cfg = SynthCorpusConfig(**_given(args, *fields))
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
    seed.add_argument("--seed", type=int, help="random seed (eval-*: overrides the manifest seed)")

    measure = _Parser(add_help=False)
    measure.add_argument(
        "--measure",
        dest="measures",
        action="append",
        choices=MEASURE_KINDS,
        help="measure kind; repeat for several (default: all three)",
    )
    measure.add_argument(
        "--sc-convention",
        choices=SC_CONVENTIONS,
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
    p.add_argument("--format", dest="fmt", choices=("csv", "markdown"))
    p.set_defaults(func=_cmd_eval_duration)

    p = sub.add_parser(
        "eval-phonetic", parents=[common, seed, measure], help="run the phonetic-content protocol"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--taxonomy", help="taxonomy JSON (default: built-in)")
    p.add_argument(
        "--selectors",
        type=lambda text: tuple(text.split(",")),
        help=f"comma-separated selectors (default: {','.join(PhoneticProtocolConfig.selectors)})",
    )
    p.add_argument("--train-seconds", type=float)
    p.add_argument("--test-frames", dest="test_len", type=int)
    p.add_argument("--min-tests", type=int)
    p.add_argument("--format", dest="fmt", choices=("csv", "markdown"))
    p.set_defaults(func=_cmd_eval_phonetic)

    p = sub.add_parser(
        "synth-corpus", parents=[common, seed], help="write a synthetic corpus and manifest"
    )
    p.add_argument("--speakers", dest="n_speakers", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--class-spread", type=float)
    p.add_argument("--frame-correlation", type=float)
    p.add_argument("--frames-per-speaker", type=int)
    p.add_argument("--sentence-frames", dest="sentence_len_frames", type=int)
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
    except (SosidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
