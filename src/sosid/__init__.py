"""Closed-set speaker identification from second-order statistics.

The toolkit models each speech sample as a single Gaussian over 24-band
log mel filterbank vectors and compares models with three symmetrized
dissimilarity measures (mu_g, mu_gc, mu_sc). On top of that it provides a
closed-set identification registry, experiment protocols over utterance
duration and phonetic content, and a synthetic Gaussian-speaker oracle for
end-to-end verification.
"""

from .errors import (
    AlignmentError,
    AudioFormatError,
    ConfigurationError,
    DegenerateModelError,
    EmptyInputError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    SosidError,
    TaxonomyError,
)
from .frontend import (
    FrontendConfig,
    SampleBuffer,
    SpectralFrames,
    build_mel_filterbank,
    extract_features,
    frame_signal,
    hamming_window,
    hz_to_mel,
    load_features_csv,
    load_wav,
    mel_to_hz,
    power_spectrum,
    save_features_csv,
    save_wav,
)
from .gaussian import (
    GaussianModel,
    SpdFactorization,
    factorize,
    load_model_store,
    save_model_store,
)
from .measures import (
    MEASURE_KINDS,
    MU_G,
    MU_GC,
    MU_SC,
    SC_AS_PRINTED,
    SC_CONVENTIONS,
    SC_DECOMPOSITION,
    evaluate,
    mu_g,
    mu_gc,
    mu_sc,
)
from .identify import ScoreSheet, SpeakerRegistry, identify, score_sheets_csv
from .phonetic import (
    CLASS_ORDER,
    AlignmentTrack,
    PhonemeClassTaxonomy,
    assemble_tests,
    default_taxonomy,
    expand_kernels,
    load_taxonomy,
    parse_alignment,
    select_frames,
)
from .experiment import (
    CorpusManifest,
    DurationProtocolConfig,
    ExperimentReport,
    LoadedCorpus,
    LoadedSentence,
    PhoneticProtocolConfig,
    ReportCell,
    compute_metrics,
    emit_report,
    load_corpus,
    load_manifest,
    run_duration_experiment,
    run_phonetic_experiment,
)
from .synthetic import (
    SynthCorpusConfig,
    TrueSpeaker,
    generate_labeled_frames,
    make_corpus,
    sample_speakers,
    true_measure,
    write_corpus,
)

__version__ = "0.1.0"
