"""The balanced baseline beside the phonetic class table.

The paper's headline compares 1 s tests drawn mostly from one phoneme
class with phonetically balanced 1 s tests, both against the same 15 s of
balanced training. The phonetic report's only balanced row is `All`, and
`All` pools every kernel widened by 5 frames on each side: kernels tile a
sentence, so the widened pool repeats most frames, and a 100-frame `All`
test holds far fewer distinct frames than a 1 s utterance.

This demo prints the class table under mu_g with two balanced baselines:
`All` without widening, and the duration protocol's contiguous (15 s, 1 s)
cell. Both cut the material after training into consecutive 1 s blocks, so
they agree exactly, and both sit above the widened `All` row.
"""

from sosid import (
    DurationProtocolConfig,
    SynthCorpusConfig,
    expand_kernels,
    make_corpus,
    run_duration_experiment,
    run_phonetic_experiment,
)

corpus = make_corpus(
    SynthCorpusConfig(
        n_speakers=20,
        dim=24,
        separation=0.4,
        class_spread=1.5,
        frame_correlation=0.9,
        frames_per_speaker=6000,
        sentence_len_frames=250,
        seed=0,
    )
)

classes = run_phonetic_experiment(corpus, measures=("mu_g",), min_tests=0)
unwidened = run_phonetic_experiment(
    corpus, selectors=("All",), measures=("mu_g",), min_tests=0, pre_frames=0, post_frames=0
)
# a cap above any speaker's 45 tests, so every 1 s block after training is a test
grid = DurationProtocolConfig((15.0,), (1.0,), max_tests_per_speaker=1000, measures=("mu_g",))
contiguous = run_duration_experiment(corpus, grid)

rows = [(selector, cell) for (selector, _), cell in classes.cells.items()]
rows.append(("All, widening 0", unwidened.cells[("All", "mu_g")]))
rows.append(("contiguous (15 s, 1 s) cell", contiguous.cells[(15.0, 1.0, "mu_g")]))
print("| tests | accuracy % | n_tests |")
print("| --- | --- | --- |")
for name, cell in rows:
    accuracy = f"{cell.global_accuracy:.1f}" if cell.n_tests else "n/a"
    print(f"| {name} | {accuracy} | {cell.n_tests} |")

emitted = distinct = 0
for _, sentences in corpus.speakers:
    for sentence in sentences:
        length = len(sentence.frames)
        kernels = expand_kernels(sentence.alignment, track_len=length)
        emitted += sum(end - start + 1 for _, start, end in kernels)
        distinct += length
print()
print(f"widening by 5 frames emits {emitted / distinct:.2f} frames per distinct frame")
