import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sosid.errors import AlignmentError, TaxonomyError
from sosid.phonetic import (
    CLASS_ORDER,
    AlignmentTrack,
    PhonemeClassTaxonomy,
    assemble_tests,
    default_taxonomy,
    expand_kernels,
    format_alignment,
    load_taxonomy,
    parse_alignment,
    parse_alignment_text,
    select_frames,
)


class TestParseAlignment:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ali"
        path.write_text("", encoding="utf-8")
        track = parse_alignment(path)
        assert len(track) == 0
        assert track.sentence_id is None

    def test_single_entry(self):
        track = parse_alignment_text("s1 m 40 44\n")
        assert track.sentence_id == "s1"
        assert track.entries == (("m", 40, 44),)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ns1 a 0 5   # trailing comment\ns1 m 10 12\n"
        track = parse_alignment_text(text)
        assert track.entries == (("a", 0, 5), ("m", 10, 12))

    def test_reversed_kernel_reports_line(self):
        with pytest.raises(AlignmentError, match=":2:"):
            parse_alignment_text("s1 a 0 5\ns1 a 10 5\n")

    def test_malformed_line_reports_line(self):
        with pytest.raises(AlignmentError, match=":1:"):
            parse_alignment_text("s1 a 0\n")

    def test_non_integer_frames_rejected(self):
        with pytest.raises(AlignmentError, match="integer"):
            parse_alignment_text("s1 a x y\n")

    def test_negative_start_rejected(self):
        with pytest.raises(AlignmentError):
            parse_alignment_text("s1 a -3 5\n")

    def test_mixed_sentence_ids_rejected(self):
        with pytest.raises(AlignmentError, match="differs"):
            parse_alignment_text("s1 a 0 5\ns2 m 10 12\n")

    def test_overlapping_kernels_rejected(self):
        with pytest.raises(AlignmentError, match="overlap"):
            parse_alignment_text("s1 a 0 5\ns1 m 5 9\n")

    def test_out_of_order_entries_sorted(self):
        track = parse_alignment_text("s1 m 10 12\ns1 a 0 5\n")
        assert track.entries == (("a", 0, 5), ("m", 10, 12))

    def test_format_round_trip(self):
        track = parse_alignment_text("s1 a 0 5\ns1 m 10 12\n")
        assert parse_alignment_text(format_alignment(track)) == track


class TestExpandKernels:
    def test_interior_kernel(self):
        track = AlignmentTrack("s", (("a", 10, 12),))
        assert expand_kernels(track, track_len=100) == [("a", 5, 17)]

    def test_clipped_at_start(self):
        track = AlignmentTrack("s", (("a", 2, 4),))
        assert expand_kernels(track, track_len=100) == [("a", 0, 9)]

    def test_clipped_at_end(self):
        track = AlignmentTrack("s", (("a", 94, 96),))
        assert expand_kernels(track, track_len=100) == [("a", 89, 99)]

    def test_kernel_beyond_track_rejected(self):
        track = AlignmentTrack("s", (("a", 94, 101),))
        with pytest.raises(AlignmentError):
            expand_kernels(track, track_len=100)

    def test_expanded_segments_may_overlap(self):
        track = AlignmentTrack("s", (("a", 0, 5), ("m", 6, 11)))
        segments = expand_kernels(track, track_len=50)
        assert segments == [("a", 0, 10), ("m", 1, 16)]

    @given(
        start=st.integers(0, 200),
        length=st.integers(0, 30),
        margin=st.integers(0, 50),
        pre=st.integers(0, 10),
        post=st.integers(0, 10),
    )
    def test_never_exceeds_track_bounds(self, start, length, margin, pre, post):
        end = start + length
        track = AlignmentTrack("s", (("a", start, end),))
        track_len = end + 1 + margin
        [(_, lo, hi)] = expand_kernels(track, pre, post, track_len=track_len)
        assert 0 <= lo <= hi < track_len
        assert lo <= start and hi >= end


class TestTaxonomy:
    def test_default_is_valid_and_complete(self):
        taxonomy = default_taxonomy()
        assert set(CLASS_ORDER) <= set(taxonomy.classes)
        assert taxonomy.classes["Vowels"] == (
            taxonomy.classes["OralVowels"] | taxonomy.classes["NasalVowels"]
        )
        assert len(taxonomy.classes["All"]) == 18

    def test_selector_membership(self):
        taxonomy = default_taxonomy()
        assert taxonomy.members("NasalConsonants") == {"m", "n"}
        assert taxonomy.members("m") == {"m"}

    def test_unknown_selector_rejected(self):
        with pytest.raises(TaxonomyError):
            default_taxonomy().members("Sonorants")

    def test_missing_class_rejected(self):
        classes = dict(default_taxonomy().classes)
        del classes["Fricatives"]
        with pytest.raises(TaxonomyError, match="Fricatives"):
            PhonemeClassTaxonomy(classes=classes)

    def test_vowel_union_violation_rejected(self):
        classes = dict(default_taxonomy().classes)
        classes["Vowels"] = classes["Vowels"] | {"w"}
        with pytest.raises(TaxonomyError, match="Vowels"):
            PhonemeClassTaxonomy(classes=classes)

    def test_nasal_overlap_rejected(self):
        classes = dict(default_taxonomy().classes)
        classes["NonNasalConsonants"] = classes["NonNasalConsonants"] | {"m"}
        with pytest.raises(TaxonomyError, match="disjoint"):
            PhonemeClassTaxonomy(classes=classes)

    def test_liquids_outside_consonants_rejected(self):
        classes = dict(default_taxonomy().classes)
        classes["LiquidsGlides"] = frozenset({"l"})
        with pytest.raises(TaxonomyError, match="LiquidsGlides"):
            PhonemeClassTaxonomy(classes=classes)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "taxonomy.json"
        doc = {name: sorted(members) for name, members in default_taxonomy().classes.items()}
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert load_taxonomy(path).classes == default_taxonomy().classes

    def test_extended_taxonomy_accepted(self, tmp_path):
        classes = {k: sorted(v) for k, v in default_taxonomy().classes.items()}
        for name in ("LiquidsGlides", "Consonants", "NonNasalConsonants", "All"):
            classes[name] = sorted(set(classes[name]) | {"l", "r", "j", "w"})
        path = tmp_path / "extended.json"
        path.write_text(json.dumps(classes), encoding="utf-8")
        taxonomy = load_taxonomy(path)
        assert taxonomy.members("LiquidsGlides") == {"l", "r", "j", "w"}

    def test_invalid_json_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('["not", "a", "mapping"]', encoding="utf-8")
        with pytest.raises(TaxonomyError):
            load_taxonomy(path)


def _features(n, p=4):
    # frame i holds the value i in every component, so selections are legible
    return np.tile(np.arange(float(n))[:, None], (1, p))


class TestSelectFrames:
    def test_class_selector_matches_members_only(self):
        feats = _features(60)
        segments = [("m", 0, 9), ("a", 10, 19), ("n", 20, 29), ("sil", 30, 39)]
        picked = select_frames(feats, segments, "NasalConsonants")
        assert len(picked) == 20
        assert picked[0, 0] == 0.0
        assert picked[10, 0] == 20.0

    def test_all_excludes_non_linguistic_labels(self):
        feats = _features(40)
        segments = [("a", 0, 9), ("sil", 10, 19), ("m", 20, 29)]
        picked = select_frames(feats, segments, "All")
        assert len(picked) == 20

    def test_phoneme_selector(self):
        feats = _features(30)
        segments = [("m", 0, 4), ("n", 5, 9), ("m", 10, 14)]
        picked = select_frames(feats, segments, "m")
        assert len(picked) == 10
        assert list(picked[:, 0]) == [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]

    def test_nothing_matches_gives_empty_sequence(self):
        feats = _features(30)
        picked = select_frames(feats, [("a", 0, 9)], "Fricatives")
        assert len(picked) == 0
        assert picked.shape == (0, 4)

    def test_overlapping_segments_emit_duplicates(self):
        feats = _features(30)
        segments = [("a", 0, 9), ("a", 5, 14)]
        picked = select_frames(feats, segments, "a")
        assert len(picked) == 20  # sum of segment lengths, overlap kept
        assert list(picked[8:12, 0]) == [8, 9, 5, 6]

    def test_output_length_is_sum_of_matching_segments(self):
        rng = np.random.default_rng(0)
        feats = _features(500)
        taxonomy = default_taxonomy()
        labels = sorted(taxonomy.classes["All"]) + ["sil"]
        segments = []
        for _ in range(40):
            start = int(rng.integers(0, 480))
            end = int(rng.integers(start, min(499, start + 30)))
            segments.append((labels[int(rng.integers(len(labels)))], start, end))
        for selector in ("All", "Vowels", "m"):
            members = taxonomy.members(selector)
            expected = sum(e - s + 1 for lab, s, e in segments if lab in members)
            assert len(select_frames(feats, segments, selector)) == expected

    def test_segment_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            select_frames(_features(10), [("a", 5, 15)], "a")

    def test_unknown_selector_rejected(self):
        with pytest.raises(TaxonomyError):
            select_frames(_features(10), [("a", 0, 5)], "NotAClass")


class TestAssembleTests:
    def test_250_frames_two_tests(self):
        tests = assemble_tests(_features(250), 100)
        assert len(tests) == 2
        assert all(block.shape == (100, 4) for block in tests)

    def test_99_frames_zero_tests(self):
        assert len(assemble_tests(_features(99), 100)) == 0

    def test_100_frames_one_test(self):
        tests = assemble_tests(_features(100), 100)
        assert len(tests) == 1
        np.testing.assert_array_equal(tests[0], _features(100))

    def test_blocks_are_consecutive(self):
        tests = assemble_tests(_features(250), 100)
        assert tests[0][0, 0] == 0.0
        assert tests[1][0, 0] == 100.0

    def test_invalid_test_len_rejected(self):
        with pytest.raises(ValueError):
            assemble_tests(_features(10), 0)

    @given(n=st.integers(0, 1000), test_len=st.integers(1, 200))
    def test_count_formula(self, n, test_len):
        tests = assemble_tests(np.zeros((n, 3)), test_len)
        assert len(tests) == n // test_len
        assert all(len(block) == test_len for block in tests)
