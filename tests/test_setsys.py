import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setflex import (
    InputError,
    InternalVerificationError,
    MemberSizeError,
    ParseError,
    CapExceededError,
    PreconditionError,
    SetSystem,
    check_submodular_pair,
    excess_general,
    excess_uniform,
    gamma,
    is_slim_exhaustive,
    is_thin_exhaustive,
    occurrence_count,
    parse_sets,
    parse_sets_json,
    parse_sets_text,
    patchwork_check,
    sigma,
)
from setflex import exhaustive
from conftest import (
    ALPHA,
    FIG1,
    FIG1P,
    accepted_label,
    brute_minimum,
    brute_slim,
    brute_thin,
    format_sets_json,
    format_sets_text,
    leaf_union,
    oracle_gamma,
    oracle_sigma,
    random_slim_system,
    random_system,
    tsys,
)


class TestSetSystem:
    def test_universe_is_sorted_and_interned(self):
        s = tsys(*FIG1)
        assert s.universe == ("a", "b", "c", "d", "e", "f")
        assert s.id_of("c") == 2
        assert s.label_of(2) == "c"

    def test_members_canonical_order(self):
        s = SetSystem([["d", "e", "f"], ["b", "c", "e"], ["a", "b", "d"], ["a", "b", "c"]])
        assert [",".join(s.member_labels(i)) for i in range(4)] == [
            "a,b,c", "a,b,d", "b,c,e", "d,e,f",
        ]

    def test_duplicate_member_rejected(self):
        with pytest.raises(InputError):
            tsys("abc", "cba")

    def test_empty_member_rejected(self):
        with pytest.raises(InputError):
            SetSystem([[]])

    def test_bad_labels_rejected(self):
        for label in ["", "a b", "a,b", "x;", "p(q", "a#b", "a|b", "'ab", '"ab']:
            with pytest.raises(InputError):
                SetSystem([[label, "z"]])

    def test_repeated_taxon_within_member(self):
        with pytest.raises(InputError):
            SetSystem([["a", "a", "b"]])

    def test_extra_taxa_live_in_universe_only(self):
        s = tsys("abc", extra=("z",))
        assert "z" in s.universe
        assert s.leaf_labels() == ("a", "b", "c")
        assert occurrence_count(s, "z") == 0

    def test_uniform_size(self):
        assert tsys(*FIG1).uniform_size() == 3
        assert SetSystem([["a", "b"], ["a", "b", "c"]]).uniform_size() is None


class TestLeafUnion:
    def test_fig1_all_four(self):
        s = tsys(*FIG1)
        assert leaf_union(s, range(4)) == frozenset(range(6))

    def test_single_member_identity(self):
        s = tsys("abc")
        assert leaf_union(s, [0]) == frozenset({0, 1, 2})

    def test_two_members(self):
        s = tsys(*FIG1)
        assert leaf_union(s, [0, 1]) == frozenset({0, 1, 2, 3})

    def test_empty_selection(self):
        assert leaf_union(tsys(*FIG1), []) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(InputError):
            leaf_union(tsys(*FIG1), [4])

    def test_duplicate_indices(self):
        with pytest.raises(InputError):
            leaf_union(tsys(*FIG1), [1, 1])


class TestExcess:
    def test_fig1_uniform(self):
        s = tsys(*FIG1)
        assert excess_uniform(s, range(4), 3) == 0

    def test_fig1_prime_negative(self):
        s = tsys(*FIG1P)
        assert excess_uniform(s, range(5), 3) == -1

    def test_single_triple(self):
        assert excess_uniform(tsys("abc"), [0], 3) == 0

    def test_size_mismatch(self):
        s = SetSystem([["a", "b"], ["a", "b", "c"]])
        with pytest.raises(MemberSizeError):
            excess_uniform(s, [0, 1], 3)

    def test_empty_selection_rejected(self):
        with pytest.raises(InputError):
            excess_uniform(tsys(*FIG1), [], 3)

    def test_general_single_quad(self):
        assert excess_general(tsys("abcd"), [0]) == 0

    def test_general_two_quads(self):
        assert excess_general(tsys("abcd", "cdef"), [0, 1]) == 0

    def test_general_agrees_with_uniform_at_r3(self):
        s = tsys(*FIG1)
        for size in range(1, 5):
            for combo in combinations(range(4), size):
                assert excess_general(s, combo) == excess_uniform(s, combo, 3)

    def test_general_rejects_pairs(self):
        with pytest.raises(MemberSizeError):
            excess_general(SetSystem([["a", "b"]]), [0])


class TestSigmaGamma:
    def test_fig1_values(self):
        s = tsys(*FIG1)
        assert sigma(s, range(4)) == 2
        assert gamma(s, range(4)) == 2

    def test_empty_selection_is_zero(self):
        s = tsys(*FIG1)
        assert sigma(s, []) == 0
        assert gamma(s, []) == 0

    def test_fig1_prime(self):
        assert sigma(tsys(*FIG1P), range(5)) == 1

    def test_gamma_rejects_singletons(self):
        s = SetSystem([["a"], ["a", "b"]])
        with pytest.raises(MemberSizeError):
            gamma(s, [0, 1])

    def test_uniform_excess_is_sigma_shifted(self):
        rng = random.Random(11)
        for _ in range(100):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r, 8), rng.randint(1, 5), (r,))
            combo = tuple(
                i for i in range(s.member_count) if rng.random() < 0.6
            ) or (0,)
            assert excess_uniform(s, combo, r) == sigma(s, combo) - (r - 1)


class TestOccurrenceCount:
    def test_fig1_counts(self):
        s = tsys(*FIG1)
        assert occurrence_count(s, "b") == 3
        assert occurrence_count(s, "f") == 1

    def test_unknown_taxon(self):
        with pytest.raises(InputError):
            occurrence_count(tsys(*FIG1), "z")


class TestThinExhaustive:
    def test_fig1_thin(self):
        assert is_thin_exhaustive(tsys(*FIG1), 3).verdict

    def test_fig1_prime_not_thin(self):
        report = is_thin_exhaustive(tsys(*FIG1P), 3)
        assert not report.verdict
        cert = report.certificate
        assert cert.value == -1
        # Minimal excess is -1, shared by the full system and a 4-member
        # subset; the smallest-cardinality tie-break picks the latter.
        assert cert.witness == (0, 1, 2, 3)
        assert excess_uniform(tsys(*FIG1P), cert.witness, 3) == cert.value

    def test_full_system_also_negative(self):
        assert excess_uniform(tsys(*FIG1P), range(5), 3) == -1

    def test_unorderable_thin_example(self):
        assert is_thin_exhaustive(tsys("abc", "cde", "bef", "adf"), 3).verdict

    def test_matches_oracle_on_random_systems(self):
        rng = random.Random(5)
        for _ in range(60):
            s = random_system(rng, rng.randint(3, 6), rng.randint(1, 6), (3,))
            assert is_thin_exhaustive(s, 3).verdict == brute_thin(s, 3)

    def test_r2_systems(self):
        assert is_thin_exhaustive(SetSystem([["a", "b"], ["b", "c"]]), 2).verdict
        assert not is_thin_exhaustive(
            SetSystem([["a", "b"], ["b", "c"], ["a", "c"]]), 2
        ).verdict

    def test_cap(self):
        s = random_system(random.Random(0), 12, 17, (3,))
        with pytest.raises(CapExceededError):
            is_thin_exhaustive(s, 3, cap=16)

    def test_non_uniform_rejected(self):
        with pytest.raises(MemberSizeError):
            is_thin_exhaustive(SetSystem([["a", "b"], ["a", "b", "c"]]), 3)

    def test_heredity_of_thin(self):
        # Every non-empty subsystem of a thin system is thin.
        rng = random.Random(23)
        for _ in range(20):
            s = random_system(rng, 6, rng.randint(2, 5), (3,))
            if not is_thin_exhaustive(s, 3).verdict:
                continue
            sets = s.member_label_sets()
            for size in range(1, len(sets)):
                for combo in combinations(range(len(sets)), size):
                    sub = SetSystem([sorted(sets[i]) for i in combo])
                    assert is_thin_exhaustive(sub, 3).verdict


class TestSlimExhaustive:
    def test_two_quads_slim(self):
        assert is_slim_exhaustive(tsys("abcd", "cdef")).verdict

    def test_overlapping_quads_not_slim(self):
        report = is_slim_exhaustive(tsys("abcd", "abce"))
        assert not report.verdict
        assert report.certificate.value == -1
        assert report.certificate.witness == (0, 1)

    def test_single_member_always_slim(self):
        for word in ["abc", "abcd", "abcdef"]:
            assert is_slim_exhaustive(tsys(word)).verdict

    def test_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            s = random_system(rng, rng.randint(4, 7), rng.randint(1, 5), (3, 4))
            assert is_slim_exhaustive(s).verdict == brute_slim(s)

    def test_slim_implies_thin_for_uniform_sizes(self):
        rng = random.Random(13)
        seen = 0
        for _ in range(300):
            r = rng.choice([3, 4])
            s = random_system(rng, rng.randint(r + 2, 9), rng.randint(1, 6), (r,))
            if s.member_count > 12 or not is_slim_exhaustive(s).verdict:
                continue
            seen += 1
            assert is_thin_exhaustive(s, r).verdict
        assert seen > 20

    def test_rejects_small_members(self):
        with pytest.raises(MemberSizeError):
            is_slim_exhaustive(SetSystem([["a", "b"]]))


class TestNegativeCaps:
    def test_is_thin_exhaustive(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            is_thin_exhaustive(tsys(*FIG1), 3, cap=-1)

    def test_is_slim_exhaustive(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            is_slim_exhaustive(tsys(*FIG1), cap=-1)

    def test_patchwork_check(self):
        with pytest.raises(InputError, match="cap must be non-negative"):
            patchwork_check(tsys("abcd", "cdef"), cap=-1)

    def test_zero_cap_is_exceeded(self):
        with pytest.raises(CapExceededError):
            is_slim_exhaustive(tsys(*FIG1), cap=0)


class TestEmptySystem:
    # An empty selection has excess 0, so a scan over no members would
    # answer "thin" and "slim" for a system with nothing to check.
    @pytest.mark.parametrize("check", [
        lambda s: is_thin_exhaustive(s, 3),
        lambda s: is_thin_exhaustive(s, 2, cap=0),
        is_slim_exhaustive,
        patchwork_check,
    ])
    def test_rejected(self, check):
        with pytest.raises(InputError, match="^the set system has no members$"):
            check(SetSystem([]))


class TestExhaustiveScanOracles:
    """The one excess scan against exhaustive oracles over label sets."""

    def test_thin_witness_is_first_brute_minimum(self):
        rng = random.Random(41)
        seen = 0
        for _ in range(150):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r + 1, 8), rng.randint(2, 9), (r,))
            report = is_thin_exhaustive(s, r)
            if report.verdict:
                continue
            seen += 1
            # Thin excess is sigma - (r-1); for r=3 the skipped selections
            # of one or two triples have sigma >= 2, so never hold the minimum.
            value, witness = brute_minimum(s, "sigma")
            assert report.certificate.witness == witness
            assert report.certificate.value == value - (r - 1)
            assert report.certificate.leaf_count == len(leaf_union(s, witness))
        assert seen > 30

    def test_slim_witness_is_first_brute_minimum(self):
        rng = random.Random(43)
        seen = 0
        for _ in range(150):
            s = random_system(rng, rng.randint(5, 9), rng.randint(2, 9), (3, 4, 5))
            report = is_slim_exhaustive(s)
            if report.verdict:
                continue
            seen += 1
            value, witness = brute_minimum(s, "gamma")
            assert report.certificate.witness == witness
            assert report.certificate.value == value - 2
        assert seen > 30

    def test_reported_value_is_the_measure(self):
        rng = random.Random(59)
        seen = 0
        for _ in range(100):
            r = rng.choice([2, 3, 4])
            thin = random_system(rng, rng.randint(r + 1, 8), rng.randint(2, 9), (r,))
            slim = random_system(rng, rng.randint(5, 9), rng.randint(2, 9), (3, 4, 5))
            for report, measure in (
                (is_thin_exhaustive(thin, r), lambda w: excess_uniform(thin, w, r)),
                (is_slim_exhaustive(slim), lambda w: excess_general(slim, w)),
            ):
                if report.certificate is not None:
                    seen += 1
                    assert report.certificate.value == measure(report.certificate.witness)
        assert seen > 60

    @pytest.mark.parametrize("measure, check", [
        ("excess_uniform", lambda s: is_thin_exhaustive(s, 3)),
        ("excess_general", is_slim_exhaustive),
        ("excess_general", patchwork_check),
    ], ids=["thin", "slim", "patchwork"])
    def test_witness_that_misses_the_measure_is_an_internal_error(
        self, monkeypatch, measure, check
    ):
        real = getattr(exhaustive, measure)
        monkeypatch.setattr(exhaustive, measure, lambda *args: real(*args) + 1)
        with pytest.raises(InternalVerificationError, match="exhaustive witness"):
            check(tsys(*FIG1P))
        # A "yes" has no witness to re-check.
        assert check(tsys(*FIG1)).verdict

    @pytest.mark.parametrize("words, witness", [
        # Two disjoint triangles, excess -1 each: the lexicographically
        # first (0,1,5) holds the higher mask, so mask order would pick (2,3,4).
        (("ae", "af", "ef", "bc", "bd", "cd"), (0, 1, 5)),
        # A 4-cycle and a triangle, excess -1 each: the 4-cycle's mask is
        # the lower one, but the triangle has fewer members.
        (("ab", "bc", "cd", "ad", "ef", "eg", "fg"), (4, 5, 6)),
    ])
    def test_ties_go_to_size_then_lex_not_mask_order(self, words, witness):
        s = tsys(*words)
        report = is_thin_exhaustive(s, 2)
        assert report.certificate.witness == witness == brute_minimum(s, "sigma")[1]
        assert report.certificate.value == -1

    def test_subsets_checked_and_minimum(self):
        rng = random.Random(47)
        for _ in range(60):
            r = rng.choice([2, 3, 4])
            s = random_system(rng, rng.randint(r + 1, 8), rng.randint(1, 8), (r,))
            k, smallest = s.member_count, 3 if r == 3 else 1
            sets = s.member_label_sets()
            excesses = [
                oracle_sigma(sets, combo) - (r - 1)
                for n in range(smallest, k + 1) for combo in combinations(range(k), n)
            ]
            stats = is_thin_exhaustive(s, r).stats
            assert stats["subsets_checked"] == len(excesses) == sum(
                comb(k, n) for n in range(smallest, k + 1)
            )
            assert stats["min_excess_scanned"] == (min(excesses) if excesses else None)
            slim = random_system(rng, rng.randint(5, 8), k, (3, 4, 5))
            assert is_slim_exhaustive(slim).stats["subsets_checked"] == 2 ** slim.member_count - 1

    def test_patchwork_family_matches_oracle(self):
        rng = random.Random(53)
        for _ in range(40):
            s = random_slim_system(rng, rng.randint(5, 10), rng.randint(1, 8))
            sets = s.member_label_sets()
            family = {
                frozenset(combo)
                for n in range(1, len(sets) + 1)
                for combo in combinations(range(len(sets)), n)
                if oracle_gamma(sets, combo) == 2
            }
            closed = all(a | b in family and a & b in family
                         for a in family for b in family if a & b)
            report = patchwork_check(s)
            assert report.stats["family_size"] == len(family)
            assert report.verdict == closed


class TestSubmodularity:
    def test_fig1_pair_example(self):
        ok, values = check_submodular_pair("sigma", tsys(*FIG1), [0, 1], [1, 2])
        assert ok
        assert values == (2, 3, 2, 2)

    def test_equal_selections_hold_with_equality(self):
        ok, values = check_submodular_pair("gamma", tsys(*FIG1), [0, 2], [0, 2])
        assert ok
        assert values[0] + values[1] == values[2] + values[3]

    def test_random_draws(self):
        rng = random.Random(2)
        for _ in range(100):
            s = random_system(rng, rng.randint(3, 8), rng.randint(1, 6), (2, 3, 4))
            k = s.member_count
            sel1 = [i for i in range(k) if rng.random() < 0.5]
            sel2 = [i for i in range(k) if rng.random() < 0.5]
            for measure in ("sigma", "gamma"):
                ok, _ = check_submodular_pair(measure, s, sel1, sel2)
                assert ok

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_submodular(self, data):
        taxa = ALPHA[:data.draw(st.integers(3, 8), label="taxa")]
        members = data.draw(st.lists(
            st.frozensets(st.sampled_from(taxa), min_size=2, max_size=len(taxa)),
            min_size=1, max_size=7, unique=True,
        ), label="members")
        system = SetSystem([sorted(m) for m in members])
        member_sets = system.member_label_sets()
        selection = st.lists(st.integers(0, system.member_count - 1), unique=True)
        a, b = data.draw(selection, label="A"), data.draw(selection, label="B")
        union, inter = sorted(set(a) | set(b)), sorted(set(a) & set(b))
        for measure, oracle in (("sigma", oracle_sigma), ("gamma", oracle_gamma)):
            ok, values = check_submodular_pair(measure, system, a, b)
            assert values == tuple(oracle(member_sets, sel) for sel in (a, b, union, inter))
            assert ok and values[0] + values[1] >= values[2] + values[3]

    def test_unknown_measure(self):
        with pytest.raises(InputError):
            check_submodular_pair("delta", tsys(*FIG1), [0], [1])


class TestPatchwork:
    def test_two_quads(self):
        report = patchwork_check(tsys("abcd", "cdef"))
        assert report.verdict
        assert report.stats["family_size"] == 3

    def test_single_member(self):
        report = patchwork_check(tsys("abcde"))
        assert report.verdict
        assert report.stats["family_size"] == 1

    def test_fig1(self):
        assert patchwork_check(tsys(*FIG1)).verdict

    def test_not_slim_rejected(self):
        with pytest.raises(PreconditionError):
            patchwork_check(tsys("abcd", "abce"))


class TestFormats:
    def test_text_round_trip(self):
        s = tsys(*FIG1)
        assert parse_sets_text(format_sets_text(s)) == s

    def test_text_comments_and_blanks(self):
        text = "# fig 1\n\na,b,c\na,b,d # inline\nb,c,e\nd,e,f\n"
        assert parse_sets_text(text) == tsys(*FIG1)

    def test_json_round_trip(self):
        s = tsys(*FIG1, extra=("z",))
        assert parse_sets_json(format_sets_json(s)) == s

    def test_autodetect(self):
        assert parse_sets('{"sets": [["a","b","c"]]}') == tsys("abc")
        assert parse_sets("a,b,c\n") == tsys("abc")

    # Label characters around the text format's syntax, '#' and '|'
    # included; only labels `check_label` accepts are kept, so every
    # accepted label can occur.
    LABEL = st.text(
        alphabet="abcXYZ019_-.|*+[]{}#'\"!", min_size=1, max_size=4
    ).filter(accepted_label)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_property_text_and_json_round_trips(self, data):
        members = data.draw(st.lists(
            st.frozensets(self.LABEL, min_size=1, max_size=5),
            min_size=1, max_size=6, unique=True,
        ), label="members")
        extra = data.draw(st.lists(self.LABEL, max_size=3), label="extra")
        system = SetSystem([sorted(m) for m in members])
        text = format_sets_text(system)
        assert parse_sets_text(text) == system
        assert format_sets_text(parse_sets_text(text)) == text
        with_extra = SetSystem([sorted(m) for m in members], extra_taxa=extra)
        blob = format_sets_json(with_extra)
        assert parse_sets_json(blob) == with_extra
        assert format_sets_json(parse_sets_json(blob)) == blob

    def test_bad_json(self):
        with pytest.raises(InputError):
            parse_sets_json("[1,2]")

    def test_json_past_the_decoder_limits_is_a_parse_error(self):
        # Legal set systems nest three levels deep and hold no numbers.
        deep = '{"sets": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
            parse_sets_json(deep)
        long = '{"sets": [["a", "b", "c"]], "n": ' + "7" * 5000 + "}"
        with pytest.raises(ParseError, match="^invalid JSON: integer literal too long$"):
            parse_sets_json(long)
        with pytest.raises(ParseError, match="^invalid JSON: "):
            parse_sets_json('{"sets": [["a"]')
