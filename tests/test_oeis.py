from dataclasses import FrozenInstanceError, fields

import pytest

from binsums.oeis import (
    FIXTURES,
    MIN_MATCH,
    AlignmentReport,
    compare,
    load_fixture,
    parse_bfile,
)


def test_parse_basic():
    table = parse_bfile("0 1\n1 2\n2 7\n")
    assert table == {0: 1, 1: 2, 2: 7}


def test_parse_skips_comments_and_blanks():
    table = parse_bfile("# comment\n\n5 42\n")
    assert table == {5: 42}


def test_parse_crlf_and_negative_values():
    table = parse_bfile("0 3\r\n1 -1\r\n2 5\r\n")
    assert table == {0: 3, 1: -1, 2: 5}


def test_parse_malformed_value():
    with pytest.raises(ValueError, match="line 1"):
        parse_bfile("3 x\n")


def test_parse_malformed_field_count():
    with pytest.raises(ValueError, match="line 2"):
        parse_bfile("0 1\n1 2 3\n")


def test_parse_rejects_non_increasing_indices():
    with pytest.raises(ValueError, match="non-increasing"):
        parse_bfile("0 1\n0 2\n")


def test_parse_errors_name_the_sequence():
    with pytest.raises(ValueError, match=r"^A000045: malformed b-file line 2: '1 x'$"):
        parse_bfile("0 0\n1 x\n", "A000045")
    with pytest.raises(ValueError, match="^A000045: non-increasing index at line 3$"):
        parse_bfile("# fib\n1 1\n1 1\n", "A000045")


def test_a_table_is_a_plain_index_map_in_index_order():
    table = load_fixture("A080937")
    assert type(table) is dict
    assert list(table) == list(range(len(table))) and table[7] == 417
    assert type(parse_bfile("5 42\n", "A000045")) is dict


def test_fixtures_are_long_enough():
    for seq_id in FIXTURES:
        assert len(load_fixture(seq_id)) >= 60, seq_id


# the two scriptL fixtures need a shift and are checked on their own below
UNSHIFTED = [(sid, seq, param) for sid, (seq, param) in FIXTURES.items()
             if sid not in ("A007052", "A081567")]


@pytest.mark.parametrize("seq_id,sequence,param", UNSHIFTED)
def test_fixtures_match_their_oracles(seq_id, sequence, param):
    report = compare(sequence, load_fixture(seq_id), count=50, param=param)
    assert report.is_match and report.matched >= 50, (seq_id, report)


def test_scriptl_fixture_alignment():
    # the m = 4 and m = 5 cosine families start at n = 1, one slot after
    # the b-file offset, so the aligner must pick shift -1
    for seq_id, m in (("A007052", 4), ("A081567", 5)):
        report = compare("scriptL", load_fixture(seq_id), count=40, param=m)
        assert report.is_match and report.shift == -1, report


def test_signed_fixture_values_survive():
    table = load_fixture("A094648")
    assert [table[i] for i in range(8)] == [3, -1, 5, -4, 13, -16, 38, -57]
    assert compare("W", table, count=50).matched >= 50


def test_qr_difference_alignment():
    report = compare("A094789", load_fixture("A094789"), count=50)
    assert report.is_match and report.shift == 0


def test_wrong_pairing_reports_divergence():
    report = compare("pellX", load_fixture("A001353"), count=50)
    assert not report.is_match
    assert report.matched < 20
    assert isinstance(report, AlignmentReport)


def test_a_table_that_agrees_and_then_differs_is_no_match():
    table = load_fixture("A001075")
    table[30] += 1
    report = compare("pellX", table, 50)
    assert report.matched == 30 and report.first_mismatch[0] == 30
    assert not report.is_match


def test_compare_requires_enough_terms():
    with pytest.raises(ValueError):
        compare("pellX", load_fixture("A001075"), count=5)
    # the floor a comparison may ask for is the floor of a match
    with pytest.raises(ValueError, match=f"count must be >= {MIN_MATCH}"):
        compare("pellX", load_fixture("A001075"), count=MIN_MATCH - 1)
    assert compare("pellX", load_fixture("A001075"), count=MIN_MATCH).is_match
    assert not AlignmentReport(0, MIN_MATCH - 1, None).is_match


def test_an_alignment_report_holds_only_the_alignment():
    assert [f.name for f in fields(AlignmentReport)] == ["shift", "matched", "first_mismatch"]
    report = compare("pellX", load_fixture("A001075"))
    with pytest.raises(FrozenInstanceError):
        report.matched = 0


def test_load_fixture_unknown_id():
    with pytest.raises(KeyError):
        load_fixture("A999999")


def test_an_edited_fixture_leaves_the_next_load_unchanged():
    table = load_fixture("A000129")
    table[5] = 0
    assert load_fixture("A000129")[5] == 29
    assert compare("pell", load_fixture("A000129")).first_mismatch is None


def test_pinned_kronecker_fixtures_extend_the_direct_sums():
    # the two pinned tables agree with their defining sums well past the
    # identity sweep range (the sums themselves are retested in the registry)
    from binsums.core import binomial, kronecker

    t20 = load_fixture("A094667")
    t13 = load_fixture("A216597")
    for n in range(0, 30):
        s20 = sum(binomial(2 * n, n + k) * kronecker(k, 20) for k in range(n + 1))
        s13 = sum((-1) ** k * binomial(2 * n, n + k) * kronecker(k, 13) for k in range(n + 1))
        assert t20[n] == s20
        assert t13[n] == s13

