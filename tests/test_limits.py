import pytest

from ffrace.errors import UsageError
from ffrace.field import field_make
from ffrace.limits import (MAX_ENUM, MAX_GROUP_ORDER, Limit, check,
                           largest_within)
from ffrace.sieve import irreducible_indices


def test_largest_within_asks_no_further_than_twice_the_answer():
    for answer in (0, 1, 2, 26, 46257, 2 ** 20):
        asked = []

        def ok(n):
            asked.append(n)
            return n <= answer
        assert largest_within(ok) == answer
        assert max(asked) <= max(2 * answer, 1)


def test_check_accepts_the_limit_and_refuses_past_it():
    check(MAX_GROUP_ORDER, "unit group mod T", MAX_GROUP_ORDER.value)
    with pytest.raises(UsageError) as refused:
        check(MAX_GROUP_ORDER, "unit group mod T", 4095, "top", top=7)
    assert str(refused.value) == "unit group mod T: order 4095; the " \
        "supported limit is order 1024; the largest accepted top is 7"
    # a cost that rounds to the limit takes the digits that tell them apart
    for cost, says in ((3600000001, "3.600000001e+09"),
                       (3610000000, "3.61e+09"), (3700000000, "3.7e+09")):
        with pytest.raises(UsageError) as refused:
            check(Limit("work", 36 * 10 ** 8, "%s units", ""), "run", cost)
        assert str(refused.value) == "run: %s units; the supported limit " \
            "is 3.6e+09 units" % says


def test_refusal_past_a_float_names_the_largest_degree():
    # q^N past the largest float is written as a power of ten, and the
    # search for the largest degree never computes q^N past twice it
    with pytest.raises(UsageError) as refused:
        irreducible_indices(field_make(2), 100000)
    assert str(refused.value).endswith(
        ": 10^30103.0 encodings; the supported limit is 6.7e+07 encodings; "
        "the largest accepted degree is 26")
    assert 2 ** 26 <= MAX_ENUM.value < 2 ** 27
