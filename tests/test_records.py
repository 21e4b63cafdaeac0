import pytest

from cliquebound.records import ConsistencyRecord, not_applicable


def test_applicable_record_needs_verdict():
    with pytest.raises(ValueError):
        ConsistencyRecord("p", "s", 0, 0, applicable=True, passed=None)


def test_inapplicable_record_must_not_carry_verdict():
    with pytest.raises(ValueError):
        ConsistencyRecord("p", "s", 0, 0, applicable=False, passed=True)


def test_not_applicable_helper():
    rec = not_applicable("some_bound", "n=3")
    assert rec.predicate == "some_bound"
    assert not rec.applicable
    assert rec.passed is None


def test_positional_and_keyword_construction_agree():
    positional = ConsistencyRecord("p", "s", 3, 4, True, False)
    keyword = ConsistencyRecord(
        predicate="p", subject="s", lhs=3, rhs=4, applicable=True, passed=False
    )
    assert positional == keyword
    assert (positional.predicate, positional.subject, positional.lhs, positional.rhs) == (
        "p", "s", 3, 4,
    )


@pytest.mark.parametrize(
    "applicable, passed, message",
    [
        (True, None, "need a pass/fail outcome"),
        (False, True, "defined only when applicable"),
        (False, False, "defined only when applicable"),
    ],
)
def test_both_verdict_checks_fire_by_keyword(applicable, passed, message):
    with pytest.raises(ValueError, match=message):
        ConsistencyRecord(
            predicate="p", subject="s", lhs=0, rhs=0, applicable=applicable, passed=passed
        )
