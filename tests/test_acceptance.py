"""The acceptance battery, one test per criterion.

Each test prints its criterion line, asserts the verdict, and holds the
run to the stated time budget where one is stated.
"""

import pytest

from langlab import acceptance
from langlab.words import Word


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"{i + 1:02d}-{fn.__name__}" for i, fn in enumerate(acceptance.CRITERIA)],
)
def test_criterion(criterion):
    result = criterion(acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.details
    if result.budget_s is not None:
        assert result.elapsed_s <= result.budget_s, (
            f"criterion {result.number} took {result.elapsed_s:.1f}s, "
            f"budget {result.budget_s:.0f}s"
        )


def test_battery_is_green_end_to_end():
    results = acceptance.run_all()
    for result in results:
        print(result.line())
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results)


def test_advice_equivalences_build_each_table_word_once(monkeypatch):
    # 20 random tables of 9 advice words are built once each; rebuilding a
    # table's word on every decision built 20,220 more (44,894 in all)
    inits = []
    checked_init = Word.__init__

    def counted_init(self, letters=()):
        inits.append(letters)
        checked_init(self, letters)

    monkeypatch.setattr(Word, "__init__", counted_init)
    result = acceptance.advice_equivalences(1729)
    assert result.passed
    assert result.details == "parallel mismatches: 0, conversion mismatches: 0"
    assert len(inits) <= 44_894 - 20_000
