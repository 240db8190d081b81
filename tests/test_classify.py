"""classify_ghf's own argument checks; the classification results are
checked in test_acceptance."""

import pytest

from hyperarcs.classify import classify_ghf
from hyperarcs.gf2 import field_make
from hyperarcs.onefact import FactorizationError

GF8 = field_make(3)


@pytest.mark.parametrize("name, value", [
    ("max_k", 7.5), ("max_k", "8"), ("max_k", 8.0), ("max_k", True),
    ("embed_budget", -1), ("embed_budget", 2.5), ("embed_budget", True),
    ("embed_budget", "3"),
])
def test_classify_refuses_numbers_of_other_types(name, value):
    # bool is an int subclass but no size or budget; nothing is converted
    with pytest.raises(FactorizationError):
        classify_ghf(GF8, **{name: value})
