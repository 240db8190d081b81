"""classify_ghf's own argument checks and the arcs it reduces to classes;
the classification results are checked in test_acceptance."""

import pytest

from hyperarcs.arcs import Arc, _proved_arc
from hyperarcs.blocking import ArcClasses
from hyperarcs.classify import classify_ghf
from hyperarcs.gf2 import field_make
from hyperarcs.onefact import FactorizationError, embed_search
from test_onefact import CASE1, K6

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


@pytest.mark.parametrize("spec, catalogs", [
    ("x", None),             # the K6 class is closure-forced, so spec goes unread
    (None, {3: [K6]}),
    (GF8, {3: None}),        # not iterable
    (GF8, {3: [None]}),
    (GF8, {3: ["x"]}),
    (GF8, [K6]),             # a list of factorizations, not a dict
    (GF8, {"3": [K6]}),      # a key that would never be read
    (GF8, {3: [CASE1]}),     # a K8 class read as a K6 one
    (GF8, {3: [K6], 4: [K6]}),
])
def test_classify_refuses_specs_and_catalogs_of_other_types(spec, catalogs):
    # a wrong catalog would be searched as one of another size, or ignored
    with pytest.raises(FactorizationError):
        classify_ghf(spec, max_k=8, catalogs=catalogs)


def test_search_point_sets_give_the_same_forms_unchecked():
    # classify_ghf hands the search's point sets to ArcClasses through
    # arcs._proved_arc, past Arc's reading and collinearity sweep; each must
    # already be the arc Arc reads, and give the same form
    spec = field_make(4)
    embeddings, exhausted = embed_search(CASE1, spec)
    assert exhausted
    point_sets = sorted({e.arc_points() for e in embeddings if not e.focus_collinear()})
    assert len(point_sets) == 336
    proved, checked = ArcClasses(), ArcClasses()
    forms = set()
    for pts in point_sets:
        arc = Arc(spec, pts)
        assert arc.points == pts
        form = proved.form(_proved_arc(spec, pts))
        assert form == checked.form(arc)
        forms.add(form)
    assert len(forms) == 1
