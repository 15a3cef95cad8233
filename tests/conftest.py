import pytest

from promisekit.catalog import load_catalog


HOTEL_DOC = {
    "resource-types": [
        {
            "name": "room",
            "properties": [
                {"name": "floor", "domain": list(range(1, 13))},
                {"name": "view", "domain": [True, False]},
            ],
            "instances": [
                {"key": "512", "properties": {"floor": 5, "view": True}},
                {"key": "610", "properties": {"floor": 6, "view": True}},
            ],
        }
    ]
}

SEAT_DOC = {
    "resource-types": [
        {
            "name": "seat",
            "properties": [
                {"name": "class", "order": ["economy", "business", "first"]},
            ],
            "instances": [
                {"key": "24G", "properties": {"class": "economy"}},
                {"key": "24H", "properties": {"class": "economy"}},
                {"key": "2A", "properties": {"class": "first"}},
            ],
        }
    ]
}


def widget_doc(count=10):
    return {"resource-types": [{"name": "pink-widget", "pool": count}]}


@pytest.fixture
def hotel_catalog():
    return load_catalog(HOTEL_DOC)


@pytest.fixture
def seat_catalog():
    return load_catalog(SEAT_DOC)


@pytest.fixture
def widget_catalog():
    return load_catalog(widget_doc())


@pytest.fixture
def builds(monkeypatch):
    """Resource types of every flow problem built while the test runs."""
    from promisekit import engine
    from promisekit.predicates import resource_type_of

    seen = []
    real = engine.build_feasibility_problem

    def spy(predicates, view):
        seen.append({resource_type_of(p) for p in predicates})
        return real(predicates, view)

    monkeypatch.setattr(engine, "build_feasibility_problem", spy)
    return seen


@pytest.fixture
def decisions(monkeypatch):
    """The instance-backed type of every feasibility decision made while the
    test runs, as a one-element set, whether it builds a flow problem or
    repairs the type's kept assignment."""
    from promisekit.engine import PromiseEngine

    seen = []
    real = PromiseEngine._decide

    def spy(self, rt, demands, view):
        seen.append({rt})
        return real(self, rt, demands, view)

    monkeypatch.setattr(PromiseEngine, "_decide", spy)
    return seen


@pytest.fixture
def view_copies(monkeypatch):
    """Ids of every InstanceView copy the catalog makes while the test runs."""
    from promisekit import catalog

    made = []
    real = catalog.InstanceView

    def spy(iid, properties, status):
        made.append(iid)
        return real(iid, properties, status)

    monkeypatch.setattr(catalog, "InstanceView", spy)
    return made
