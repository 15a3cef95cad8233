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


# a file that is not a JSON document: the json module's scanner recurses
# once per array, so this ends in RecursionError, not in a decode error
NESTED_TOO_DEEP = b"[" * 200_000 + b"]" * 200_000

# file contents that no loader can read as JSON text
UNREADABLE = pytest.mark.parametrize("data", [b"\xff", NESTED_TOO_DEEP],
                                     ids=["not-utf-8", "nested-too-deep"])


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
def decisions(monkeypatch):
    """The instance-backed type of every feasibility decision made while the
    test runs, as a one-element set."""
    from promisekit.engine import PromiseEngine

    seen = []
    real = PromiseEngine._decide

    def spy(self, rt, demands, view):
        seen.append({rt})
        return real(self, rt, demands, view)

    monkeypatch.setattr(PromiseEngine, "_decide", spy)
    return seen
