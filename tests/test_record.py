"""The behaviours `promisekit.record` promises its records: those of a
dataclass, without generating a method at import."""

import copy
import pickle

import pytest

from promisekit.catalog import PropertyDecl
from promisekit.protocol import ActionMsg, Envelope


def test_an_envelope_repr_leaves_out_its_encoded_body():
    shown = repr(Envelope(action=ActionMsg("no-op"), encoded=b"{}"))
    assert shown == ("Envelope(promise_part=None, environment=None, "
                     "action=ActionMsg(action_name='no-op', payload=None, status=None), error=None)")
    assert "encoded" not in shown


def test_a_record_equals_only_a_record_of_its_own_class():
    assert (ActionMsg("a") == "a") is False
    assert (ActionMsg("a") != "a") is True
    assert ActionMsg("a") == ActionMsg("a") and ActionMsg("a") != ActionMsg("b")


def test_a_frozen_record_is_read_only():
    decl = PropertyDecl("class", order=("economy", "first"))
    with pytest.raises(AttributeError):
        decl.name = "grade"
    with pytest.raises(AttributeError):
        del decl.order
    assert decl.name == "class" and decl.order == ("economy", "first")


def test_equal_frozen_records_hash_equal_and_are_one_key():
    a = PropertyDecl("class", order=("economy", "first"))
    b = PropertyDecl("class", order=("economy", "first"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1, b: 2} == {a: 2}
    assert a != PropertyDecl("class", order=("first", "economy"))


@pytest.mark.parametrize("duplicate", [copy.copy, lambda d: pickle.loads(pickle.dumps(d))],
                         ids=["copy", "pickle"])
def test_a_copied_declaration_is_equal_and_still_ranks(duplicate):
    decl = PropertyDecl("class", order=("economy", "business", "first"))
    twin = duplicate(decl)
    assert twin == decl and twin is not decl
    assert [twin.rank(v) for v in ("economy", "first", "suite")] == [0, 2, -1]
    assert twin.allows("business") and not twin.allows("suite")
