"""The record classes: equality and hash over their compared fields, repr,
immutability, pickling and replace.

The expected values are those of the dataclasses the records replaced, so
no set or dict of records iterates in another order.
"""

import copy
import pickle

import pytest

from btcayley.autgroup import VertexMap
from btcayley.blocktrans import CutPoints, tn_realizations
from btcayley.graphs import EdgeSet2Cliques, build_cayley
from btcayley.perms import Permutation
from btcayley.toric import DihedralElement, bar_f_witness
from btcayley.verify import Claim, VerificationReport


def _report():
    return VerificationReport("eq9", 4, "verified", {"a": 1}, None, 1.5)


def _vertex_map():
    return VertexMap(build_cayley(3, tn_realizations(3)), tuple(range(6)))


RECORDS = {
    "Permutation": lambda: Permutation((2, 3, 1)),
    "CutPoints": lambda: CutPoints(0, 1, 3, 4),
    "EdgeSet2Cliques": lambda: EdgeSet2Cliques(((0, 1),), (None,)),
    "SkewMorphismWitness": lambda: bar_f_witness(2, 1),
    "DihedralElement": lambda: DihedralElement(2, 1, 4),
    "VertexMap": _vertex_map,
    "VerificationReport": _report,
    "Claim": lambda: Claim("k", "s", 1, 2, len),
}


def test_the_hash_is_that_of_the_tuple_of_the_compared_fields():
    p = Permutation((2, 3, 1))
    assert hash(p) == hash((p.image,)) == hash(((2, 3, 1),))
    assert hash(CutPoints(0, 1, 3, 4)) == hash((0, 1, 3, 4))
    assert hash(DihedralElement(2, 1, 4)) == hash((2, 1, 4))
    assert hash(Claim("k", "s", 1, 2, len)) == hash(("k", "s", 1, 2))
    assert hash(_vertex_map()) == hash((tuple(range(6)),))
    with pytest.raises(TypeError, match="unhashable"):
        hash(_report())  # details is a dict


def test_claim_equality_and_hash_ignore_the_runner():
    a, b = Claim("k", "s", 1, 2, len), Claim("k", "s", 1, 2, abs)
    assert a == b and hash(a) == hash(b)
    assert a != Claim("k", "s", 1, 3, len)


def test_vertex_map_equality_ignores_the_graph():
    first, second = _vertex_map(), _vertex_map()
    assert first.graph is not second.graph
    assert first == second
    assert first != VertexMap(first.graph, (1, 0, 2, 3, 4, 5))


def test_a_record_equals_no_object_of_another_class():
    assert CutPoints(0, 1, 3, 4) != (0, 1, 3, 4)
    assert DihedralElement(1, 0, 3) != CutPoints(1, 2, 3, 3)
    assert Permutation((1,)) != ((1,),)


@pytest.mark.parametrize(
    "key, text",
    [
        ("Permutation", "Permutation(image=(2, 3, 1))"),
        ("CutPoints", "CutPoints(i=0, j=1, k=3, n=4)"),
        ("EdgeSet2Cliques", "EdgeSet2Cliques(edges=((0, 1),), em_index=(None,))"),
        (
            "SkewMorphismWitness",
            "SkewMorphismWitness(elements=(Permutation(image=(1, 2)), Permutation(image=(2, 1))),"
            " psi=(0, 1), order=1, pi_power=(0, 0))",
        ),
        ("DihedralElement", "DihedralElement(r=2, refl=1, n=4)"),
        (
            "VerificationReport",
            "VerificationReport(claim='eq9', n=4, status='verified', details={'a': 1},"
            " counterexample=None, wall_time_ms=1.5)",
        ),
        ("Claim", "Claim(key='k', summary='s', min_n=1, max_n=2, runner=<built-in function len>)"),
    ],
)
def test_the_repr_names_every_field(key, text):
    assert repr(RECORDS[key]()) == text


def test_the_vertex_map_repr_names_the_graph_first():
    assert repr(_vertex_map()).startswith("VertexMap(graph=<btcayley.graphs.Graph object at ")
    assert repr(_vertex_map()).endswith(", images=(0, 1, 2, 3, 4, 5))")


FIRST_FIELDS = {
    "Permutation": "image",
    "CutPoints": "i",
    "EdgeSet2Cliques": "edges",
    "SkewMorphismWitness": "elements",
    "DihedralElement": "r",
    "VertexMap": "graph",
    "VerificationReport": "claim",
    "Claim": "key",
}


@pytest.mark.parametrize("key, field", sorted(FIRST_FIELDS.items()))
def test_assignment_raises_attribute_error(key, field):
    record = RECORDS[key]()
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = None


def test_permutation_has_slots_and_no_instance_dict():
    assert Permutation.__slots__ == ("image",)
    assert not hasattr(Permutation((1,)), "__dict__")


@pytest.mark.parametrize("key", ["Permutation", "CutPoints", "VerificationReport"])
def test_a_pickle_round_trip_gives_an_equal_record(key):
    record = RECORDS[key]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back is not record
    assert back == record
    assert repr(back) == repr(record)
    assert copy.deepcopy(record) == record


def test_replace_copies_a_record_with_some_fields_changed():
    claim = Claim("k", "s", 1, 2, len)
    copied = claim.replace(runner=abs)
    assert copied.runner is abs and claim.runner is len
    assert copied == claim
    assert CutPoints(0, 1, 3, 4).replace(k=4) == CutPoints(0, 1, 4, 4)
    assert _report().replace(status="failed").as_json() == {**_report().as_json(), "status": "failed"}


def test_replace_runs_the_checks_and_refuses_unknown_fields():
    with pytest.raises(ValueError, match="cut points must satisfy"):
        CutPoints(0, 1, 3, 4).replace(i=2)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((2, 3, 1)).replace(image=(1, 1, 2))
    with pytest.raises(TypeError):
        DihedralElement(2, 1, 4).replace(s=1)
