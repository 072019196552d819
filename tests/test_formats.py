import json
from fractions import Fraction

import pytest

from hyperinc import (
    custom_weighting,
    equal_partition_certificate,
    general_combination_certificate,
    root_of_unity_certificate,
    three_set_certificate,
    uniform_cycle,
    unit_pair_certificate,
    verify_certificate,
)
from hyperinc.errors import BadWeightFile, InvalidParameters, ParseError
from hyperinc.formats import (
    certificate_from_json,
    certificate_to_json,
    format_fraction,
    load_weighting,
    parse_hypergraph,
    parse_hypergraph_json,
    parse_hypergraph_text,
    serialize_hypergraph_json,
    serialize_hypergraph_text,
)
from hyperinc.hypergraph import replace

TEXT_SAMPLE = """\
# sample file
vertices: 1 2 3 4 5

e1: 1 2 3   # trailing comment
e2: 2 3 4
"""


class TestTextFormat:
    def test_parse(self):
        h = parse_hypergraph_text(TEXT_SAMPLE)
        assert h.vertices == ("1", "2", "3", "4", "5")
        assert h.edge_labels == ("e1", "e2")
        assert h.edges[0] == frozenset({"1", "2", "3"})

    def test_round_trip_identity(self):
        h1 = parse_hypergraph_text(TEXT_SAMPLE)
        text = serialize_hypergraph_text(h1)
        h2 = parse_hypergraph_text(text)
        assert h1 == h2
        assert serialize_hypergraph_text(h2) == text

    def test_vertices_inferred_from_edges(self):
        h = parse_hypergraph_text("a: x y\nb: y z\n")
        assert h.vertices == ("x", "y", "z")

    def test_missing_colon(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph_text("e1 1 2\n")
        assert err.value.line == 1

    def test_duplicate_edge_name(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text("e1: 1 2\ne1: 2 3\n")

    def test_header_must_cover_edges(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text("vertices: 1 2\ne1: 1 3\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_hypergraph_text("# nothing here\n")

    def test_non_ascii_digit_labels_round_trip(self):
        # "²" is a digit but not decimal, so it sorts as a word; "٣" is decimal 3
        h = parse_hypergraph_text("e1: ² 1\ne2: 1 2 10\ne3: ٣ 2\n")
        assert h.vertices == ("1", "2", "٣", "10", "²")
        for serialize, parse in (
            (serialize_hypergraph_text, parse_hypergraph_text),
            (serialize_hypergraph_json, parse_hypergraph_json),
        ):
            text = serialize(h)
            assert parse(text) == h
            assert serialize(parse(text)) == text


class TestJsonFormat:
    def test_parse_and_round_trip(self, unit_example):
        text = serialize_hypergraph_json(unit_example)
        h = parse_hypergraph_json(text)
        assert h == unit_example
        assert serialize_hypergraph_json(h) == text

    def test_autodetect(self, unit_example):
        as_json = serialize_hypergraph_json(unit_example)
        as_text = serialize_hypergraph_text(unit_example)
        assert parse_hypergraph(as_json) == parse_hypergraph(as_text) == unit_example

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_hypergraph_json("{not json")

    def test_missing_edges_key(self):
        with pytest.raises(ParseError):
            parse_hypergraph_json('{"vertices": ["1"]}')

    def test_vertices_string_rejected(self):
        # a string is not read as the list of its characters
        with pytest.raises(ParseError, match="vertices"):
            parse_hypergraph_json('{"vertices": "abc", "edges": {"e1": ["a"]}}')

    def test_nested_edge_member_rejected(self):
        # ["a"] is not stringified into the label "['a']"
        with pytest.raises(ParseError, match="e1"):
            parse_hypergraph_json('{"vertices": ["a"], "edges": {"e1": [["a"]]}}')
        with pytest.raises(ParseError, match="e2"):
            parse_hypergraph_json('{"edges": {"e1": ["a"], "e2": "ab"}}')

    def test_integer_labels_accepted(self):
        h = parse_hypergraph_json('{"vertices": [1, 2, "x"], "edges": {"e1": [1, "x"]}}')
        assert h.vertices == ("1", "2", "x") and h.edges == (frozenset({"1", "x"}),)


class TestCertificateJson:
    def round_trip(self, h, cert):
        data = json.loads(json.dumps(certificate_to_json(cert)))
        rebuilt = certificate_from_json(h, data)
        assert rebuilt == cert
        return rebuilt

    def test_equal_partition(self, equal_partition_example):
        cert = equal_partition_certificate(equal_partition_example, ["1", "5"], ["2", "3", "4"])
        self.round_trip(equal_partition_example, cert)

    def test_three_set_with_ratio(self, induced_cycle_example):
        cert = three_set_certificate(
            induced_cycle_example, ["2", "4"], ["7", "8"], ["1", "3", "5"], Fraction(1, 2)
        )
        rebuilt = self.round_trip(induced_cycle_example, cert)
        assert rebuilt.ratio == Fraction(1, 2)

    def test_general_combination(self, unit_example):
        cert = general_combination_certificate(
            unit_example, [(["1", "10"], Fraction(-2, 3)), (["11"], 1)]
        )
        self.round_trip(unit_example, cert)

    def test_unit_pair(self, unit_example):
        cert = unit_pair_certificate(unit_example, "1", "2")
        self.round_trip(unit_example, cert)

    def test_root_of_unity(self):
        h = uniform_cycle(8, 4)
        cert = root_of_unity_certificate(h, 4, 1)
        rebuilt = self.round_trip(h, cert)
        assert rebuilt.order == 4 and rebuilt.power == 1

    def test_verified_report_fields(self, equal_partition_example):
        cert = equal_partition_certificate(equal_partition_example, ["1", "5"], ["2", "3", "4"])
        check = verify_certificate(equal_partition_example, cert)
        data = certificate_to_json(cert, check)
        assert data["valid"] is True
        assert set(data["residual"]) == {"e1", "e2", "e3"}
        assert all(v == "0" for v in data["residual"].values())

    def test_verified_report_loads_back(self, equal_partition_example):
        # the valid and residual a verify report adds are the only keys read past
        cert = equal_partition_certificate(equal_partition_example, ["1", "5"], ["2", "3", "4"])
        data = certificate_to_json(cert, verify_certificate(equal_partition_example, cert))
        assert certificate_from_json(equal_partition_example, data) == cert

    def test_unread_key_rejected(self):
        h = uniform_cycle(6, 3)
        sets = {"U": ["0", "3"], "V": ["1", "4"]}
        for data, key in (
            ({"kind": "ratio_edge_partition", "sets": sets, "ratoi": "2"}, "ratoi"),  # not read as r = 1
            ({"kind": "equal_edge_partition", "sets": sets, "u": "0"}, "u"),  # only a unit pair states u
            ({"kind": "unit_pair", "u": "0", "v": "3", "w": "1"}, "w"),
            ({"kind": "root_of_unity_cycle", "order": 3, "power": 1, "Order": 3}, "Order"),
        ):
            with pytest.raises(ParseError, match=f"no field '{key}'"):
                certificate_from_json(h, data)

    def test_unknown_kind(self, unit_example):
        with pytest.raises(ParseError):
            certificate_from_json(unit_example, {"kind": "nonsense"})

    def test_set_given_as_string_rejected(self, unit_example):
        # "12" is not read as the set {1, 2}
        data = {"kind": "equal_edge_partition", "sets": {"U": "12", "V": ["3"]}}
        with pytest.raises(ParseError, match="'U'"):
            certificate_from_json(unit_example, data)

    def test_part_without_set_rejected(self, unit_example):
        data = {"kind": "general_combination", "parts": [{"coefficient": "1"}]}
        with pytest.raises(ParseError, match="part 0"):
            certificate_from_json(unit_example, data)

    def test_one_element_part_rejected(self, unit_example):
        data = {"kind": "general_combination", "parts": [[["1"], "1"], [["2"]]]}
        with pytest.raises(ParseError, match="part 1"):
            certificate_from_json(unit_example, data)

    def test_sets_as_array_rejected(self, unit_example):
        data = {"kind": "equal_edge_partition", "sets": ["U"]}
        with pytest.raises(ParseError, match="'sets'"):
            certificate_from_json(unit_example, data)

    def test_non_integer_order_rejected(self, unit_example):
        for order in ("x", 2.5, None, True):
            data = {"kind": "root_of_unity_cycle", "order": order, "power": 1}
            with pytest.raises(ParseError, match="order"):
                certificate_from_json(uniform_cycle(8, 4), data)

    def test_accepted_part_shapes(self, unit_example):
        pairs = [[["1", "10"], "-2/3"], [["11"], 1]]
        objects = [{"set": members, "coefficient": coeff} for members, coeff in pairs]
        named = {
            "sets": {"A": ["1", "10"], "B": ["11"]},
            "coefficients": {"A": "-2/3", "B": "1"},
        }
        expected = general_combination_certificate(
            unit_example, [(["1", "10"], Fraction(-2, 3)), (["11"], 1)]
        )
        for data in ({"parts": pairs}, {"parts": objects}, named):
            rebuilt = certificate_from_json(unit_example, {"kind": "general_combination", **data})
            assert rebuilt == expected

    def test_unit_pair_shapes(self, unit_example):
        expected = unit_pair_certificate(unit_example, "1", "2")
        for data in ({"u": "1", "v": 2}, {"sets": {"u": ["1"], "v": ["2"]}}):
            assert certificate_from_json(unit_example, {"kind": "unit_pair", **data}) == expected
        for data in ({"u": ["1"], "v": "2"}, {"sets": {"u": [], "v": ["2"]}}, {"u": "1"}):
            with pytest.raises(ParseError):
                certificate_from_json(unit_example, {"kind": "unit_pair", **data})

    def test_json_that_disagrees_with_its_kind_is_refused(self):
        """A side, set, ratio or coefficient that the certificate built from
        the JSON does not have is an input error; it is not dropped, and an
        equal kind is not read as a ratio kind."""
        h = parse_hypergraph("vertices: 1 2 3 4\ne1: 1 2\ne2: 3 4\ne3: 1 3\ne4: 2 4\n")
        edges, vertices = {"E": ["e1", "e2"], "F": ["e3", "e4"]}, {"U": ["1", "4"], "V": ["2", "3"]}
        for data in (
            {"kind": "equal_vertex_partition", "sets": edges, "ratio": "2"},
            {"kind": "equal_vertex_partition", "sets": edges, "ratio": "1"},
            {"kind": "equal_vertex_partition", "sets": edges, "side": "B"},
            {"kind": "equal_edge_partition", "sets": vertices, "ratio": "2"},
            {"kind": "equal_edge_partition", "sets": vertices, "ratio": "1"},
            {"kind": "equal_edge_partition", "sets": vertices, "coefficients": {"U": "2", "V": "-1"}},
            {"kind": "equal_edge_partition", "sets": vertices, "coefficients": {"U": "1", "X": "0"}},
            {"kind": "equal_edge_partition", "sets": {"U": ["1"], "V": ["4"], "X": ["2"]}},
            {"kind": "ratio_edge_partition", "sets": vertices, "ratio": "2", "coefficients": {"V": "-1"}},
            {"kind": "three_set_relation", "sets": {"W": ["1"]}, "ratio": "2", "coefficients": {"W": "-2"}},
            {"kind": "unit_pair", "u": "1", "v": "2", "sets": {"u": ["3"], "v": ["4"]}},
            {"kind": "unit_pair", "u": "1", "v": "2", "sets": {"u": [], "v": ["2"]}},
            {"kind": "unit_pair", "u": "1", "v": "2", "sets": {"u": ["1"], "v": ["2"], "w": []}},
        ):
            with pytest.raises(ParseError, match="are not those of a"):
                certificate_from_json(h, data)
        with pytest.raises(ParseError, match="'coefficients'"):
            certificate_from_json(h, {"kind": "equal_edge_partition", "sets": vertices, "coefficients": ["1"]})

    def test_json_that_states_what_was_built_loads(self):
        """Every field a report writes may be given back; sets compare as label
        sets, and each vertex partition keeps its kind: the equal one states no
        ratio, and the ratio one at r = 1 is not read as the equal one."""
        h = parse_hypergraph("vertices: 1 2 3 4\ne1: 1 2\ne2: 3 4\ne3: 1 3\ne4: 2 4\n")
        edges = {"E": ["e2", "e1"], "F": ["e3", "e4"]}
        equal = certificate_from_json(h, {"kind": "equal_vertex_partition", "sets": edges})
        assert equal.ratio is None and equal.coefficients == (1, -1)
        stated = {"side": "I", "sets": edges, "coefficients": {"E": "1", "F": "-1"}}
        assert certificate_from_json(h, {"kind": "equal_vertex_partition", **stated}) == equal
        ratio = certificate_from_json(h, {"kind": "ratio_vertex_partition", **stated, "ratio": "1"})
        assert ratio == replace(equal, kind="ratio_vertex_partition", ratio=1)
        pair = {"kind": "unit_pair", "u": 1, "v": "2", "sets": {"u": [1], "v": ["2"]}}
        assert certificate_from_json(h, pair) == unit_pair_certificate(h, "1", "2")


class TestWeightFiles:
    def test_load(self, tmp_path, unit_example):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({f"e{i}": "1/3" for i in range(1, 6)}))
        w = load_weighting(unit_example, str(path))
        assert all(x == Fraction(1, 3) for x in w.weights)

    def test_floats_rejected(self, tmp_path, unit_example):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({f"e{i}": 0.5 for i in range(1, 6)}))
        with pytest.raises(BadWeightFile):
            load_weighting(unit_example, str(path))

    def test_non_positive_rejected(self, tmp_path, unit_example):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({f"e{i}": "-1" for i in range(1, 6)}))
        with pytest.raises(BadWeightFile):
            load_weighting(unit_example, str(path))

    def test_boolean_weight_rejected(self, tmp_path, unit_example):
        # Fraction(True) is 1, so a boolean would otherwise pass as a weight
        path = tmp_path / "w.json"
        path.write_text(json.dumps({f"e{i}": True for i in range(1, 6)}))
        with pytest.raises(BadWeightFile):
            load_weighting(unit_example, str(path))

    def test_missing_edge_rejected(self, tmp_path, unit_example):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"e1": "1"}))
        with pytest.raises(BadWeightFile):
            load_weighting(unit_example, str(path))

    def test_unknown_edge_rejected(self, tmp_path, unit_example):
        # a weight for an edge the hypergraph lacks is not silently dropped
        path = tmp_path / "w.json"
        path.write_text(json.dumps({**{f"e{i}": "1" for i in range(1, 6)}, "e9": "-1"}))
        with pytest.raises(BadWeightFile, match="e9"):
            load_weighting(unit_example, str(path))
        with pytest.raises(InvalidParameters):
            custom_weighting(unit_example, {**{f"e{i}": 1 for i in range(1, 6)}, "e9": 1})

    def test_custom_string_weights_follow_the_file_rule(self, unit_example):
        # an exponent would let a short string build a huge denominator
        for bad in ("1e-1000000", "1e2", "0x10", "1/0"):
            with pytest.raises(InvalidParameters, match="weights must be finite rationals"):
                custom_weighting(unit_example, ["1", "1", bad, "1", "1"])
        w = custom_weighting(unit_example, {"e1": " 1/2 ", "e2": "0.25", "e3": "+3", "e4": 2, "e5": "7"})
        assert w.weights == (Fraction(1, 2), Fraction(1, 4), 3, 2, 7)
        with pytest.raises(ParseError, match="bad fraction '1e2': Invalid literal for Fraction"):
            certificate_from_json(unit_example, {"kind": "ratio_edge_partition",
                                                 "sets": {"U": ["1"], "V": ["2"]}, "ratio": "1e2"})

    def test_non_finite_custom_weights_rejected(self, unit_example):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameters):
                custom_weighting(unit_example, [1, 1, bad, 1, 1])
            with pytest.raises(InvalidParameters):
                custom_weighting(unit_example, {f"e{i}": bad for i in range(1, 6)})


@pytest.mark.parametrize(
    "x",
    [0, 7, -7, 10**60, -(10**60) + 1, Fraction(-3, 4), Fraction(10**50, 3), Fraction(6, 3),
     "2/4", "-5/10", " 3 ", True, False],
)
def test_format_fraction_prints_what_fraction_prints(x):
    """An int or a Fraction is printed as it is, with no second Fraction; a
    string or a bool still goes through Fraction (True prints as 1)."""
    assert format_fraction(x) == str(Fraction(x))
