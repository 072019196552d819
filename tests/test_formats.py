import json
from fractions import Fraction

import pytest

from hyperinc import (
    equal_partition_certificate,
    general_combination_certificate,
    root_of_unity_certificate,
    three_set_certificate,
    uniform_cycle,
    unit_pair_certificate,
    verify_certificate,
)
from hyperinc.errors import BadWeightFile, ParseError
from hyperinc.formats import (
    certificate_from_json,
    certificate_to_json,
    load_weighting,
    parse_hypergraph,
    parse_hypergraph_json,
    parse_hypergraph_text,
    serialize_hypergraph_json,
    serialize_hypergraph_text,
)

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

    def test_unknown_kind(self, unit_example):
        with pytest.raises(ParseError):
            certificate_from_json(unit_example, {"kind": "nonsense"})


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

    def test_missing_edge_rejected(self, tmp_path, unit_example):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"e1": "1"}))
        with pytest.raises(BadWeightFile):
            load_weighting(unit_example, str(path))
