"""Each certificate's sets are resolved against the hypergraph once.

The finder builds its certificates from its own disjoint masks, so ``find``
resolves sets only where it verifies them: one ``_check_sets`` call per
certificate reported, for every enumerable kind, all inside
``verify_certificates``.  ``verify`` resolves a loaded certificate once in its
public constructor and once in ``verify_certificate``, and inside either no
set label is looked up anywhere else.
"""

import json
import random

from hyperinc import Hypergraph, cli, kernels
from hyperinc.formats import certificate_to_json, serialize_hypergraph_text
from hyperinc.kernels import ALL_KINDS, GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE

from conftest import random_instance

ENUMERABLE_KINDS = sorted(ALL_KINDS - {GENERAL_COMBINATION, ROOT_OF_UNITY_CYCLE})


def test_one_resolution_per_certificate(tmp_path, monkeypatch, capsys):
    h = random_instance(random.Random(23074), max_vertices=7, max_edges=6)
    path = tmp_path / "h.txt"
    path.write_text(serialize_hypergraph_text(h))
    firsts = []
    for kind in ENUMERABLE_KINDS:
        cert = kernels.find_certificates_exhaustive(h, kind)[0]  # every kind has one here
        firsts.append(certificate_to_json(cert, kernels.verify_certificate(h, cert)))

    calls, inside = [], {"check": False, "verify": False}

    def flag(name, fn):
        def wrapper(*args, **kwargs):
            inside[name] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[name] = False

        return wrapper

    check_sets = flag("check", kernels._check_sets)

    def counted(*args):
        calls.append(inside["verify"])  # whether the call came from verifying
        return check_sets(*args)

    monkeypatch.setattr(kernels, "_check_sets", counted)
    monkeypatch.setattr(cli, "verify_certificate", flag("verify", kernels.verify_certificate))
    monkeypatch.setattr(cli, "verify_certificates", flag("verify", kernels.verify_certificates))
    for name in ("vertex_index", "edge_index"):
        def lookup(self, label, resolve=getattr(Hypergraph, name)):
            assert inside["check"] or not inside["verify"], "a set label resolved outside _check_sets"
            return resolve(self, label)

        monkeypatch.setattr(Hypergraph, name, lookup)

    for kind in ENUMERABLE_KINDS:
        calls.clear()
        assert cli.main(["find", str(path), "--kind", kind, "--json"]) == 0
        count = json.loads(capsys.readouterr().out)["count"]
        assert count and calls == [True] * count, kind
    for i, data in enumerate(firsts):
        cert_path = tmp_path / f"cert{i}.json"
        cert_path.write_text(json.dumps(data))
        calls.clear()
        assert cli.main(["verify", str(path), "--certificate", str(cert_path)]) == 0
        assert calls == [False, True], data["kind"]
