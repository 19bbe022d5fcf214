import pytest

from jkvkit.oracles import FuzzConfig
from jkvkit.serialize import load_torus_problem
from jkvkit.suites import run_suite, suite_names


def test_all_suites_pass_small():
    for name in suite_names():
        report = run_suite(name, FuzzConfig(seed=3, count=10))
        assert report.passed, (name, report.failures[:1])
        assert report.instances == 10
        assert report.suite == name


def test_aliases_resolve():
    assert run_suite("lemma-limits", FuzzConfig(seed=1, count=2)).suite == "limits"
    assert run_suite("relint", FuzzConfig(seed=1, count=2)).suite == "semisimple"


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", FuzzConfig(count=1))


def test_jkv_survey_searches_the_stabilizers_of_gamma_once(monkeypatch):
    import jkvkit.oracles as oracles_mod
    import jkvkit.torus as torus_mod

    finite_instances = []
    self_transfers = []
    sample, transfers = oracles_mod.sample_torus_instance, torus_mod._transfers

    def counted_sample(rng, cfg):
        rep, gamma = sample(rng, cfg)
        if rep.finite is not None:
            finite_instances.append(gamma)
        return rep, gamma

    def counted_transfers(rep, v, target):
        if v is target:
            self_transfers.append(v)
        return transfers(rep, v, target)

    monkeypatch.setattr(oracles_mod, "sample_torus_instance", counted_sample)
    monkeypatch.setattr(torus_mod, "_transfers", counted_transfers)
    report = run_suite("jkv-survey", FuzzConfig(seed=3, count=10))
    assert report.passed and finite_instances
    assert self_transfers == finite_instances


def test_reports_are_deterministic():
    a = run_suite("theorem", FuzzConfig(seed=5, count=15))
    b = run_suite("theorem", FuzzConfig(seed=5, count=15))
    assert a.failures == b.failures and a.instances == b.instances


def test_default_config():
    report = run_suite("compose-mu")
    assert report.passed and report.instances == 200


def test_failure_payloads_replay(monkeypatch):
    """Corrupt one invariant check so a failure record is produced, then
    reload its serialized input bit-exactly."""
    import jkvkit.suites as suites_mod

    original = suites_mod._check_theorem_instance

    def broken(rep, gamma, box):
        res = original(rep, gamma, box)
        return res or "forced failure"

    monkeypatch.setattr(suites_mod, "_check_theorem_instance", broken)
    report = run_suite("theorem", FuzzConfig(seed=8, count=3))
    assert not report.passed and len(report.failures) == 3
    for f in report.failures:
        rep, gamma = load_torus_problem(f.payload)
        assert rep.rank == f.payload["rank"]
