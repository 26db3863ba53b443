import inspect
import textwrap

import pytest

from lapshift import orientations, verify

from lapshift.errors import CapacityError, InvalidInputError
from lapshift.families import FamilySpec
from lapshift.verify import (
    CHECKS,
    SuiteConfig,
    config_from_mapping,
    format_reports,
    load_config_file,
    run_suite,
    suite_passed,
)

# keeps the per-check unit tests quick; the acceptance tests exercise the
# defaults
SMALL = {"max_n": 4, "families": ((FamilySpec("unicyclic", 6, 4),))}


def test_config_defaults():
    config = SuiteConfig()
    assert config.max_n == 7
    assert config.bases == ("s", "e", "p", "h")
    assert config.tol == 1e-8
    assert config.only is None


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SuiteConfig(max_n=1)
    with pytest.raises(InvalidInputError):
        SuiteConfig(tol=0.0)
    with pytest.raises(InvalidInputError):
        SuiteConfig(bases=("s", "q"))


def test_load_config_file(tmp_path):
    path = tmp_path / "suite.cfg"
    path.write_text(
        "# comment\n"
        "max_n = 5\n"
        "\n"
        "families = 7:3, 8:4  # two families\n"
        "inject_fault = yes\n"
    )
    mapping = load_config_file(path)
    assert mapping == {"max_n": "5", "families": "7:3, 8:4", "inject_fault": "yes"}
    config = config_from_mapping(mapping)
    assert config.max_n == 5
    assert config.families == (
        FamilySpec("unicyclic", 7, 3),
        FamilySpec("unicyclic", 8, 4),
    )
    assert config.inject_fault is True


def test_load_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("max_n 5\n")
    with pytest.raises(InvalidInputError) as exc:
        load_config_file(path)
    assert "line 1" in str(exc.value)


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(InvalidInputError):
        config_from_mapping({"maxn": "5"})
    with pytest.raises(InvalidInputError):
        config_from_mapping({"families": "8-4"})


def test_output_dir_is_not_a_config_key():
    with pytest.raises(InvalidInputError, match="unknown configuration key"):
        config_from_mapping({"output_dir": "."})


def test_only_filter_runs_one_check():
    reports = run_suite(SuiteConfig(only="kostka-inverse", **SMALL))
    assert len(reports) == 1
    assert reports[0].check_id == "kostka-inverse"
    assert reports[0].passed
    assert reports[0].repro == "lapshift verify --only kostka-inverse"


def test_only_filter_rejects_unknown_id():
    with pytest.raises(InvalidInputError) as exc:
        run_suite(SuiteConfig(only="nope"))
    assert "alpha-nonnegative" in str(exc.value)


def test_fault_injection_is_caught():
    reports = run_suite(SuiteConfig(only="census-immanant", inject_fault=True, **SMALL))
    assert len(reports) == 1
    assert not reports[0].passed
    assert not suite_passed(reports)


def test_crashing_check_becomes_failure(monkeypatch):
    def boom(config):
        raise RuntimeError("exploded")

    monkeypatch.setitem(CHECKS, "boom", boom)
    reports = run_suite(SuiteConfig(only="boom", **SMALL))
    assert len(reports) == 1
    assert not reports[0].passed
    assert "RuntimeError" in reports[0].description
    assert reports[0].actual == "exploded"


def test_capacity_error_is_not_a_failed_check(monkeypatch):
    def refuse(config):
        raise CapacityError("too many")

    monkeypatch.setitem(CHECKS, "refuse", refuse)
    with pytest.raises(CapacityError):
        run_suite(SuiteConfig(only="refuse", **SMALL))


def test_format_reports_deterministic():
    config = SuiteConfig(only="monomial-table", **SMALL)
    first = format_reports(run_suite(config))
    second = format_reports(run_suite(config))
    assert first == second
    assert first.splitlines()[-1] == "all 1 checks passed"
    assert "[" not in first  # timings stay out unless asked for
    timed = format_reports(run_suite(config), include_times=True)
    assert "s]:" in timed


def test_format_reports_failure_line():
    reports = run_suite(SuiteConfig(only="census-immanant", inject_fault=True, **SMALL))
    text = format_reports(reports)
    assert text.startswith("FAIL census-immanant:")
    assert "repro: lapshift verify --only census-immanant" in text
    assert text.splitlines()[-1] == "0/1 checks passed"


def test_fast_checks_pass_on_small_config():
    fast = [
        "alpha-nonnegative",
        "character-orthogonality",
        "census-monotonicity",
        "coefficient-monotonicity",
        "kostka-inverse",
        "monomial-even-types",
        "monomial-table",
        "poset-extremes",
        "star-path-bounds",
        "transport-injectivity",
    ]
    for check_id in fast:
        report = run_suite(SuiteConfig(only=check_id, bases=("s", "p"), **SMALL))[0]
        assert report.passed, f"{check_id}: {report.actual}"


def test_reports_come_back_sorted():
    config = SuiteConfig(**SMALL, bases=("s",))
    ids = sorted(CHECKS)
    reports = run_suite(config)
    assert [rep.check_id for rep in reports] == ids
    assert suite_passed(reports)


def test_jobs_must_be_one():
    assert SuiteConfig().jobs == 1
    with pytest.raises(InvalidInputError, match="run in order"):
        SuiteConfig(jobs=2)
    with pytest.raises(InvalidInputError):
        config_from_mapping({"jobs": "0"})


def test_transport_check_catches_a_swapped_path_reversal(monkeypatch):
    # the two branches of the reversal swapped in the shared arrow map; the
    # 7-vertex families have a cover that takes the reversal (the 6:4 family
    # at max_n 5 does not)
    source = textwrap.dedent(inspect.getsource(orientations._transport_arrows))
    swapped = source.replace("if position[t] < j:", "if position[t] > j:")
    assert swapped != source
    namespace = dict(vars(orientations))
    exec(swapped, namespace)
    monkeypatch.setattr(verify, "_transport_arrows", namespace["_transport_arrows"])
    families = (FamilySpec("unicyclic", 7, 4), FamilySpec("unicyclic", 7, 6))
    report = run_suite(SuiteConfig(only="transport-injectivity", max_n=6, families=families))[0]
    assert not report.passed
    assert report.description.startswith("transported")
    assert format_reports([report]).startswith("FAIL transport-injectivity:")


@pytest.mark.parametrize("invariant", ["spectral_radius", "wiener_index"])
def test_spectral_wiener_check_catches_an_inverted_invariant(monkeypatch, invariant):
    original = getattr(verify, invariant)
    # the pinned 4-vertex values stay right, so it is a cover that fails
    monkeypatch.setattr(verify, invariant, lambda g: original(g) if g.n == 4 else -original(g))
    report = run_suite(SuiteConfig(only="spectral-wiener", **SMALL))[0]
    assert not report.passed
    h = verify._poset("unicyclic", 5, 3)
    move = h.witnesses[h.covers[0]]
    assert report.description.endswith(f"on a cover of (n=5, cycle 3) ({move.serialize()})")
    assert format_reports([report]).startswith("FAIL spectral-wiener:")
