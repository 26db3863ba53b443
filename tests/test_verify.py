import inspect
import textwrap
from itertools import product
from math import prod

import pytest

from lapshift import orientations, verify

from lapshift.errors import CapacityError, InvalidInputError
from lapshift.families import FamilySpec
from lapshift.partitions import Partition
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
    assert verify.SPECTRAL_TOL == 1e-8
    assert config.only is None


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SuiteConfig(max_n=1)
    with pytest.raises(InvalidInputError):
        SuiteConfig(bases=("s", "q"))
    # m is a basis, but its coefficients are not monotone along shifts
    with pytest.raises(InvalidInputError, match="not one of s, e, p, h"):
        SuiteConfig(bases=("m",))
    with pytest.raises(InvalidInputError, match="at least one of s, e, p, h"):
        SuiteConfig(bases=())


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
    with pytest.raises(InvalidInputError, match="unknown configuration key"):
        config_from_mapping({"tol": "1e-6"})
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


# the 7-vertex families have a cover that takes the path reversal (the 6:4
# family at max_n 5 does not)
REVERSAL_CONFIG = {
    "max_n": 6,
    "families": (FamilySpec("unicyclic", 7, 4), FamilySpec("unicyclic", 7, 6)),
}


def _mutate_transport_arrow(monkeypatch, old, new):
    """Swap one line of the per-arrow transport map, in the copy that the
    check tabulates and in the one that its failure report maps through."""
    source = textwrap.dedent(inspect.getsource(orientations._transport_arrow))
    mutant = source.replace(old, new)
    assert mutant != source
    namespace = dict(vars(orientations))
    exec(mutant, namespace)
    monkeypatch.setattr(orientations, "_transport_arrow", namespace["_transport_arrow"])
    monkeypatch.setattr(verify, "_transport_arrow", namespace["_transport_arrow"])


def test_transport_check_catches_a_swapped_path_reversal(monkeypatch):
    # the two branches of the reversal swapped in the shared arrow map
    _mutate_transport_arrow(monkeypatch, "if position[t] < j:", "if position[t] > j:")
    report = run_suite(SuiteConfig(only="transport-injectivity", **REVERSAL_CONFIG))[0]
    assert not report.passed
    assert report.description.startswith("transported")
    assert format_reports([report]).startswith("FAIL transport-injectivity:")


BRANCH_MUTANTS = {
    # a moved vertex keeps its arrow at the recipient: not an edge below
    "off-edge image": (
        "return s, (k if t == u and s in moved else t)",
        "return s, t",
        "transported arrow at r=",
    ),
    # a moved vertex's arrow at the recipient becomes the donor's arrow at
    # it, where the donor's own arrow lands
    "two sources merged": (
        "return s, (k if t == u and s in moved else t)",
        "return (k, s) if t == u and s in moved else (s, t)",
        "transported domain size at r=",
    ),
    # the reversed regime maps like the plain one
    "reversal dropped": ("if not reverse:", "if True:", "transported arrow at r="),
}


@pytest.mark.parametrize("mutant", sorted(BRANCH_MUTANTS))
def test_transport_check_catches_each_branch_mutant(monkeypatch, mutant):
    old, new, where = BRANCH_MUTANTS[mutant]
    _mutate_transport_arrow(monkeypatch, old, new)
    report = run_suite(SuiteConfig(only="transport-injectivity", **REVERSAL_CONFIG))[0]
    assert not report.passed
    assert report.description.startswith(where)
    assert format_reports([report]).startswith("FAIL transport-injectivity:")


@pytest.mark.parametrize("config", [{}, REVERSAL_CONFIG], ids=["default", "bench"])
def test_transport_walk_visits_every_orientation_of_every_cover(config):
    config = SuiteConfig(only="transport-injectivity", **config)
    expected = sum(
        prod(1 + above.degree(v) for v in above.vertices())
        for spec in verify._monotone_posets(config)
        for _, _, above in verify._cover_instances(spec)
    )
    report = run_suite(config)[0]
    assert report.passed
    assert report.description == (
        f"orientation transport type-preserving and injective on {expected} orientations"
    )


def test_closed_cycles_match_cycle_lengths_on_every_orientation():
    # the walk's order: the recipient first, then the other vertices
    orientations_seen = 0
    for n, k in ((7, 4), (7, 6)):
        for below, move, _ in verify._cover_instances(FamilySpec("unicyclic", n, k)):
            above = orientations._transport_plan(below, move).shifted
            order = [move.recipient] + [v for v in above.vertices() if v != move.recipient]
            choices = [[0, *sorted(above.neighbors(v))] for v in order]
            for targets in product(*choices):
                target, closed = [0] * (above.n + 1), []
                for v, t in zip(order, targets):
                    if t:
                        target[v] = t
                        closed.append(verify._closed_cycle(target, v, t, above.n))
                arrow = {v: t for v, t in zip(order, targets) if t}
                want = sorted(orientations._cycle_lengths(arrow))
                assert sorted(c for c in closed if c) == want, arrow
                orientations_seen += 1
    assert orientations_seen == 5940


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


def test_run_caches_last_one_run():
    # the corpus and the posets too: nothing a run builds outlives it
    assert {verify._bipartite_corpus, verify._poset} <= set(verify.RUN_CACHES)
    config = SuiteConfig(**SMALL, bases=("s",))
    first = format_reports(run_suite(config))
    assert all(c.cache_info().currsize == 0 for c in verify.RUN_CACHES)
    assert format_reports(run_suite(config)) == first
    assert all(c.cache_info().currsize == 0 for c in verify.RUN_CACHES)
    # a refused census leaves nothing behind either: the corpus graphs with
    # at most one cycle are counted before the first with two is refused
    with pytest.raises(CapacityError):
        run_suite(SuiteConfig(only="census-coefficients", census_cap=1, **SMALL))
    assert all(c.cache_info().currsize == 0 for c in verify.RUN_CACHES)


FIRST_RISES = [
    ("census", ("s",), "census of type 2,1,1,1,1 at r=2", "<= 6", "1006"),
    ("coefficient", ("s",), "coefficient r=2, basis s, shape 6", "<= 65", "2063"),
    ("coefficient", ("p", "h"), "coefficient r=2, basis h, shape 6", "<= 65", "2063"),
    ("coefficient", ("p",), "coefficient r=2, basis p, shape 2,1,1,1,1", "<= 288", "48288"),
    ("coefficient", ("e",), "coefficient r=2, basis e, shape 5,1", "<= 330", "2318"),
]


@pytest.mark.parametrize("kind, bases, where, expected, actual", FIRST_RISES)
def test_monotonicity_checks_read_each_nodes_census(
    monkeypatch, kind, bases, where, expected, actual
):
    # raise one census count of the upper node of the first cover: both
    # checks fail on that cover, at the first rise in check order
    h = verify._poset("unicyclic", 6, 4)
    i, j = h.covers[0]
    target, move = h.nodes[j], h.witnesses[i, j]
    real = verify.census_by_size

    def perturbed(g, cap):
        censuses = real(g, cap)
        if g == target:
            censuses = [dict(c) for c in censuses]
            mu = Partition([2, 1, 1, 1, 1])
            censuses[2][mu] = censuses[2].get(mu, 0) + 1000
        return censuses

    monkeypatch.setattr(verify, "census_by_size", perturbed)
    check_id = f"{kind}-monotonicity"
    report = run_suite(SuiteConfig(only=check_id, bases=bases, **SMALL))[0]
    assert not report.passed
    assert report.description == f"{where} on a unicyclic cover ({move.serialize()})"
    assert (report.expected, report.actual) == (expected, actual)
    assert format_reports([report]).startswith(f"FAIL {check_id}:")
