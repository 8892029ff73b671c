import math
import random
from types import SimpleNamespace

import pytest
from finite_groups import finite_subgroup_orders

import solvkit.linalg
import solvkit.verify
from solvkit.linalg import SNFResult
from solvkit.verify import (
    LemmaReport,
    check_band_snf_identity,
    check_bs_crosscheck,
    check_corner_minors,
    check_interval_subgroups,
    check_minkowski,
    check_power_index,
    check_relator_identities,
    check_snf_minor_gcds,
    check_torsion_free,
    check_wreath,
    minkowski_bound,
    random_signature,
    reports_to_json,
    run_all,
)
from solvkit.gcgroup import (
    GcSignature,
    IntervalSubgroupReport,
    PowerIndexResult,
    band_matrix,
    gc_identity,
)
from solvkit.wreath import WreathElement


class TestLemmaReport:
    def test_passed(self):
        assert LemmaReport("x", 3, 3).passed
        assert not LemmaReport("x", 3, 2, "boom").passed

    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            LemmaReport("x", 1, 2)
        with pytest.raises(ValueError):
            LemmaReport("x", 2, 1)  # failure without description
        with pytest.raises(ValueError):
            LemmaReport("x", 2, 2, "spurious failure text")


class TestIndividualChecks:
    def test_band_snf(self):
        assert check_band_snf_identity(random.Random(1)).passed

    def test_snf_minor_gcds(self):
        assert check_snf_minor_gcds(random.Random(2)).passed

    def test_corner_minors(self):
        # The pinned case and 50 draws, two corner minors each.
        report = check_corner_minors(random.Random(3))
        assert report.passed and report.cases_run == 102

    def test_corner_minors_all_ones(self):
        matrix = band_matrix(GcSignature((1, 4, 1)), 3)
        assert matrix.submatrix(range(3), range(3)).det() == 1
        assert matrix.submatrix(range(3), range(2, 5)).det() == 1

    def test_relators(self):
        assert check_relator_identities(random.Random(4)).passed

    def test_torsion(self):
        assert check_torsion_free(random.Random(5)).passed

    def test_bs(self):
        report = check_bs_crosscheck()
        assert report.passed and report.cases_run == 5

    def test_power_index(self):
        assert check_power_index(random.Random(6)).passed

    def test_intervals(self):
        assert check_interval_subgroups(random.Random(7)).passed

    def test_wreath(self):
        assert check_wreath(random.Random(8)).passed

    def test_minkowski_report(self):
        assert check_minkowski().passed


class TestMinkowskiBound:
    def test_small_values(self):
        assert minkowski_bound(1) == 2
        assert minkowski_bound(2) == 24

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            minkowski_bound(0)

    def test_divisibility_chain(self):
        for n in range(1, 12):
            assert minkowski_bound(n + 1) % minkowski_bound(n) == 0

    def test_parity_and_24_divisibility(self):
        for n in range(1, 13):
            assert minkowski_bound(n) % 2 == 0
        for n in range(2, 13):
            assert minkowski_bound(n) % 24 == 0

    def test_oracle_one_dimensional(self):
        orders = finite_subgroup_orders(1)
        assert orders == {1, 2}
        assert all(minkowski_bound(1) % k == 0 for k in orders)
        assert math.lcm(*orders) == minkowski_bound(1)

    def test_oracle_two_dimensional(self):
        orders = finite_subgroup_orders(2)
        assert orders == {1, 2, 3, 4, 6, 8, 12}
        assert all(minkowski_bound(2) % k == 0 for k in orders)
        assert math.lcm(*orders) == minkowski_bound(2)

    def test_oracle_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            finite_subgroup_orders(3)


class TestRunAll:
    def test_all_pass_and_deterministic(self):
        first = run_all(0)
        second = run_all(0)
        assert first == second
        assert all(r.passed for r in first)
        assert reports_to_json(first) == reports_to_json(second)

    def test_different_seeds_still_pass(self):
        assert all(r.passed for r in run_all(12345))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_lemma_ids_and_case_counts_are_the_contract(self, seed):
        # the lemma ids and case counts that `solvkit verify all --json` prints
        assert [(r.lemma_id, r.cases_run) for r in run_all(seed)] == [
            ("band-matrix-snf-identity-block", 101),
            ("invariant-factors-vs-minor-gcds", 200),
            ("banded-corner-minors", 102),
            ("companion-model-satisfies-relations", 300),
            ("torsion-free-power-probe", 200),
            ("baumslag-solitar-crosscheck", 5),
            ("power-subgroup-index-bound", 53),
            ("interval-subgroups-free", 100),
            ("wreath-model-properties", 500),
            ("finite-subgroup-order-bound", 24),
        ]

    def test_sampler_respects_constraints(self):
        rng = random.Random(0)
        for _ in range(200):
            c = random_signature(rng)
            assert 1 <= c.s <= 5
            assert c.coeffs[0] != 0 and c.coeffs[-1] != 0
            assert math.gcd(*c.coeffs) == 1
            assert all(abs(x) <= 9 for x in c.coeffs)


class TestMutationSmoke:
    def test_injected_snf_fault_is_detected(self, monkeypatch):
        original = solvkit.linalg.snf

        def flipped(matrix):
            result = original(matrix)
            rows = [list(row) for row in result.smith.rows_as_tuples()]
            rows[0][0] = -rows[0][0] if rows[0][0] else 1
            return SNFResult(
                smith=solvkit.linalg.Matrix(rows),
                left=result.left,
                right=result.right,
                invariant_factors=result.invariant_factors,
            )

        monkeypatch.setattr(solvkit.linalg, "snf", flipped)
        report = check_band_snf_identity(random.Random(0))
        assert not report.passed
        assert report.first_failure is not None

    def test_every_case_runs_and_the_first_failure_is_kept(self, monkeypatch):
        monkeypatch.setattr(solvkit.verify, "gc_is_proper", lambda c: False)
        report = check_bs_crosscheck()
        assert (report.cases_run, report.cases_passed) == (5, 3)
        assert report.first_failure == "G((2,-1)) must be proper"


# For each check, the library call it tests, a stand-in that makes its first
# case fail, and the description that case reports.
FIRST_FAILURES = [
    (check_band_snf_identity, (solvkit.linalg, "snf"), lambda matrix: SimpleNamespace(smith=matrix),
     "c=2,3, m=2"),
    (check_snf_minor_gcds, (solvkit.linalg, "minor_gcds"), lambda matrix: (0,),
     "matrix=Matrix([[-8, -1, 7, 6], [3, 0, 6, 2], [9, -3, 7, -5], [0, -5, -6, -1]])"),
    (check_corner_minors, (solvkit.linalg.Matrix, "det"), lambda matrix: 0,
     "left window of c=2,3, m=2: 0"),
    (check_relator_identities, (solvkit.verify, "relator_check"), lambda c: False,
     "relator_check failed for c=4,-8,-1,7,6"),
    (check_relator_identities, (solvkit.verify, "gc_is_identity"), lambda c, word: False,
     "defining relator word not trivial for c=4,-8,-1,7,6"),
    (check_torsion_free, (solvkit.verify, "gc_mul"), lambda c, g, h: gc_identity(c),
     "torsion found: c=4,-8,-1,7,6, element=GcElement(translation=(Fraction(-2, 3), "
     "Fraction(4, 3), Fraction(1, 6), Fraction(-7, 6)), shift=4)"),
    (check_bs_crosscheck, (solvkit.verify, "gc_eval"), lambda c, word: word,
     "conjugation by a must double b in G((2,-1))"),
    (check_power_index, (solvkit.verify, "power_subgroup_index"), lambda c, t: PowerIndexResult(0),
     "index of <a, b^2> in G(2,-1) gave 0, expected 1"),
    (check_interval_subgroups, (solvkit.verify, "interval_subgroup"),
     lambda c, low, high: IntervalSubgroupReport(1, 0, 0, (2,)),
     "c=4,-8,-1,7,6, interval=[1,5]: IntervalSubgroupReport(generators=1, relators=0, "
     "free_rank=0, torsion_factors=(2,))"),
    (check_wreath, (solvkit.verify, "wr_base_relation"), lambda cvec: WreathElement.identity(),
     "base relation for cvec=[4, -8, -1, 7, 6, 3, 0] gave "
     "WreathElement(support=(), shift=0, modulus=None)"),
    (check_minkowski, (solvkit.verify, "minkowski_bound"), lambda n: 1, "bound(1) = 1"),
]


@pytest.mark.parametrize(
    "check, target, stand_in, expected", FIRST_FAILURES,
    ids=[f"{check.__name__}-{target[1]}" for check, target, _, _ in FIRST_FAILURES],
)
def test_first_failure_text_is_pinned(monkeypatch, check, target, stand_in, expected):
    monkeypatch.setattr(*target, stand_in)
    takes_rng = check not in (check_bs_crosscheck, check_minkowski)
    report = check(random.Random(0)) if takes_rng else check()
    assert report.first_failure == expected
