import math
import random

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
from solvkit.gcgroup import GcSignature, band_matrix


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
