import copy
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from overmex import combinat as cb
from overmex import qfactory as qf
from overmex import series as se
from overmex import verify as vf
from overmex.qfactory import MexVariant
from test_qfactory import _mul_binomial, _seen_by_verify, _seen_family
from test_series import to_gf2


@pytest.fixture
def cold_caches():
    """Empty the qfactory caches before and after a test that changes a
    series kernel, so no series built with the wrong kernel survives it."""

    def clear():
        for f in vars(qf).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()

    clear()
    yield
    clear()


class TestReport:
    def test_reports_do_not_share_metrics(self):
        a = vf.VerifyReport("a", vf.PASS, "n <= 1")
        b = vf.VerifyReport(check_name="b", status=vf.PASS, range_checked="n <= 1")
        a.metrics["x"] = 1
        assert b.metrics == {} and a.metrics is not b.metrics
        assert a.first_failure is b.first_failure is None

    @pytest.mark.parametrize("first_failure, metrics, expected", [
        (None, None, '{"check_name": "demo", "status": "FAIL", "range_checked": "n <= 5"}'),
        ((3, 4, 5), None, '{"check_name": "demo", "status": "FAIL", "range_checked": "n <= 5",'
         ' "first_failure": [3, 4, 5]}'),
        ((3, 4, 5), {"x": 0.5}, '{"check_name": "demo", "status": "FAIL",'
         ' "range_checked": "n <= 5", "first_failure": [3, 4, 5], "metrics": {"x": 0.5}}'),
        (None, {}, '{"check_name": "demo", "status": "FAIL", "range_checked": "n <= 5"}'),
    ], ids=["bare", "first_failure", "both", "empty_metrics"])
    def test_to_dict_keys_in_order(self, first_failure, metrics, expected):
        r = vf.VerifyReport("demo", vf.FAIL, "n <= 5", first_failure, metrics)
        assert json.dumps(r.to_dict()) == expected
        assert not r.passed

    def test_mutable(self):
        r = vf.VerifyReport("demo", vf.FAIL, "n <= 5")
        r.status = vf.PASS
        assert r.passed

    def test_json_schema(self):
        r = vf.VerifyReport("demo", vf.PASS, "n <= 5", metrics={"density": 0.5})
        d = json.loads(json.dumps(r.to_dict()))
        assert d == {
            "check_name": "demo",
            "status": "PASS",
            "range_checked": "n <= 5",
            "metrics": {"density": 0.5},
        }

    @pytest.mark.parametrize("a_terms,a_order,b_terms,b_order,witness", [
        ({0: 1, 1: 2, 2: 3}, 4, {0: 1, 1: 2, 2: 4}, 4, (2, 3, 4)),
        ({0: 1, 3: 5}, 4, {0: 2, 3: 5}, 4, (0, 1, 2)),  # only at q^0
        ({0: 1, 4: 7}, 4, {0: 1, 4: 8}, 6, (4, 7, 8)),  # only at the last shared q^N
        ({0: 1, 2: 3}, 3, {0: 1, 2: 3, 5: 9}, 6, None),  # past q^3 is not compared
    ], ids=["inner", "constant_term", "last_shared", "shared_prefix_agrees"])
    def test_failure_carries_witness(self, a_terms, a_order, b_terms, b_order, witness):
        a = se.from_terms(a_terms, a_order)
        b = se.from_terms(b_terms, b_order)
        r = vf._compare_series("demo", "n <= 4", [({"row": "a_vs_b"}, a.coeffs, b.coeffs)])
        assert r.passed == (witness is None)
        assert r.first_failure == witness
        assert r.metrics == ({} if witness is None else {"row": "a_vs_b"})


def _bump(series, k):
    """series + q^k, at the series' own order."""
    return se.add(series, se.from_terms({k: 1}, series.trunc_order))


def _assert_fail(report, witness, metrics):
    """report is a FAIL with exactly these metrics, whose first failure is
    witness, or lies at n = witness for an int."""
    got = report.first_failure[0] if isinstance(witness, int) else report.first_failure
    assert (report.status, got, report.metrics) == (vf.FAIL, witness, metrics), report.to_dict()


def _bump_sigma(monkeypatch, k):
    """verify sees q^k added to each of the three Z sigma-mex series."""
    _seen_family(monkeypatch, se, **{v.value: lambda s: _bump(s, k) for v in MexVariant})


def _flip_gf2_bits(monkeypatch, flips):
    """verify sees the bits flips[field] toggled in each field of every
    GF(2) sigma_family.  The integer series, and so the mod-2 comparison,
    are unchanged."""
    _seen_family(monkeypatch, se.GF2, **{
        field: lambda s, bits=bits: se.GF2.add(
            s, se.GF2.from_terms(dict.fromkeys(bits, 1), s.trunc_order))
        for field, bits in flips.items()})


class TestGfVsOracle:
    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_passes(self, variant):
        r = vf.check_gf_vs_oracle(variant, 10)
        assert r.passed

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_wrong_count_fails(self, variant, monkeypatch):
        count_gf = qf.mex_count_gf

        def off_at_7(v, m, N):
            s = count_gf(v, m, N)
            return _bump(s, 7) if m == 2 else s

        monkeypatch.setattr(qf, "mex_count_gf", off_at_7)
        _assert_fail(vf.check_gf_vs_oracle(variant, 10), 7, {"where": "count", "m": 2})

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_wrong_sigma_fails(self, variant, monkeypatch):
        _bump_sigma(monkeypatch, 5)
        _assert_fail(vf.check_gf_vs_oracle(variant, 10), 5, {"where": "sigma"})

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_sigma_judged_before_counts(self, variant, monkeypatch):
        count_gf = qf.mex_count_gf
        monkeypatch.setattr(qf, "mex_count_gf", lambda v, m, N: _bump(count_gf(v, m, N), 7))
        _bump_sigma(monkeypatch, 7)
        _assert_fail(vf.check_gf_vs_oracle(variant, 10), 7, {"where": "sigma"})

    def test_counts_checked_past_sigma_range(self, monkeypatch):
        count_gf = qf.mex_count_gf
        monkeypatch.setattr(qf, "mex_count_gf", lambda v, m, N: _bump(count_gf(v, m, N), 7))
        r = vf.check_gf_vs_oracle(MexVariant.ALL, n_max=4, count_n_max=8)
        _assert_fail(r, (7, 14, 15), {"where": "count", "m": 1})

    @pytest.fixture
    def enumerated_n(self, monkeypatch):
        """The n of every _classes call, in order, from cold literal
        histograms."""
        cb.literal_mex_histograms.cache_clear()
        calls = []
        classes = cb._classes

        def counted(n):
            calls.append(n)
            return classes(n)

        monkeypatch.setattr(cb, "_classes", counted)
        return calls

    def test_enumerates_each_n_once(self, enumerated_n):
        assert vf.check_gf_vs_oracle(MexVariant.OVERLINED, 6).passed
        assert enumerated_n == list(range(7))

    @pytest.fixture
    def class_count_off_at(self, monkeypatch):
        """Make the walk's table count one overpartition too many with mex 1
        at the given n, for every variant; the cached table stays right."""

        def inject(at):
            mex_histograms = cb.mex_histograms

            def off(N):
                hists = copy.deepcopy(mex_histograms(N))
                for counts in hists[at].values():
                    counts[1] += 1
                return hists

            monkeypatch.setattr(cb, "mex_histograms", off)

        return inject

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_wrong_class_count_fails(self, variant, class_count_off_at):
        class_count_off_at(9)
        _assert_fail(vf.check_gf_vs_oracle(variant, 10), 9, {"where": "literal", "m": 1})

    @pytest.fixture
    def literal_class_dropped_at_9(self, monkeypatch):
        """Make the literal pass skip the first class of n = 9; the literal
        cache is cleared before and after, so only the test using this
        sees the faulted histogram."""
        classes = cb._classes

        def dropped(n):
            walk = classes(n)
            if n == 9:
                next(walk)
            return walk

        monkeypatch.setattr(cb, "_classes", dropped)
        cb.literal_mex_histograms.cache_clear()
        yield
        cb.literal_mex_histograms.cache_clear()

    @pytest.mark.parametrize("variant", list(MexVariant))
    @pytest.mark.usefixtures("literal_class_dropped_at_9")
    def test_dropped_literal_class_fails(self, variant):
        _assert_fail(vf.check_gf_vs_oracle(variant, 10), 9, {"where": "literal", "m": 1})

    @pytest.mark.parametrize("variant", list(MexVariant))
    @pytest.mark.usefixtures("literal_class_dropped_at_9")
    def test_literal_judged_before_sigma(self, variant, monkeypatch):
        _bump_sigma(monkeypatch, 9)
        _assert_fail(vf.check_gf_vs_oracle(variant, 10), 9, {"where": "literal", "m": 1})

    @pytest.mark.parametrize("variant", list(MexVariant))
    def test_wrong_class_count_past_literal_range_fails(self, variant, class_count_off_at):
        class_count_off_at(15)  # past LITERAL_CHECK_N, so sigma is judged first
        _assert_fail(vf.check_gf_vs_oracle(variant, 20), 15, {"where": "sigma"})

    def test_variants_share_one_walk(self):
        cb.mex_histograms.cache_clear()
        for v in MexVariant:
            assert vf.check_gf_vs_oracle(v, 20).passed
        # lru_cache runs the walk once per miss.
        assert cb.mex_histograms.cache_info().misses == 1

    def test_enumerates_only_literal_range(self, enumerated_n):
        # The three variants' checks share one literal histogram per n.
        for v in MexVariant:
            assert vf.check_gf_vs_oracle(v, 20).passed
        assert enumerated_n == list(range(13))  # n <= LITERAL_CHECK_N


class TestEuler:
    def test_passes(self):
        assert vf.check_euler_identity(300).passed

    def test_order_one(self):
        assert vf.check_euler_identity(1).passed

    def test_perturbed_fails_with_witness(self):
        a = qf.pochhammer(50)
        bad = se.add(a, se.from_terms({7: 1}, 50))
        r = vf._compare_series("euler", "n <= 50", [({}, a.coeffs, bad.coeffs)])
        assert not r.passed
        assert r.first_failure[0] == 7

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 301])
    def test_odd_fold_matches_ascending_fold(self, monkeypatch, N):
        seen, compare = {}, vf._compare_series

        def record(name, rng, rows):
            seen.update((metrics["failed_subcheck"], b) for metrics, _, b in rows)
            return compare(name, rng, rows)

        monkeypatch.setattr(vf, "_compare_series", record)
        vf.check_euler_identity(N)
        b = se.one(N)  # 1/(q;q^2)_inf from the smallest factor up
        for k in range(1, N + 1, 2):
            b = se.div_binomial(b, -1, k)
        assert seen["euler:neg_vs_odd_inverse"] == b.coeffs

    def test_skipped_odd_factor_fails(self, monkeypatch, cold_caches):
        # 1/(q;q^2)_inf missing its factor 1/(1 - q^7) first differs at q^7.
        # The step at k = 7 divides 1 + q^2 U_9 by (1 - q^7); returning it
        # without its constant term instead leaves U_7 = q^2 U_9, so the
        # product is 1 + q^9 U_9 times the factors below q^7.
        div_binomial = se.div_binomial

        def skip_7(a, c, e):
            if e == 7:
                return se.add(a, se.from_terms({0: -a[0]}, a.trunc_order))
            return div_binomial(a, c, e)

        monkeypatch.setattr(se, "div_binomial", skip_7)
        _assert_fail(vf.check_euler_identity(300), (7, 5, 4),
                     {"failed_subcheck": "euler:neg_vs_odd_inverse"})

    def test_missing_neg_factor_fails(self, monkeypatch):
        # (-q;q)_inf with its factor (1 + q^7) divided out first differs at q^7.
        pochhammer = qf.pochhammer

        def without_1_plus_q7(N, ring=se):
            return ring.div_binomial(pochhammer(N, ring=ring), +1, 7)

        monkeypatch.setattr(qf, "pochhammer", without_1_plus_q7)
        _assert_fail(vf.check_euler_identity(300), (7, 4, 5),
                     {"failed_subcheck": "euler:neg_vs_odd_inverse"})

    @pytest.mark.parametrize("delta", [+1, -2])
    @pytest.mark.parametrize("n", [1, 2, 30, 299])
    def test_perturbed_full_pentagonal_fails(self, n, delta, monkeypatch):
        # The even-over-full row proves the pentagonal series exact: a
        # fault at q^n moves (q^2;q^2)_inf only at q^(2n), so the quotient
        # first differs at n.
        pentagonal = qf.pentagonal
        _seen_by_verify(monkeypatch, qf, pentagonal=lambda step, N: se.add_terms(
            pentagonal(step, N), {n: delta} if step == 1 else {}))
        _assert_fail(vf.check_euler_identity(300), n,
                     {"failed_subcheck": "euler:neg_vs_even_over_full"})

    def test_perturbed_even_product_fails(self, monkeypatch):
        # Of the series the check itself builds, only (q^2;q^2)_inf comes
        # from from_terms; the builders (and series.one) keep the real one.
        _seen_by_verify(monkeypatch, se,
                        from_terms=lambda terms, N: _bump(se.from_terms(terms, N), 30))
        _assert_fail(vf.check_euler_identity(300), 30,
                     {"failed_subcheck": "euler:neg_vs_even_over_full"})


class TestIdentitySuite:
    def test_perturbed_raw_sum_fails_at_its_index(self, monkeypatch):
        raw = qf.all_mex_raw_sum
        monkeypatch.setattr(qf, "all_mex_raw_sum", lambda N: _bump(raw(N), 40))
        _assert_fail(vf.check_identity_suite(300), 40,
                     {"failed_subcheck": "identity:all_raw_vs_simplified"})

    def test_perturbed_theta_fails_at_its_index(self, monkeypatch, cold_caches):
        theta = qf.theta_neg
        monkeypatch.setattr(qf, "theta_neg", lambda N, ring=se: _bump(theta(N, ring=ring), 37))
        _assert_fail(vf.check_identity_suite(300), 37, {"failed_subcheck": "identity:pbar_theta"})

    def test_perturbed_pentagonal_fails(self, monkeypatch, cold_caches):
        # (q;q)_inf divides in identity:pbar_theta and identity:pentagonal,
        # and the first comes first; only identity:pentagonal reads
        # (q^2;q^2)_inf.
        pentagonal = qf.pentagonal
        for bumped, subcheck in ((1, "identity:pbar_theta"), (2, "identity:pentagonal")):

            def off_at_30(step, N, ring=se):
                s = pentagonal(step, N, ring=ring)
                return _bump(s, 30) if step == bumped else s

            monkeypatch.setattr(qf, "pentagonal", off_at_30)
            _assert_fail(vf.check_identity_suite(300), 30, {"failed_subcheck": subcheck})

    def test_checks_fold_only_neg_q(self, monkeypatch, cold_caches):
        # (q;q)_inf is the pentagonal series in every check: the only
        # factorwise Pochhammer fold they build is (-q;q)_inf.
        signs, binomial_product = [], se.binomial_product

        def spy(sign, N):
            signs.append(sign)
            return binomial_product(sign, N)

        monkeypatch.setattr(se, "binomial_product", spy)
        assert vf.check_euler_identity(300).passed
        assert vf.check_identity_suite(300).passed
        assert set(signs) == {+1}

    def test_skipped_numerator_factor_fails(self, monkeypatch, cold_caches):
        # The 1phi1 defining sum multiplies in each numerator factor
        # (1 - q^n) itself, so losing (1 - q^5) must show.
        mul_binomial = se.mul_binomial
        monkeypatch.setattr(
            se, "mul_binomial", lambda a, c, e: a if e == 5 else mul_binomial(a, c, e))
        _assert_fail(vf.check_identity_suite(300), (20, 26, -6),
                     {"failed_subcheck": "identity:phi11_defining_vs_simplified"})

    def test_perturbed_adh_term_fails(self, monkeypatch):
        adh = qf.sigma_adh
        monkeypatch.setattr(qf, "sigma_adh", lambda N: _bump(adh(N), 123))
        _assert_fail(vf.check_identity_suite(300), (123, qf.sigma_family(300).phi_1[123],
                     adh(300)[123] + 1), {"failed_subcheck": "identity:sigma_adh"})

    def test_smallest_n_before_row_order(self, monkeypatch):
        # The later row breaks at the smaller n, so it is the one reported.
        raw, adh = qf.all_mex_raw_sum, qf.sigma_adh
        _seen_by_verify(monkeypatch, qf, all_mex_raw_sum=lambda N: _bump(raw(N), 40),
                        sigma_adh=lambda N: _bump(adh(N), 20))
        _assert_fail(vf.check_identity_suite(300), (20, qf.sigma_family(300).phi_1[20],
                     adh(300)[20] + 1), {"failed_subcheck": "identity:sigma_adh"})

    def test_first_differing_row_reported(self, monkeypatch):
        # sigma = Phi_1 is read by three rows; a fault in it alone shows in
        # each at the same n, and the first, identity:overlined_telescoped,
        # is the one reported.
        bumped = _bump(qf.sigma_family(300).phi_1, 50)
        _seen_family(monkeypatch, se, phi_1=lambda s: _bump(s, 50))
        assert bumped[50] != qf.overlined_mex_weighted_sum(300)[50]
        assert bumped[50] != qf.sigma_adh(300)[50]
        _assert_fail(vf.check_identity_suite(300),
                     (50, qf.overlined_mex_weighted_sum(300)[50], bumped[50]),
                     {"failed_subcheck": "identity:overlined_telescoped"})

    def test_perturbed_horner_sigma_fails(self, monkeypatch):
        # The same fault in both Horner sums of the overlined chain is
        # invisible to identity:overlined_telescoped, which compares them
        # with each other.  identity:sigma_adh and the built sigma_ov times
        # theta(-q) both see it at 77, and the ADH row comes first.
        weighted = qf.overlined_mex_weighted_sum
        _seen_family(monkeypatch, se, phi_1=lambda s: _bump(s, 77))
        _seen_by_verify(monkeypatch, qf,
                        overlined_mex_weighted_sum=lambda N: _bump(weighted(N), 77))
        _assert_fail(vf.check_identity_suite(300), 77, {"failed_subcheck": "identity:sigma_adh"})

    def test_sigma_all_fault_mod_4_row_first(self, monkeypatch):
        # 2q^1500 in sigma_all alone is even, so the parity checks miss it.
        # Times theta(-q) it moves q^1500 by 2, so identity:all_times_theta
        # sees it; mod 4 it turns the non-square 1500's residue 2 into 0,
        # and arithmetic:all_mod_4, the first of the arithmetic rows, sees it.
        _seen_family(monkeypatch, se, all=lambda s: se.add_terms(s, {1500: 2}))
        _assert_fail(vf.check_identity_suite(2000), 1500,
                     {"failed_subcheck": "identity:all_times_theta"})
        _assert_fail(vf.check_arithmetic(2000), (1500, 0, 2),
                     {"failed_subcheck": "arithmetic:all_mod_4"})

    @pytest.mark.parametrize("variant,c,check,subcheck", [
        (MexVariant.OVERLINED, 2, vf.check_identity_suite, "identity:overlined_times_theta"),
        # The exact row identity:nonoverlined_times_theta sees it too.
        (MexVariant.NON_OVERLINED, 2, vf.check_arithmetic, "arithmetic:nonoverlined_mod_3"),
        # 4q^1500 is 0 mod 4 as well, so only the exact row can see it.
        (MexVariant.ALL, 4, vf.check_identity_suite, "identity:all_times_theta"),
    ], ids=["overlined", "nonoverlined", "all"])
    def test_numerator_fault_fails(self, variant, c, check, subcheck, monkeypatch):
        # c q^1500 added to one quotient's numerator, before the division by
        # theta(-q), is even, so the parity checks miss it; the quotient
        # gains c P-bar(n - 1500), first c at n = 1500.
        theta = qf.theta_neg(2000)
        faulted = se.div(se.add_terms(se.mul(qf.sigma_mex_gf(variant, 2000), theta), {1500: c}),
                         theta)
        _seen_family(monkeypatch, se, **{variant.value: lambda s: faulted})
        _assert_fail(check(2000), 1500, {"failed_subcheck": subcheck})

    @pytest.mark.parametrize("kernel", ["unpack", "pack"], ids=["lane", "psi"])
    def test_nonoverlined_build_fault_fails(self, kernel, monkeypatch, cold_caches):
        # 6q^1500 in sigma_family's build: added to sigma_no's lane as it
        # is unpacked, or to psi before it is packed.  6 is 0 mod 3 and
        # even, so the mod-3 and parity laws miss it; times theta(-q),
        # whose q^0 is 1, it moves q^1500, which is not triangular, by 6.
        unpack, pack = se.unpack, se.pack

        def lane_faulted(s, k, width):
            lanes = unpack(s, k, width)
            return lanes[:-1] + [se.add_terms(lanes[-1], {1500: 6})] if k == 4 else lanes

        def psi_faulted(parts, width):
            return pack([*parts[:-1], se.add_terms(parts[-1], {1500: 6})], width)

        monkeypatch.setattr(se, kernel, lane_faulted if kernel == "unpack" else psi_faulted)
        _assert_fail(vf.check_identity_suite(2000), (1500, 6, 0),
                     {"failed_subcheck": "identity:nonoverlined_times_theta"})


class TestParity:
    def test_all_even(self):
        assert vf.check_parity_all_even(500).passed

    def test_gf2_matches_full_series(self):
        N = 120
        bits = qf.sigma_family(N, ring=se.GF2).overlined
        full = qf.sigma_family(N).overlined
        for n in range(N + 1):
            assert bits[n] == full[n] % 2

    def test_gf2_pbar_is_one(self):
        # Every overpartition number at n >= 1 is even.
        assert qf.sigma_family(2000, ring=se.GF2).pbar.bits == 1

    def test_density_passes(self):
        r = vf.check_parity_density(1000)
        assert r.passed
        assert r.metrics["density"] >= 0.85

    def test_density_from_its_least_n_max(self):
        # Below n_max = 107 the generalized pentagonal numbers alone, the
        # proven odd positions, bring the density under DENSITY_FLOOR.
        assert vf.check_parity_density(107).passed
        with pytest.raises(ValueError, match="n_max must be >= 107"):
            vf.check_parity_density(106)

    def test_density_negative_control(self):
        # A constant-odd parity sequence has even-density zero.
        n_max = 1000
        all_odd = (1 << (n_max + 1)) - 1
        r = vf._density_report("control", all_odd, n_max)
        assert not r.passed
        assert r.metrics["density"] == 0.0

    @pytest.mark.parametrize("n_max", [107, 400, 2000])
    def test_density_measures_the_read(self, n_max):
        # A PASS matched the read to the pentagonal bits, so measuring
        # those gives the metrics that measuring the read itself gives.
        read = qf.sigma_family(n_max, ring=se.GF2).overlined.bits
        r = vf.check_parity_density(n_max)
        assert r.passed
        assert r.metrics == vf._density_report("parity_density", read, n_max).metrics

    def test_density_reads_every_bit_past_mod2_window(self, monkeypatch, cold_caches):
        # A GF(2) div that loses every bit past the mod-2 window leaves the
        # density above its floor (0.995 at 10^4); the pentagonal closed
        # form sees the first odd n lost, 1001 = 26 * 77 / 2.
        div = se.GF2.div
        window = (1 << (vf.MOD2_CHECK_ORDER + 1)) - 1

        def div_losing_high_bits(a, d):
            quotient = div(a, d)
            return se.GF2Series(quotient.bits & window, quotient.trunc_order)

        monkeypatch.setattr(se.GF2, "div", div_losing_high_bits)
        _assert_fail(vf.check_parity_density(10000), (1001, 1, 0), {"where": "sigma_mex_overlined"})

    @pytest.mark.parametrize("flip,witness", [
        (1500, (1500, 0, 1)),  # not a generalized pentagonal number, read odd
        (1520, (1520, 1, 0)),  # 32 * 95 / 2, read even
        (2000, (2000, 0, 1)),
    ], ids=["non_pentagonal_odd", "pentagonal_even", "at_n_max"])
    def test_density_witness_past_mod2_window(self, flip, witness, monkeypatch):
        _flip_gf2_bits(monkeypatch, {"overlined": [flip]})
        _assert_fail(vf.check_parity_density(2000), witness, {"where": "sigma_mex_overlined"})

    def test_triangular(self):
        assert vf.check_triangular_parity(500).passed

    def test_triangular_small_values(self):
        bits = qf.sigma_family(10, ring=se.GF2).nonoverlined
        assert bits[1] == 1  # n=1 = 1*2/2 triangular, odd
        assert bits[2] == 0  # n=2 not triangular, even

    @pytest.mark.parametrize("kernel,failing,where", [
        # theta(-q) = 1 mod 2, so a wrong div shows only where it divides
        # by the pentagonal series: (-q;q)_inf^3.
        ("div", "triangular_parity", "mod2:sigma_mex_nonoverlined"),
        ("div_binomial", "parity_density", "mod2:sigma_mex_overlined"),
        ("mul", "triangular_parity", "mod2:sigma_mex_nonoverlined"),
    ], ids=["div", "div_binomial", "mul"])
    def test_wrong_gf2_kernel_fails(self, kernel, failing, where, monkeypatch, cold_caches):
        # A GF(2) kernel that drops its second operand turns the parity
        # check whose series uses it into FAIL at the mod-2 check.
        monkeypatch.setattr(se.GF2, kernel, lambda a, *rest: a)
        reports = [
            vf.check_parity_all_even(300),
            vf.check_parity_density(300),
            vf.check_triangular_parity(300),
        ]
        for r in reports:
            if r.check_name == failing:
                assert r.status == vf.FAIL, r.to_dict()
                assert r.metrics["where"] == where, r.to_dict()
            else:
                assert r.passed, r.to_dict()

    def test_each_gf2_series_requested_once(self, monkeypatch):
        # A parity check builds the family once per ring and reads every
        # series it compares from those builds, the GF(2) one at n_max,
        # rather than asking qfactory for each series again.
        requests, built = Counter(), qf.sigma_family

        def spy(N, ring=se):
            requests[ring, N] += 1
            return built(N, ring=ring)

        _seen_by_verify(monkeypatch, qf, sigma_family=spy)
        for check in (vf.check_parity_all_even, vf.check_parity_density,
                      vf.check_triangular_parity):
            requests.clear()
            assert check(300).passed
            assert requests == Counter([(se.GF2, 300), (se, 300)]), check.__name__

    # Past MOD2_CHECK_ORDER only the sweep reads a GF(2) coefficient, so
    # each fault below is visible to nothing but the sweep.
    @pytest.mark.parametrize("flips,witness,where", [
        ({"all": [1500]}, (1500, 0, 1), "sigma_mex_all"),
        # Same n in both reads: the witness names the first read.
        ({"pbar": [1500], "all": [1500]}, (1500, 0, 1), "overpartition_number"),
        ({"pbar": [1700], "all": [1500]}, (1500, 0, 1), "sigma_mex_all"),
        ({"all": [2000]}, (2000, 0, 1), "sigma_mex_all"),
    ], ids=["all_parts", "tie_first_read", "smaller_n_wins", "at_n_max"])
    def test_all_even_witness_past_mod2_window(self, flips, witness, where, monkeypatch):
        _flip_gf2_bits(monkeypatch, flips)
        _assert_fail(vf.check_parity_all_even(2000), witness, {"where": where})

    @pytest.mark.parametrize("flip,witness", [
        (1540, (1540, 1, 0)),  # the triangular 55*56/2, read even
        (1541, (1541, 0, 1)),  # a non-triangular n, read odd
        (2000, (2000, 0, 1)),
    ], ids=["triangular_even", "non_triangular_odd", "at_n_max"])
    def test_triangular_witness_past_mod2_window(self, flip, witness, monkeypatch):
        _flip_gf2_bits(monkeypatch, {"nonoverlined": [flip]})
        _assert_fail(vf.check_triangular_parity(2000), witness, {"where": "sigma_mex_nonoverlined"})

    @pytest.mark.parametrize("check,where", [
        (vf.check_parity_all_even, "overpartition_number"),
        (vf.check_parity_density, "sigma_mex_overlined"),
        (vf.check_triangular_parity, "sigma_mex_nonoverlined"),
    ], ids=["all_even", "density", "triangular"])
    def test_even_constant_term_fails(self, check, where, monkeypatch):
        # q^0 = 1 in every read.  With q^0 even in both rings the mod-2
        # guard agrees, and only the closed-form comparison at q^0 sees it.
        reads = ("pbar", *(v.value for v in MexVariant))
        for ring in (se, se.GF2):
            _seen_family(monkeypatch, ring, **dict.fromkeys(
                reads, lambda s, ring=ring: ring.add_terms(s, {0: 1})))
        _assert_fail(check(2000), (0, 1, 0), {"where": where})

    # Inside the window the mod-2 guard reads every bit: of two bad bits
    # the lower is the witness, and MOD2_CHECK_ORDER itself is inside.
    @pytest.mark.parametrize("check,flips,witness,where", [
        (vf.check_parity_all_even, {"pbar": [801, 300]}, (300, 0, 1), "mod2:overpartition_number"),
        (vf.check_parity_all_even, {"all": [999, 998]}, (998, 0, 1), "mod2:sigma_mex_all"),
        # 300 = 24 * 25 / 2 is triangular, so the Z series is odd there.
        (vf.check_triangular_parity, {"nonoverlined": [500, 300]},
         (300, 1, 0), "mod2:sigma_mex_nonoverlined"),
        (vf.check_parity_all_even, {"pbar": [vf.MOD2_CHECK_ORDER]},
         (vf.MOD2_CHECK_ORDER, 0, 1), "mod2:overpartition_number"),
        (vf.check_parity_density, {"overlined": [vf.MOD2_CHECK_ORDER]},
         (vf.MOD2_CHECK_ORDER, 0, 1), "mod2:sigma_mex_overlined"),
        # The later read breaks first, so it is the one reported.
        (vf.check_parity_all_even, {"pbar": [800], "all": [300]},
         (300, 0, 1), "mod2:sigma_mex_all"),
    ], ids=["two_in_pbar", "adjacent_in_all_parts", "triangular", "at_check_order",
            "density_at_check_order", "later_read_first"])
    def test_mod2_guard_witness(self, check, flips, witness, where, monkeypatch):
        _flip_gf2_bits(monkeypatch, flips)
        _assert_fail(check(2000), witness, {"where": where})

    def test_wrong_integer_pbar_fails(self, monkeypatch):
        # Z P-bar off by one at n = 700, past the old mod-2 check order:
        # the GF(2) side is 1 by construction, so only Z can show it.
        _seen_family(monkeypatch, se, pbar=lambda s: _bump(s, 700) if s.trunc_order >= 700 else s)
        _assert_fail(vf.check_parity_all_even(1000), (700, 1, 0),
                     {"where": "mod2:overpartition_number"})

    @pytest.mark.parametrize("check,n_max", [
        (vf.check_parity_all_even, 0),
        (vf.check_triangular_parity, 0),
        (vf.check_parity_density, 106),
    ], ids=["all_even", "triangular", "density"])
    def test_n_max_below_the_smallest_refused(self, check, n_max):
        with pytest.raises(ValueError, match="n_max must be >= "):
            check(n_max)

    def test_reports_deterministic(self):
        a = vf.check_parity_density(400)
        b = vf.check_parity_density(400)
        assert a.to_dict() == b.to_dict()


class TestGf2Arithmetic:
    def test_mul_matches_integer_mul(self):
        a = qf.pochhammer(40)
        b = qf.overpartition_gf(40)
        assert se.GF2.mul(to_gf2(a), to_gf2(b)).bits == to_gf2(se.mul(a, b)).bits

    def test_div_binomial_roundtrip(self):
        x = se.GF2Series(0b1011011101, 30)
        for k in (1, 2, 5):
            y = se.GF2.div_binomial(x, 1, k)
            assert _mul_binomial(se.GF2, y, 1, k).bits == x.bits

    def test_binomial_identity_mod_two(self):
        # (q^2;q^2)_inf and (q;q)_inf^2 agree coefficientwise mod 2.
        N = 500
        even = qf.pentagonal(2, N, ring=se.GF2)
        full = to_gf2(se.binomial_product(-1, N))  # built over Z only; read mod 2
        assert even.bits == se.GF2.mul(full, full).bits


class TestEvaluate:
    def test_geometric_sum(self):
        geo = se.Series((1,) * 61)
        assert vf._evaluate(geo, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_zero_series(self):
        assert vf._evaluate(se.from_terms({}, 10), 0.3) == 0.0

    def test_correctly_rounded(self):
        # Against the exact rational sum: constant term >= 1, the other
        # coefficients signed, some series past the float range.
        rng = random.Random(7)
        for _ in range(60):
            bits = round(3000 ** rng.random())  # log-uniform in [1, 3000]
            N = rng.randint(0, 300)
            coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(N)]
            gf = se.Series((rng.randint(1, 2**bits), *coeffs))
            q0 = rng.uniform(0.05, 0.95)
            exact = Fraction(0)
            for c in reversed(gf.coeffs):
                exact = exact * Fraction(q0) + c
            try:
                expected = float(exact)
            except OverflowError:
                expected = math.inf if exact > 0 else -math.inf
            value = vf._evaluate(gf, q0)
            if math.isinf(expected):
                assert value == expected
            else:
                assert abs(value - expected) <= math.ulp(expected)

    def test_coefficients_past_float_range(self):
        # 1 + 2^3000 q^3000 at q = 1/2 is exactly 2.
        a = se.from_terms({0: 1, 3000: 2**3000}, 3000)
        assert vf._evaluate(a, 0.5) == 2.0
        # 10^400 q^1000 at q = 1/4 is about 1e-202: right to 2^-100 absolute.
        b = se.from_terms({1000: 10**400}, 1000)
        assert abs(vf._evaluate(b, 0.25) - float(Fraction(10**400, 4**1000))) <= 2**-100
        # A tail far below the last place leaves the head's sum.
        c = se.Series((1, 1) + (0,) * 1998 + (10**400,) * 1001)
        assert vf._evaluate(c, 0.25) == 1.25

    def test_sum_past_float_range_is_inf(self):
        assert vf._evaluate(se.Series((10**400,) * 5), 0.5) == math.inf
        assert vf._evaluate(se.Series((-(10**400), 0, 0, 0, 0)), 0.5) == -math.inf

    def test_truncation_stability(self):
        # Doubling N moves the value by less than the discarded tail bound.
        coeffs = [n + 1 for n in range(201)]
        short = se.Series(tuple(coeffs[:101]))
        long = se.Series(tuple(coeffs))
        q0 = 0.9
        tail = sum(c * q0**n for n, c in enumerate(coeffs[101:], start=101))
        diff = abs(vf._evaluate(long, q0) - vf._evaluate(short, q0))
        assert diff <= tail * (1 + 1e-9)


class TestAsymptotics:
    def test_table_shape(self, monkeypatch):
        monkeypatch.setattr(vf, "DEFAULT_ASYM_POINTS", (100, 400))
        gf = qf.sigma_mex_gf(MexVariant.OVERLINED, 400)
        report = vf.asym_ratio_table(gf)
        assert report.range_checked == "points [100, 400]"
        assert report.metrics.keys() == {"dev_at_100", "dev_at_400"}
        assert all(0 < d < 1 for d in report.metrics.values())

    def test_prediction_formula(self, monkeypatch):
        # gf[100] is e^(10 pi) / 400, about 1.1e11, rounded to an integer
        # and computed without the power-of-two split the check uses.
        monkeypatch.setattr(vf, "DEFAULT_ASYM_POINTS", (100,))
        gf = se.from_terms({100: round(math.exp(math.pi * 10) / 400)}, 100)
        report = vf.asym_ratio_table(gf)
        assert report.metrics["dev_at_100"] == pytest.approx(0, abs=1e-10)

    def test_past_float_range(self, monkeypatch):
        # Exact values equal to the prediction, which passes 2^1000 near
        # n = 50400 and leaves the float range near n = 52800.
        def growth(n):
            bits = math.pi * math.sqrt(n) / math.log(2) - math.log2(4 * n)
            mantissa, shift = int(2 ** (bits % 1) * 2**52), int(bits) - 52
            return mantissa << shift if shift >= 0 else mantissa >> -shift

        pts = (100, 52000, 60000)
        monkeypatch.setattr(vf, "DEFAULT_ASYM_POINTS", pts)
        gf = se.from_terms({n: growth(n) for n in pts}, 60000)
        report = vf.asym_ratio_table(gf)
        assert report.passed
        for n in pts:
            assert report.metrics[f"dev_at_{n}"] == pytest.approx(0, abs=1e-8)

    def test_short_gf_rejected(self):
        with pytest.raises(ValueError, match="gf has order 50, below"):
            vf.asym_ratio_table(se.one(50))

    def test_huge_coefficients_report(self):
        gf = se.Series((10**400,) * 2501)
        report = vf.asym_ratio_table(gf)
        assert report.status == vf.FAIL
        assert report.metrics["dev_at_2500"] == math.inf
        json.loads(json.dumps(report.to_dict()))


class TestSigmaTaylor:
    def test_passes(self):
        assert vf.check_sigma_taylor().passed

    def test_limit_toward_two(self):
        # Leading expansion term is 2; at t=0.02 the truncation tail at
        # N=400 is already below e^-8 per unit coefficient.
        sigma = qf.sigma_family(400).phi_1
        assert vf._evaluate(sigma, math.exp(-0.02)) == pytest.approx(2.0, abs=0.05)


class TestInghamScaling:
    def test_passes(self):
        gf = qf.sigma_mex_gf(MexVariant.OVERLINED, 900)
        assert vf.check_ingham_scaling(gf).passed

    def test_constant_series_control(self):
        flat = se.one(900)
        r = vf.check_ingham_scaling(flat)
        assert not r.passed

    def test_huge_coefficients_report(self):
        # 10^400 q^n summed at q = e^-t is past the float range: a FAIL
        # report, not an OverflowError.
        r = vf.check_ingham_scaling(se.Series((10**400,) * 901))
        assert r.status == vf.FAIL
        assert r.metrics["scaled_at_t=0.3"] == math.inf
        json.loads(json.dumps(r.to_dict()))

    def test_dip_after_2000_fails(self):
        # Increasing everywhere except one step down from n = 2099 to 2100.
        coeffs = list(range(1, 2502))
        coeffs[2100] = coeffs[2099] - 1
        r = vf.check_ingham_scaling(se.Series(tuple(coeffs)))
        assert not r.passed
        assert r.metrics["where"] == "weakly_increasing"
        assert r.first_failure == (2099, 2100, 2099)
