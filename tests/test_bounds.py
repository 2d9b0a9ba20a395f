import pytest

from kbonacci import bounds


class TestCostBound:
    M = bounds._MAX_INDEX

    def test_the_reference_request_is_the_bound(self):
        assert bounds._term_cost(2, self.M) == bounds._MAX_COST
        assert bounds._kernel_cost(2, self.M) == bounds._MAX_COST
        bounds.check_term(2, self.M)
        bounds.check_jump(2, self.M)

    @pytest.mark.parametrize(
        "check,k,n",
        [
            ("term", 3, 17_488_315),  # on the kernel
            ("term", 20, 2_306_165),
            ("term", 100, 791_719),  # on the binomial sum
            ("term", 100_000, 7_123_592),
            ("jump", 3, 17_488_315),
            ("jump", 1000, 46_060),
            ("jump", 100_000, 397),
        ],
    )
    def test_just_inside_and_outside(self, check, k, n):
        check = getattr(bounds, f"check_{check}")
        check(k, n)
        with pytest.raises(ValueError, match="has a modelled cost of 1.01 times the most"):
            check(k, n + 1)

    def test_k28_at_the_index_bound_is_refused(self):
        with pytest.raises(ValueError, match="20.17 times the most a term may cost"):
            bounds.check_term(28, self.M)

    @pytest.mark.parametrize("k", [2, 3, 16, 20, 28, 48, 64, 100, 1000, 100_000])
    def test_cost_grows_with_the_index(self, k):
        # so every order has one largest accepted index
        for cost in (bounds._term_cost, bounds._kernel_cost):
            values = [cost(k, n) for n in range(0, self.M, self.M // 997)]
            assert values == sorted(values)
