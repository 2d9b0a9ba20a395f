import ast
import importlib
from pathlib import Path

import pytest

from kbonacci import bounds, series
from kbonacci.sequence import _takes_binomial
from kbonacci.series import SeriesPoint

# Not a request limit: the Millin search's cap is the known false FAIL of
# ROADMAP item 1, which caps a search instead of refusing a request.
NOT_REQUEST_LIMITS = {("classic_sums", "_MAX_MILLIN_TERMS")}


class TestCostBound:
    M = bounds._MAX_INDEX

    def test_the_reference_request_is_the_bound(self):
        assert bounds._term_cost(2, self.M) == bounds._MAX_COST
        assert bounds._kernel_cost(2, self.M) == bounds._MAX_COST
        bounds.check_term(2, self.M)

    @pytest.mark.parametrize(
        "check,k,n",
        [
            ("term", 3, 17_488_315),  # on the kernel
            ("term", 20, 2_306_165),
            ("term", 100, 791_719),  # on the binomial sum
            ("term", 100_000, 7_123_592),
            ("jump", 128, 360_284),  # on the kernel, as seq's jump
            ("jump", 256, 180_110),
            ("jump", 1000, 46_060),
            ("jump", 10_000, 4548),
            ("jump", 100_000, 397),
        ],
    )
    def test_just_inside_and_outside(self, check, k, n):
        if check == "jump":  # the top N = n + k - 1 a series' --epsilon search tries
            assert series._largest_index(SeriesPoint(k=k, eta=3)) == n + k - 1
        check = getattr(bounds, f"check_{check}")
        check(k, n)
        with pytest.raises(ValueError, match="has a modelled cost of 1.01 times the most"):
            check(k, n + 1)

    @pytest.mark.parametrize("k,n,ratio", [(80, 648_080, "1.13"), (85, 731_085, "1.35")])
    def test_term_is_priced_on_the_path_it_takes(self, k, n, ratio):
        # past its last index on the binomial sum term_fast takes the kernel,
        # which costs more than the bound there, though the sum would not
        assert _takes_binomial(k, n) and not _takes_binomial(k, n + 1)
        bounds.check_term(k, n)
        with pytest.raises(ValueError, match=f"{ratio} times the most a term may cost"):
            bounds.check_term(k, n + 1)

    @pytest.mark.parametrize("method", ["Polymod", "fast", ""])
    def test_an_unknown_method_is_refused(self, method):
        # not let through with no cost check at all
        with pytest.raises(ValueError, match="163.67 times the most a term may cost"):
            bounds.check_term(1000, self.M)
        with pytest.raises(ValueError, match=f"unknown method {method!r}"):
            bounds.check_term(1000, self.M, method)

    def test_k28_at_the_index_bound_is_refused(self):
        with pytest.raises(ValueError, match="20.17 times the most a term may cost"):
            bounds.check_term(28, self.M)

    @pytest.mark.parametrize("k", [2, 3, 16, 20, 28, 48, 64, 100, 1000, 100_000])
    def test_cost_grows_with_the_index(self, k):
        # so every order has one largest accepted index
        for cost in (bounds._term_cost, bounds._kernel_cost):
            values = [cost(k, n) for n in range(0, self.M, self.M // 997)]
            assert values == sorted(values)


def test_the_root_is_computed_once_per_order():
    # the --epsilon search's bisection prices about 20 jumps at one order
    bounds._log2_phi.cache_clear()
    series._largest_index(SeriesPoint(k=1000, eta=3))
    info = bounds._log2_phi.cache_info()
    assert (info.misses, info.hits) == (1, 19)


def _is_limit(name: str) -> bool:
    return "_MAX_" in name or "_MIN_" in name


def test_every_request_limit_is_stated_in_bounds():
    # every other module's top-level limit name is imported from bounds
    imported = set()
    for path in sorted(Path(bounds.__file__).parent.glob("*.py")):
        name = path.stem
        if name == "bounds":
            continue
        module = importlib.import_module(f"kbonacci.{name}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if _is_limit(alias.name):
                        assert (node.module, node.level) == ("bounds", 1), (name, alias.name)
                        value = getattr(module, alias.asname or alias.name)
                        assert value == getattr(bounds, alias.name)
                        imported.add((name, alias.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for bound in ast.walk(target):
                        if isinstance(bound, ast.Name) and _is_limit(bound.id):
                            assert (name, bound.id) in NOT_REQUEST_LIMITS, (name, bound.id)
    for name, limit in NOT_REQUEST_LIMITS:
        assert hasattr(importlib.import_module(f"kbonacci.{name}"), limit)
    assert {
        ("series", "_MAX_PARTIAL_DIGITS"),
        ("classic_sums", "_MAX_CLASSIC_DIGITS"),
        ("bench", "_MAX_REPETITIONS"),
    } <= imported


def test_seq_checks_the_order_before_the_range():
    # seq refuses an absurd order before it looks at the range
    with pytest.raises(ValueError, match="order must be <= 100000, got 100001"):
        bounds.check_seq(100_001, 5, 3)
    with pytest.raises(ValueError, match="invalid range: n0=5 > n1=3"):
        bounds.check_seq(2, 5, 3)
