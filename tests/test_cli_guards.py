"""Property tests of the CLI contract at and around every row of README's
guard table: each call exits 0, 1 or 2, an exit 1 prints `error: ...` and no
traceback, and no call outlasts a time budget (so a guard that fires only
after the work, as the scan range once did, fails here).

Each subcommand has one test.  Its explicit examples sit on the limits
themselves (the largest inputs that pass, the smallest that are refused);
the drawn cases combine values at and around every limit."""

import contextlib
import io
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from edschar import cli, harness
from edschar.field import primes_in

BUDGET_S = 10.0

# the primes on both sides of each limit of the modulus (tables at 2**22,
# group structure at 10**6, orders at 10**9, the modulus at 2**62), then
# moduli that are refused: too small, composite, or too large
P_VALUES = (
    5, 7, 4_194_301, 4_194_319, 999_983, 1_000_003, 999_999_937, 1_000_000_007, 2**62 - 57,
    0, 9, 4_194_304, 1_000_000, 2**62, 2**62 + 135,
)
BIG = (2**512 - 1, 2**512, 10**400)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


def _drive(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - t0 < BUDGET_S, argv
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert "error: " in err.getvalue() and "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


def _curve(p: int, a: int = 1, x: int = 3, y: int = 5) -> list[str]:
    """--p and a curve through (x, y): b = y^2 - x^3 - a x, so the point lies
    on it whenever p is prime."""
    b = (y * y - x**3 - a * x) % p if p else 1
    return ["--p", str(p), "--a", str(a), "--b", str(b), "--px", str(x), "--py", str(y)]


CURVES = st.builds(
    _curve, st.sampled_from(P_VALUES), st.integers(1, 3), st.integers(0, 40), st.integers(1, 40)
)


def _near(*values: int) -> st.SearchStrategy[int]:
    return st.sampled_from(values).flatmap(lambda v: st.integers(v - 2, v + 2))


def _options(**values) -> list[str]:
    argv = []
    for name, value in values.items():
        if value is not None:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


@PROPERTY
@given(CURVES, _near(7, 2**512, -(2**512)))
@example(_curve(2**62 - 57), 2**512 - 1)
@example(_curve(2**62 - 57), -(2**512))
def test_eval_guards(curve, n):
    _drive(["eval", *curve, "--n", str(n)])


@PROPERTY
@given(
    CURVES,
    st.none() | st.sampled_from((0, 7, 5000, -1, *BIG)),
    st.none() | st.sampled_from(("3", "-12345", "all")),
    st.none() | st.sampled_from((2, 3, 4, 5, 6, 0, 1, 2**22 + 1)),
)
@example(_curve(4_194_301), None, "3", None)  # the longest window by the chi table
@example(_curve(4_194_319), None, None, 2)  # and by square-and-multiply
@example(_curve(1_000_003), 2**512 - 1, None, 3)
@example(_curve(1_000_003), 2**512, None, None)
@example(_curve(999_999_937), 7, "3", None)  # the order at the order guard
def test_sums_guards(curve, cap_n, twist_a, char_order):
    _drive(["sums", *curve, *_options(cap_n=cap_n, twist_a=twist_a, char_order=char_order)])


@PROPERTY
@given(
    CURVES,
    st.sampled_from(("all", "weil", "period", "shift", "recurrence", "index-product", "bogus")),
    # trials = TRIALS_MAX itself is about 20 s of work, past the budget
    st.none() | st.sampled_from((1, 2, 0, -1, harness.TRIALS_MAX + 1, 10**11)),
    st.lists(st.sampled_from((3, 5, 101, 4, 103, 0, -3)), max_size=2),
)
@example(_curve(999_983), "weil", None, [3])  # the largest group grid
@example(_curve(999_983), "weil", None, [101])  # past the symbolic multiply guard
@example(_curve(1_000_003), "all", 1, [])  # weil skipped, the others run
@example(_curve(1009), "weil", 1, [101])
def test_verify_guards(curve, identity, trials, ells):
    argv = ["verify", *curve, *_options(identity=identity, trials=trials)]
    for ell in ells:
        argv += ["--ell", str(ell)]
    _drive(argv)


class _SerialPool:
    """Stands in for ProcessPoolExecutor, so that no draw starts a process:
    it checks the worker count asked for and maps in this process."""

    def __init__(self, max_workers: int):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        assert 2 <= self.max_workers <= len(items)  # never more workers than primes
        return map(fn, items)


@pytest.fixture(scope="module", autouse=True)
def _no_process_pool():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "ProcessPoolExecutor", _SerialPool)
        yield


# few primes in any range that passes the guards: a handful near 5, and at
# most one (999 983) near the structure guard
SCAN_RANGES = (
    st.tuples(st.integers(5, 8), st.integers(5, 13))
    | st.tuples(_near(999_985, 1_000_001), _near(999_983, 1_000_001, 1_000_003))
    | st.tuples(st.sampled_from((5, 4, -5)), st.sampled_from((1_000_001, 2 * 10**6, 2**62)))
)


@PROPERTY
@given(SCAN_RANGES, st.sampled_from((1, 2, 64, 0, 65, -1)), st.sampled_from((0, -1, 2**64 + 1)))
@example((999_983, 1_000_000), 64, 0)
@example((5, 13), 64, 0)
@example((5, 10**6 + 1), 1, 0)
def test_scan_guards(bounds, threads, seed):
    argv = ["scan", *_options(p_min=bounds[0], p_max=bounds[1], threads=threads, seed=seed)]
    code, out = _drive(argv)
    if code == 0:
        assert len(out.splitlines()) == len(primes_in(*bounds))


@PROPERTY
@given(
    st.sampled_from((["--seed"], ["--bogus"], ["--seed", "1", "2"]))
    | st.text(max_size=8).filter(lambda s: not _is_int(s)).map(lambda s: ["--seed", s])
)
def test_bench_guards(extra):
    # every valid bench call runs the whole suite (seconds), so only invalid
    # argument lists are drawn; each must exit 1 at once
    assert _drive(["bench", *extra])[0] == 1


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True
