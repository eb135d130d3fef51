"""Compiled families and profiles built in bounded blocks.

_canonical fills preallocated slot arrays and merges coinciding slots in
place; _row_fsum, the profile's off-target rows and the reference pass
walk blocks of about measures.BLOCK values.  pairwise_canonical and
oneshot_row_fsum below are the pairwise merge and the whole-array fsum
that came before, frozen here as references: every array must match them
bit for bit, and every exception must be the same.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from daugavetlab import measures, operators
from daugavetlab.circle import (
    GridCircle,
    ScalarField,
    SymbolMap,
    modulus,
    shared_compilation,
    symbol_codes,
    tabulate,
)
from daugavetlab.errors import InvariantViolation
from daugavetlab.measures import AtomicMeasure
from daugavetlab.operators import (
    CompiledFamily,
    FiniteRankOperator,
    WeightedComposition,
    as_expr,
    compiled_family,
    convex_combination,
    perturbation_profile,
    point_masses,
    rank_one,
)

BLOCK = measures.BLOCK


def oneshot_row_fsum(values):
    m, k = values.shape
    if m <= 2:
        out = values.sum(axis=0) if m else np.zeros(k)
        if np.isfinite(out).all():
            return out
    return np.array([math.fsum(col) for col in values.T.tolist()], dtype=float)


def pairwise_canonical(codes, weights, present, n):
    """The merge that copied every slot and merged them pair by pair."""
    weights = [np.array(np.broadcast_to(w, (n,)), dtype=complex) for w in weights]
    present = [np.array(np.broadcast_to(p, (n,)), dtype=bool) for p in present]
    for i in range(len(codes)):
        for j in range(i):
            same = present[j] & present[i] & (codes[j] == codes[i])
            if same.any():
                weights[j] = np.where(same, weights[j] + weights[i], weights[j])
                present[i] &= ~same
    keep = []
    for c, w, p in zip(codes, weights, present):
        p &= w != 0
        if p.any():
            keep.append((np.broadcast_to(c, (n,)), np.where(p, w, 0j), p))
    if not keep:
        empty = np.empty((0, n))
        return CompiledFamily(empty.astype(np.int64), empty.astype(complex),
                              empty.astype(bool), np.zeros(n))
    c, w, p = (np.array(a) for a in zip(*keep))
    return CompiledFamily(c, w, p, oneshot_row_fsum(np.where(p, modulus(w), 0.0)))


def outcome(fn, *args):
    """fn's family as comparable bytes (weights and tv as int64 views), or
    the exception it raised."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            fam = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (
        fam.codes, fam.weights.view(np.int64), fam.present, fam.tv.view(np.int64)))


FINITE = np.array([1, -1, 0.5, -0.5, 1j, -1j, 0.25 + 0.5j, -0.25 - 0.5j, 0, -0.0,
                   3e-320, 1e300 + 1e300j])
NON_FINITE = np.array([np.inf, -np.inf, np.nan, complex(np.inf, -np.inf), 1e308, -1e308])


def random_slots(rng, m, n, non_finite=False):
    """m slots whose codes collide often, whose weights cancel to 0 where
    +w and -w meet, some absent everywhere, each field a scalar or an
    array."""
    pool = np.concatenate([FINITE, NON_FINITE]) if non_finite else FINITE
    p = np.where(np.arange(pool.size) < FINITE.size, 1.0, 0.5)
    p /= p.sum()
    codes, weights, present = [], [], []
    for _ in range(m):
        codes.append(int(rng.integers(0, 4)) if rng.random() < 0.3
                     else rng.integers(0, 4, n).astype(np.int64))
        weights.append(complex(rng.choice(pool, p=p)) if rng.random() < 0.2
                       else rng.choice(pool, n, p=p).astype(complex))
        r = rng.random()
        present.append(True if r < 0.2 else np.zeros(n, dtype=bool) if r < 0.3
                       else rng.random(n) < 0.7)
    return codes, weights, present


def copies(slots):
    return [[np.copy(x) if isinstance(x, np.ndarray) else x for x in part] for part in slots]


class TestMergeDifferential:
    """_canonical against the pairwise merge, on seeded random families."""

    # 6000 and 2 * BLOCK + 3 points end on a partial block for every slot count
    @pytest.mark.parametrize("n", [1, 7, 64, 6000, 2 * BLOCK + 3])
    def test_finite_families(self, n):
        for seed in range(40 if n < 6000 else 8):
            rng = np.random.default_rng((n, seed))
            slots = random_slots(rng, int(rng.integers(0, 11)), n)
            want = outcome(pairwise_canonical, *copies(slots), n)
            codes, weights, present = copies(slots)
            got = outcome(operators._canonical, codes, iter(weights), present, n)
            assert got == want, seed

    @pytest.mark.parametrize("n", [7, 6000])
    def test_non_finite_families_give_the_same_result_or_exception(self, n):
        raised, seeds = 0, range(60 if n < 6000 else 12)
        for seed in seeds:
            rng = np.random.default_rng((n, seed, 1))
            slots = random_slots(rng, int(rng.integers(1, 11)), n, non_finite=True)
            want = outcome(pairwise_canonical, *copies(slots), n)
            assert outcome(operators._canonical, *copies(slots), n) == want, seed
            raised += isinstance(want[0], type)
        assert 0 < raised < len(seeds)  # fsum's OverflowError, and results

    def test_inputs_are_left_as_they_were(self):
        rng = np.random.default_rng(5)
        slots = random_slots(rng, 8, 64)
        before = copies(slots)
        operators._canonical(*slots, 64)
        for part, old in zip(slots, before):
            for x, y in zip(part, old):
                assert np.array_equal(x, y, equal_nan=True)

    def test_every_slot_merged_or_cancelled_leaves_the_empty_family(self):
        n = 9
        fam = operators._canonical([3, 3], [1 + 0j, -1 + 0j], [True, True], n)
        assert fam.codes.shape == fam.weights.shape == fam.present.shape == (0, n)
        assert (fam.codes.dtype, fam.weights.dtype, fam.present.dtype) == (
            np.int64, complex, bool)
        assert fam.tv.tobytes() == np.zeros(n).tobytes()


class TestRowFsum:
    def test_overflow_in_a_later_block_still_raises(self):
        m, k = 3, 3 * BLOCK
        assert len(operators._blocks(k, m)) > 2
        values = np.ones((m, k))
        values[:2, -1] = 1e308
        with pytest.raises(OverflowError):
            operators._row_fsum(values)
        values[0, 0] = np.inf  # an infinite column first changes nothing
        with pytest.raises(OverflowError):
            operators._row_fsum(values)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_two_rows_or_fewer_sum_as_before(self, m):
        rng = np.random.default_rng(m)
        k = 2 * BLOCK + 3
        values = rng.choice([0.0, 1.0, 0.1, 1e-320, 1e300, np.inf, np.nan], (m, k))
        with np.errstate(all="ignore"):
            assert operators._row_fsum(values).tobytes() == oneshot_row_fsum(values).tobytes()
        if m == 2:
            values[:, BLOCK + 1] = 1e308
            with pytest.raises(OverflowError), np.errstate(over="ignore"):
                operators._row_fsum(values)

    @pytest.mark.parametrize("m", [3, 10])
    def test_many_rows_match_one_fsum_per_column(self, m):
        rng = np.random.default_rng(m)
        scales = 10.0 ** rng.integers(-8, 8, (m, 1))
        values = rng.standard_normal((m, 3 * BLOCK // 2 + 7)) * scales
        assert operators._row_fsum(values).tobytes() == oneshot_row_fsum(values).tobytes()


class TestProfileBlocks:
    def test_off_target_rows_across_blocks_match_one_pass(self):
        # T holds a slot at phi(s) at every point, so every point is an
        # off-target row, over several blocks of rows
        n, phi = 8192, SymbolMap.doubling()
        wc = WeightedComposition(ScalarField.constant(1.0), phi)
        T = (as_expr(WeightedComposition(ScalarField.cosine(amplitude=0.5, offset=0.75), phi))
             + FiniteRankOperator(((ScalarField.unimodular_exp(3), AtomicMeasure.from_atoms(
                 [(Fraction(k, 8), 0.1 * (k + 1)) for k in range(4)])),)))
        with shared_compilation():
            fam = compiled_family(T, n)
            assert len(operators._blocks(n, len(fam.codes))) > 2
            prof = operators._compiled_profile(wc, T, GridCircle(n))
            _, slot = point_masses(fam, symbol_codes(phi, n))
        rows = np.flatnonzero(slot >= 0)
        assert rows.size == n
        rest = fam.present[:, rows] & (np.arange(len(fam.codes))[:, None] != slot[rows])
        off = fam.tv.copy()
        off[rows] = oneshot_row_fsum(np.where(rest, modulus(fam.weights[:, rows]), 0.0))
        assert prof.off_mass.tobytes() == off.tobytes()

    def test_reference_pass_catches_a_point_in_a_later_block(self, monkeypatch):
        n, k = 2 * BLOCK, BLOCK + 5
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        T = rank_one(ScalarField.constant(0.5), at=Fraction(1, 2))
        original = operators.compile_family

        def corrupted(op, space):
            fam = original(op, space)
            tv = fam.tv.copy()
            tv[k] *= 1.5
            return CompiledFamily(fam.codes, fam.weights, fam.present, tv)

        monkeypatch.setattr(operators, "compile_family", corrupted)
        with pytest.raises(InvariantViolation,
                           match=f"compiled total variation .* at s={Fraction(k, n)}$"):
            perturbation_profile(wc, T, GridCircle(n))

    @pytest.mark.parametrize("fault", ["tv", "weight"])
    @pytest.mark.parametrize("kind", ["composition", "sum"])
    def test_reference_pass_catches_a_later_block_beyond_rank_one(self, monkeypatch,
                                                                   kind, fault):
        n, k = 2 * BLOCK, BLOCK + 5
        wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.doubling())
        if kind == "composition":
            T = WeightedComposition(ScalarField.constant(0.5 - 0.25j), SymbolMap.identity())
        else:
            T = (convex_combination(0.4, SymbolMap.identity(), SymbolMap.doubling())
                 + rank_one(ScalarField.constant(0.5), at=Fraction(1, 2)))
        original = operators.compile_family

        def corrupted(op, space):
            fam = original(op, space)
            if op != T:  # T's parts compile as they are
                return fam
            weights, tv = fam.weights.copy(), fam.tv.copy()
            if fault == "tv":
                tv[k] *= 1.5
            else:  # a present weight, and the row total variation that follows it
                weights[np.flatnonzero(fam.present[:, k])[0], k] += 0.25
                tv[k] = math.fsum(abs(complex(w)) for w in weights[fam.present[:, k], k])
            return CompiledFamily(fam.codes, weights, fam.present, tv)

        monkeypatch.setattr(operators, "compile_family", corrupted)
        with pytest.raises(InvariantViolation, match=f"at s={Fraction(k, n)}$"):
            perturbation_profile(wc, T, GridCircle(n))


def test_compiling_and_profiling_ten_slots_stays_near_the_family_size():
    """Peak traced memory of compiling cc + T (10 slots) and reading its
    profile at n=65536, its parts already compiled: at most 1.5 times the
    family's own bytes.  The pairwise merge peaked at about 4.8 times
    (81.1 MB against a 16.9 MB family), the in-place merge at about 1.2
    times (20.3 MB)."""
    n = 65536
    cc = convex_combination(0.4, SymbolMap.doubling(), SymbolMap.rotation(Fraction(1, 8)))
    T = FiniteRankOperator((
        (ScalarField.cosine(amplitude=0.5, offset=0.25, frequency=3),
         AtomicMeasure.from_atoms([(Fraction(k, 8), 0.1 * (k + 1)) for k in range(4)])),
        (ScalarField.unimodular_exp(2),
         AtomicMeasure.from_atoms([(Fraction(k, 5), -0.05j * k) for k in range(1, 5)]))))
    wc = WeightedComposition(ScalarField.constant(1.0), SymbolMap.identity())
    with shared_compilation():
        compiled_family(cc, n), compiled_family(T, n)
        tabulate(wc.u, n), symbol_codes(wc.phi, n)
        tracemalloc.start()
        try:
            fam = compiled_family(cc + T, n)
            operators._compiled_profile(wc, cc + T, GridCircle(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(fam.codes) == 10
    size = sum(a.nbytes for a in (fam.codes, fam.weights, fam.present, fam.tv))
    assert peak <= 1.5 * size, (peak, size)
