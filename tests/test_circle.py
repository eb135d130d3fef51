"""Grid circle geometry, scalar fields and symbol maps."""

import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from daugavetlab import circle
from daugavetlab.circle import (
    Arc,
    GridCircle,
    ScalarField,
    SymbolMap,
    _gap,
    arc_mask,
    cmul,
    frac_mod1,
    index_space,
    modulus,
    modulus_constancy,
    preimage_nowhere_dense_at_resolution,
    shared_compilation,
    symbol_codes,
    tabulate,
)
from daugavetlab.criteria import counterexample_fat_preimage
from daugavetlab.measures import AtomicMeasure
from daugavetlab.operators import rank_one
from daugavetlab.sampling import random_unimodular_field
from daugavetlab.scenarios import parse_scenario, run_scenario

FULL = Arc(Fraction(0), Fraction(1, 2))


def distance(a, b) -> Fraction:
    """d(a, b) as the exact ratio G / D that _gap gives, b reduced first."""
    a = Fraction(a)
    G, D = _gap(a.numerator, a.denominator, frac_mod1(b))
    return Fraction(G, D)


class TestGeometry:
    def test_distance_is_shorter_way_around(self):
        assert distance(Fraction(0), Fraction(3, 4)) == Fraction(1, 4)
        assert distance(Fraction(1, 8), Fraction(7, 8)) == Fraction(1, 4)

    def test_unreduced_query_points_act_as_their_residue(self):
        far = Fraction(9, 4)  # the point 1/4, two turns on
        assert distance(0, far) == distance(far, 0) == Fraction(1, 4)
        assert distance(Fraction(-7, 4), 0) == Fraction(1, 4)
        assert not Arc(0, Fraction(1, 8)).contains(far)
        assert ScalarField.tent(0, Fraction(1, 8))(far) == 0j
        assert ScalarField.tent(0, Fraction(1, 2))(far) == 0.5 + 0j

    def test_distance_exact_for_rationals(self):
        G, D = _gap(1, 3, Fraction(2, 3))
        assert type(G) is int and type(D) is int and Fraction(G, D) == Fraction(1, 3)
        G, D = _gap(-14, 6, Fraction(2, 3))  # -7/3, unreduced: the point 2/3
        assert Fraction(G, D) == 0

    @given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1))
    def test_distance_is_a_metric(self, a, b):
        a, b = frac_mod1(a), frac_mod1(b)
        d = distance(a, b)
        assert 0 <= d <= Fraction(1, 2)
        assert d == distance(b, a)
        assert (d == 0) == (a == b)

    @given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1),
           st.fractions(min_value=0, max_value=1))
    def test_distance_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c)

    def test_frac_mod1_is_exact_and_strict(self):
        assert frac_mod1(Fraction(-3, 4)) == Fraction(1, 4)
        assert frac_mod1(np.int64(7)) == 0 and isinstance(frac_mod1(np.int64(7)), Fraction)
        for bad in (0.25, True, "1/4"):
            with pytest.raises(TypeError):
                frac_mod1(bad)

    @pytest.mark.parametrize("build", [
        lambda: Arc(0.25, Fraction(1, 8)),
        lambda: Arc(Fraction(1, 4), 0.125),
        lambda: ScalarField.tent(0.3, Fraction(1, 5)),
        lambda: ScalarField.tent_dip(Fraction(0), 0.25, depth=0.5),
        lambda: SymbolMap.rotation(0.125),
        lambda: SymbolMap.constant_on_arc(0.5, Arc(Fraction(0), Fraction(1, 4))),
        lambda: AtomicMeasure.from_atoms([(0.25, 1.0)]),
        lambda: rank_one(ScalarField.constant(1.0), at=0.25),
        lambda: preimage_nowhere_dense_at_resolution(
            SymbolMap.doubling(), 0.5, Fraction(1, 4), GridCircle(16)),
        lambda: counterexample_fat_preimage(
            ScalarField.constant(1.0), SymbolMap.constant_on_arc(Fraction(0), FULL),
            0.0, FULL, GridCircle(16)),
    ], ids=["arc-center", "arc-half-width", "tent", "tent-dip", "rotation",
            "constant-on-arc", "from-atoms", "rank-one", "preimage",
            "fat-preimage"])
    def test_float_coordinate_is_rejected(self, build):
        with pytest.raises(TypeError, match="exact rationals"):
            build()

    EVALUATED = [
        ScalarField.constant(1),
        ScalarField.unimodular_exp(winding=2),
        ScalarField.cosine(),
        ScalarField.tent(Fraction(0), Fraction(1, 4)),
        ScalarField.from_samples([1, 2, 3, 4], 4),
        ScalarField.product(ScalarField.constant(2), ScalarField.cosine()),
        SymbolMap.identity(),
        SymbolMap.rotation(Fraction(1, 3)),
        SymbolMap.doubling(),
        SymbolMap.constant_on_arc(Fraction(1, 2), Arc(Fraction(0), Fraction(1, 8))),
        SymbolMap.from_table([1, 2, 3, 0], 4),
    ]

    @pytest.mark.parametrize("point", [0.25, True, "1/4"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("obj", EVALUATED, ids=[f"{type(o).__name__}-{o.kind}"
                                                    for o in EVALUATED])
    def test_every_kind_rejects_a_non_rational_point(self, obj, point):
        # the message names the point passed, not a value computed from it
        with pytest.raises(TypeError, match=r"^coordinates are exact rationals \(an int or "
                                            r"a Fraction\), got "
                                            + re.escape(f"{type(point).__name__} {point!r}")
                                            + "$"):
            obj(point)
        obj(Fraction(1, 4))  # while an exact point evaluates

    def test_grid_points_are_exact_rationals(self):
        g = GridCircle(8)
        assert g.points() == [Fraction(k, 8) for k in range(8)]
        assert g.index_of(Fraction(3, 8)) == 3
        assert g.contains(Fraction(3, 8))
        assert not g.contains(Fraction(1, 3))

    def test_grid_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            GridCircle(1)

    def test_arc_membership_wraps(self):
        arc = Arc(Fraction(0), Fraction(1, 8))
        assert arc.contains(Fraction(15, 16))
        assert arc.contains(Fraction(1, 16))
        assert not arc.contains(Fraction(1, 4))


class TestScalarFields:
    def test_constant(self):
        u = ScalarField.constant(2 - 1j)
        assert u(Fraction(1, 3)) == 2 - 1j

    def test_unimodular_exp_has_modulus_one(self):
        u = ScalarField.unimodular_exp(winding=3)
        g = GridCircle(32)
        rep = modulus_constancy(u, g)
        assert rep.constant and rep.value == pytest.approx(1.0, abs=1e-12)

    def test_cosine_field(self):
        u = ScalarField.cosine(amplitude=0.5, offset=0.5, frequency=1)
        assert u(Fraction(0)) == pytest.approx(1.0)
        assert u(Fraction(1, 2)) == pytest.approx(0.0)

    def test_tent_peaks_at_center_and_flattens(self):
        v = ScalarField.tent(Fraction(0), Fraction(1, 8), peak=1.0, base=0.0)
        assert v(Fraction(0)) == pytest.approx(1.0)
        assert v(Fraction(1, 16)) == pytest.approx(0.5)
        assert v(Fraction(1, 4)) == pytest.approx(0.0)
        assert v(Fraction(3, 4)) == pytest.approx(0.0)

    def test_tent_dip_modulus_spread(self):
        u = ScalarField.tent_dip(Fraction(0), Fraction(1, 4), depth=0.5)
        g = GridCircle(64)
        rep = modulus_constancy(u, g)
        assert not rep.constant
        assert rep.spread == pytest.approx(0.5, abs=1e-12)
        assert u(Fraction(0)) == pytest.approx(0.5)
        assert u(Fraction(1, 2)) == pytest.approx(1.0)

    def test_samples_field_requires_grid_membership(self):
        u = ScalarField.from_samples([1, 2, 3, 4], 4)
        assert u(Fraction(1, 4)) == 2
        with pytest.raises(ValueError):
            u(Fraction(1, 3))

    @pytest.mark.parametrize("values", [
        np.exp(2j * np.pi * np.random.default_rng(3).random(64)),
        (0.7 * np.random.default_rng(4).standard_normal(16)),
        [1.5, -2j, 3 + 4j, 1e-320],
        [1, -2, 0, 7],
    ], ids=["complex-array", "real-array", "list", "ints"])
    def test_samples_convert_each_value_as_complex_does(self, values):
        # a list from .tolist() converts to the same complex values as the
        # numpy scalars of its array
        want = tuple(complex(v) for v in values)
        for given in (values, list(values), np.asarray(values).tolist()):
            got = ScalarField.from_samples(given, len(want)).samples
            assert all(type(z) is complex for z in got)
            assert [(z.real.hex(), z.imag.hex()) for z in got] == [
                (z.real.hex(), z.imag.hex()) for z in want]

    def test_generated_samples_are_those_of_the_array(self):
        values = np.exp(2j * np.pi * np.random.default_rng(9).random(64))
        u = random_unimodular_field(np.random.default_rng(9), 64)
        assert u.samples == tuple(complex(v) for v in values)

    def test_product_multiplies_pointwise(self):
        u = ScalarField.product(ScalarField.constant(2.0),
                                ScalarField.cosine(amplitude=1.0, offset=0.0, frequency=1))
        assert u(Fraction(0)) == pytest.approx(2.0)

    def test_sup_norm_over_grid(self):
        u = ScalarField.cosine(amplitude=1.0, offset=0.0, frequency=1)
        assert modulus_constancy(u, GridCircle(64)).value == pytest.approx(1.0)


class TestSymbolMaps:
    def test_identity_rotation_doubling(self):
        assert SymbolMap.identity()(Fraction(3, 8)) == Fraction(3, 8)
        assert SymbolMap.rotation(Fraction(1, 8))(Fraction(7, 8)) == Fraction(0)
        assert SymbolMap.doubling()(Fraction(5, 8)) == Fraction(1, 4)

    def test_constant_on_arc_patches_base(self):
        arc = Arc(Fraction(0), Fraction(1, 8))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        assert phi(Fraction(1, 16)) == Fraction(0)
        assert phi(Fraction(1, 2)) == Fraction(1, 2)  # identity off the arc

    def test_table_symbol(self):
        phi = SymbolMap.from_table([0, 0, 1, 2], 4)
        assert phi(Fraction(1, 4)) == Fraction(0)
        assert phi(Fraction(3, 4)) == Fraction(1, 2)
        with pytest.raises(ValueError):
            SymbolMap.from_table([0, 4], 2)  # index out of range


class TestPreimageGeometry:
    def test_doubling_preimages_are_nowhere_dense(self):
        # exhaustive oracle: scan every arc of length delta on the grid and
        # confirm each contains a point mapping away from the target
        g = GridCircle(64)
        phi = SymbolMap.doubling()
        delta = Fraction(1, 8)
        for t in g.points():
            assert preimage_nowhere_dense_at_resolution(phi, t, delta, g)
            run_len = int(g.n * delta)
            hits = [phi(p) == t for p in g.points()]
            for start in range(g.n):
                window = [hits[(start + j) % g.n] for j in range(run_len)]
                assert not all(window)

    def test_constant_on_arc_preimage_fails_nowhere_dense(self):
        g = GridCircle(64)
        arc = Arc(Fraction(0), Fraction(1, 4))
        phi = SymbolMap.constant_on_arc(Fraction(0), arc)
        assert not preimage_nowhere_dense_at_resolution(phi, Fraction(0), Fraction(1, 8), g)

    def test_resolution_too_coarse_is_rejected(self):
        g = GridCircle(8)
        with pytest.raises(ValueError):
            preimage_nowhere_dense_at_resolution(
                SymbolMap.identity(), Fraction(0), Fraction(1, 16), g)


class TestIndexSpace:
    def test_complex_helpers_repeat_cpython_bit_for_bit(self):
        # numpy's complex multiply and np.abs may round differently from
        # CPython's complex * and abs(): on AVX-512 builds they disagree on
        # about 40% of this set.  The compiled route uses cmul and modulus.
        rng = np.random.default_rng(2026)
        size = 20000
        a = ((rng.standard_normal(size) + 1j * rng.standard_normal(size))
             * np.exp(rng.uniform(-30, 30, size)))
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        products = np.array([x * y for x, y in zip(a.tolist(), b.tolist())])
        moduli = np.array([abs(x) for x in a.tolist()])
        assert cmul(a, b).tobytes() == products.tobytes()
        assert modulus(a).tobytes() == moduli.tobytes()

    def test_codes_are_exact_for_any_rational(self):
        big = 10 ** 40 + 1
        with shared_compilation():
            space = index_space(8)
            assert [space.code(Fraction(k, 8)) for k in range(8)] == list(range(8))
            codes = {space.code(x) for x in (Fraction(1, big), Fraction(2, big),
                                             Fraction(1, 8) + Fraction(1, big),
                                             Fraction(7, 8) + Fraction(1, big),
                                             Fraction(1, 3))}
            assert len(codes) == 5 and codes.isdisjoint(range(8))
            assert space.code(Fraction(2, 2 * big)) == space.code(Fraction(1, big))

    def test_one_block_makes_one_space_per_grid_size(self, monkeypatch):
        made = Counter()
        original = circle.IndexSpace.__init__

        def counting(self, n):
            made[n] += 1
            original(self, n)

        monkeypatch.setattr(circle.IndexSpace, "__init__", counting)
        sc = parse_scenario({
            "space": {"kind": "circle", "n": 64},
            "weight": {"kind": "unimodular_exp", "winding": 1},
            "symbol": {"kind": "doubling"},
            "operator": {"kind": "finite_rank", "terms": [
                {"g": {"kind": "cosine", "amplitude": 0.5, "offset": 0.5},
                 "atoms": [{"pos": "1/4", "re": -1.0}]}]},
            "checks": [{"name": "equation"}, {"name": "rotation-max"},
                       {"name": "refinement", "sizes": [16, 32, 64]}]})
        with shared_compilation():
            assert index_space(8) is index_space(8)
            records = run_scenario(sc)["checks"]
        assert "error" not in [r["verdict"] for r in records]
        assert made == {8: 1, 16: 1, 32: 1, 64: 1}

    @pytest.mark.parametrize("phi", [
        SymbolMap.identity(),
        SymbolMap.doubling(),
        SymbolMap.rotation(Fraction(3, 16)),
        SymbolMap.rotation(Fraction(1, 7)),
        SymbolMap.rotation(Fraction(1, 10 ** 40 + 1)),
        SymbolMap.from_table([(5 * k + 3) % 16 for k in range(16)], 16),
        SymbolMap.constant_on_arc(Fraction(1, 3), Arc(Fraction(1, 10 ** 40 + 1),
                                                      Fraction(1, 5)),
                                  base=SymbolMap.rotation(Fraction(1, 7))),
    ])
    def test_symbol_codes_match_images(self, phi):
        g = GridCircle(16)
        with shared_compilation():
            codes = symbol_codes(phi, g.n)
            space = index_space(g.n)
            assert codes.tolist() == [space.code(phi(p)) for p in g.points()]

    @pytest.mark.parametrize("center, half_width", [
        (Fraction(3, 16), Fraction(1, 8)), (Fraction(1, 3), Fraction(2, 7)),
        (Fraction(1, 10 ** 40 + 1), Fraction(1, 10 ** 30 + 7)), (Fraction(3, 10), Fraction(1, 4)),
    ])
    def test_arc_mask_matches_membership(self, center, half_width):
        arc = Arc(center, half_width)
        for n in (7, 16, 33):
            assert arc_mask(arc, n).tolist() == [arc.contains(p)
                                                 for p in GridCircle(n).points()]

    @pytest.mark.parametrize("u", [
        ScalarField.constant(0.5 - 2j),
        ScalarField.unimodular_exp(winding=3, scale=0.3 + 0.7j),
        ScalarField.cosine(amplitude=0.7, offset=-0.2, frequency=5),
        ScalarField.tent(Fraction(5, 7), Fraction(1, 3), peak=1.3, base=-0.4),
        ScalarField.tent(Fraction(1, 10 ** 40 + 1), Fraction(1, 10 ** 20 + 3)),
        ScalarField.tent(Fraction(3, 10), Fraction(1, 5)),
        ScalarField.tent_dip(Fraction(1, 8), Fraction(1, 4), depth=0.6),
        ScalarField.from_samples([complex(k, -k / 3) for k in range(24)], 24),
        ScalarField.product(ScalarField.cosine(frequency=2),
                            ScalarField.unimodular_exp(winding=-1, scale=1j)),
    ])
    def test_tabulation_matches_pointwise_evaluation(self, u):
        g = GridCircle(24)
        expected = np.array([u(p) for p in g.points()], dtype=complex)
        assert tabulate(u, g.n).tobytes() == expected.tobytes()
