import math

import pytest

from funneldsc.plants import (
    EM_B,
    EM_M,
    EM_N,
    PLANTS,
    PlantBounds,
    StrictFeedbackPlant,
    electromechanical_reference,
    make_electromechanical,
    make_single_link,
    single_link_reference,
)

class TestElectromechanicalConstants:
    def test_lumped_parameters(self):
        # M = J/Kt + m0*L0^2/(3Kt) + M0*L0^2/Kt + 2*M0*R0^2/(5Kt)
        assert EM_M == pytest.approx(0.0642, abs=5e-5)
        assert EM_N == pytest.approx(2.2839315, abs=1e-6)
        assert EM_B == pytest.approx(0.01805556, abs=1e-7)

    def test_bounds_view(self):
        b = make_electromechanical().bounds()
        assert isinstance(b, PlantBounds)
        assert b.n == 3
        assert b.gain_lower == (0.1, 0.1, 0.1)
        assert b.gain_upper == (10.0, 10.0, 10.0)
        # growth-rate constants of the drift stages
        assert b.lipschitz_rate[0] == 1.0
        assert b.lipschitz_rate[1] == pytest.approx((EM_N + EM_B) / EM_M)
        assert b.lipschitz_rate[2] == pytest.approx((0.9 + 5.0) / (EM_M * 15.0))


class TestElectromechanicalDynamics:
    def setup_method(self):
        self.plant = make_electromechanical()

    def test_derivative_matches_hand_model(self):
        # independent recomputation of the cascade right-hand side
        x = (0.7, -1.3, 2.1)
        u = 4.0
        t = 0.6
        d1 = x[1] + 2.0 * math.sin(5.0 * t)
        d2 = (
            -(EM_N / EM_M) * math.sin(x[0])
            - (EM_B / EM_M) * x[1]
            + x[2]
            + 5.0 * math.cos(2.0 * t)
        )
        d3 = (
            -(0.9 / (EM_M * 15.0)) * x[1]
            - (5.0 / (EM_M * 15.0)) * x[2]
            + u
            + 10.0 * math.sin(t)
        )
        got = self.plant.state_derivative(x, u, t)
        assert got == pytest.approx([d1, d2, d3], rel=1e-12)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            self.plant.state_derivative((float("nan"), 0.0, 0.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            self.plant.state_derivative((0.0, 0.0, 0.0), float("inf"), 0.0)


class TestSingleLink:
    def setup_method(self):
        self.plant = make_single_link()

    def test_derivative_matches_hand_model(self):
        x = (0.4, -2.0)
        u = 1.5
        t = 0.3
        d1 = x[1]
        d2 = -(2.0 * x[1] + 1.0 * 9.81 * 1.0 * math.sin(x[0])) / 1.0 + u / 1.0 \
            + 10.0 * math.cos(5.0 * t)
        got = self.plant.state_derivative(x, u, t)
        assert got == pytest.approx([d1, d2], rel=1e-12)

    def test_bounds(self):
        b = self.plant.bounds()
        assert b.n == 2
        assert b.gain_lower == (0.5, 0.5)
        assert b.gain_upper == (10.0, 10.0)
        assert b.lipschitz_rate[1] == pytest.approx(11.81)


class TestReferences:
    @pytest.mark.parametrize(
        "ref", [electromechanical_reference(), single_link_reference()]
    )
    def test_derivative_is_consistent(self, ref):
        h = 1e-7
        for t in (0.0, 0.13, 0.5, 1.7):
            fd = (ref.value(t + h) - ref.value(t - h)) / (2.0 * h)
            assert ref.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_electromechanical_reference_values(self):
        ref = electromechanical_reference()
        assert ref.value(0.0) == pytest.approx(2.0)
        assert ref.derivative(0.0) == pytest.approx(10.0)

    def test_single_link_reference_values(self):
        ref = single_link_reference()
        assert ref.value(0.0) == pytest.approx(math.pi)
        assert ref.derivative(0.0) == pytest.approx(20.0)


class TestRegistry:
    def test_names_map_to_plant_and_reference(self):
        assert set(PLANTS) == {"electromechanical", "single-link"}
        assert PLANTS["electromechanical"].plant().n == 3
        assert PLANTS["single-link"].plant().n == 2
        assert PLANTS["electromechanical"].reference().value(0.0) == pytest.approx(2.0)
        assert PLANTS["single-link"].reference().value(0.0) == pytest.approx(math.pi)


def zero_rhs(x, u, t):
    return [0.0] * len(x)


class TestValidation:
    def test_rejects_bad_gain_bounds(self):
        with pytest.raises(ValueError):
            StrictFeedbackPlant(
                n=1,
                rhs=zero_rhs,
                gain_lower=(0.0,),
                gain_upper=(1.0,),
                lipschitz_rate=(1.0,),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            StrictFeedbackPlant(
                n=2,
                rhs=zero_rhs,
                gain_lower=(0.1,),
                gain_upper=(1.0, 1.0),
                lipschitz_rate=(1.0, 1.0),
            )

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            StrictFeedbackPlant(
                n=0, rhs=zero_rhs, gain_lower=(), gain_upper=(), lipschitz_rate=(),
            )
