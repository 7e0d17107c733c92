import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oracles import REFERENCES, RHS


def bits(values) -> list:
    """Each float as its hex form: equal lists hold the same floats, sign of zero included."""
    return [float.hex(v) for v in values]

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

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_each_entry_states_its_plants_order(self, name):
        assert PLANTS[name].n == PLANTS[name].plant().n

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_each_built_in_is_built_and_compiled_once(self, name):
        entry = PLANTS[name]
        assert entry.plant() is entry.plant() and entry.reference() is entry.reference()
        assert entry.plant().rhs is entry.plant().rhs
        assert entry.reference().value is entry.reference().value


FLOATS = st.floats(-1e6, 1e6)


class TestTextsEqualTheHandWrittenFormulas:
    """Each built-in text, compiled, gives the floats of the formula it
    replaced (``tests/oracles.py``), sign of zero included."""

    @pytest.mark.parametrize("name", sorted(PLANTS))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rhs(self, name, data):
        plant = PLANTS[name].plant()
        x = data.draw(st.lists(FLOATS, min_size=plant.n, max_size=plant.n))
        u, t = data.draw(FLOATS), data.draw(st.floats(0.0, 1e3))
        assert bits(plant.rhs(x, u, t)) == bits(RHS[name](x, u, t))
        assert bits(plant.state_derivative(x, u, t)) == bits(RHS[name](x, u, t))

    @pytest.mark.parametrize("name", sorted(PLANTS))
    @given(t=st.floats(-1e3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_reference(self, name, t):
        reference = PLANTS[name].reference()
        value, derivative = REFERENCES[name]
        assert bits([reference.value(t), reference.derivative(t)]) == bits([value(t), derivative(t)])


class TestTexts:
    def test_names_are_read_only_and_compare_by_value(self):
        plant = make_single_link()
        with pytest.raises(TypeError):
            plant.names["B"] = 3.0
        assert StrictFeedbackPlant(**{f: getattr(plant, f) for f in (
            "n", "rhs_text", "names", "gain_lower", "gain_upper", "lipschitz_rate")}) == plant
        other = single_link_reference()
        copy = type(other)(other.value_text, other.derivative_text, dict(other.names))
        assert copy == other

    def test_inline_renames_locals_and_prefixes_names(self):
        plant = StrictFeedbackPlant(
            n=2, rhs_text="w = gain * sin(x1)\ndx1 = x2 + w\ndx2 = u - w * t\n",
            names={"gain": 0.5, "sin": math.sin}, gain_lower=(1.0, 1.0), gain_upper=(1.0, 1.0),
            lipschitz_rate=(1.0, 1.0),
        )
        text, namespace = plant.inline_rhs("s2", ["p", "q"], "v", "tm", ["k1", "k2"])
        assert text == "w__s2 = rhs_gain * rhs_sin(p)\nk1 = q + w__s2\nk2 = v - w__s2 * tm\n"
        assert namespace == {"rhs_gain": 0.5, "rhs_sin": math.sin}
        local = {"p": 0.3, "q": -1.2, "v": 2.0, "tm": 0.7}
        exec(text, dict(namespace), local)
        assert [local["k1"], local["k2"]] == plant.rhs([0.3, -1.2], 2.0, 0.7)


def zero_rhs(n):
    return "".join(f"dx{i} = 0.0\n" for i in range(1, n + 1))


class TestValidation:
    def test_rejects_bad_gain_bounds(self):
        with pytest.raises(ValueError):
            StrictFeedbackPlant(
                n=1,
                rhs_text=zero_rhs(1),
                names={},
                gain_lower=(0.0,),
                gain_upper=(1.0,),
                lipschitz_rate=(1.0,),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            StrictFeedbackPlant(
                n=2,
                rhs_text=zero_rhs(2),
                names={},
                gain_lower=(0.1,),
                gain_upper=(1.0, 1.0),
                lipschitz_rate=(1.0, 1.0),
            )

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            StrictFeedbackPlant(
                n=0, rhs_text=zero_rhs(0), names={}, gain_lower=(), gain_upper=(), lipschitz_rate=(),
            )
