"""``codegen``: compiling a formula's text, renaming it and inlining it,
and the rule that compiles its constants as literals."""

import itertools
import linecache
import math
import struct
import sys
import textwrap
import traceback

import numpy as np
import pytest

from funneldsc.codegen import compile_function, inline, rename


# not "<...>": linecache reads no lazy entry under such a name
FILENAMES = (f"codegen-test-{i}" for i in itertools.count())


def compiled(source, **names):
    """The function ``source`` defines, its globals ``names``, and the text
    that was compiled."""
    filename = next(FILENAMES)
    function = compile_function(source, filename, dict(names))
    return function, "".join(linecache.getlines(filename))


def bits(value):
    return struct.pack("<d", value)


class TestCompileFunction:
    def test_returns_the_function_and_does_not_keep_it(self):
        namespace = {"scale": 2}
        double = compile_function("def double(v):\n    return scale * v\n", "<test double>", namespace)
        assert double(1.5) == 3.0
        assert "double" not in namespace

    def test_registers_the_compiled_text(self):
        function, text = compiled("def f(v):\n    return v + OFFSET\n", OFFSET=0.25)
        assert text == "def f(v):\n    return v + 0.25\n"
        assert function(1.0) == 1.25

    def test_a_traceback_shows_the_compiled_line(self):
        function, text = compiled("def f(v):\n    return v / (SHIFT - SHIFT * v)\n", SHIFT=0.5)
        with pytest.raises(ZeroDivisionError) as err:
            function(1.0)
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert frame.line == "return v / (0.5 - 0.5 * v)" == text.splitlines()[1].strip()
        if sys.version_info >= (3, 11):  # the carets' columns
            assert text.splitlines()[1][frame.colno:frame.end_colno] == "v / (0.5 - 0.5 * v)"


class TestLiterals:
    @pytest.mark.parametrize("value", [
        -1.5, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
        0.1, 1e16, 1 / 3, -7, 0, 10**400,
    ])
    def test_a_constant_round_trips(self, value):
        function, text = compiled("def f():\n    return X\n", X=value)
        assert "X" not in function.__code__.co_names
        got = function()
        assert type(got) is type(value)
        assert bits(got) == bits(value) if type(value) is float else got == value

    @pytest.mark.parametrize("value, want", [(-3.0, 9.0), (-0.0, 0.0), (-2, 4)])
    def test_a_negative_constant_stays_one_operand(self, value, want):
        function, text = compiled("def f():\n    return X ** 2\n", X=value)
        assert f"({value!r}) ** 2" in text
        assert function() == want

    def test_negative_zero_keeps_its_sign(self):
        function, _ = compiled("def f(v):\n    return v * Z, Z\n", Z=-0.0)
        product, z = function(1.0)
        assert math.copysign(1.0, product) == math.copysign(1.0, z) == -1.0

    def test_an_attribute_of_a_constant(self):
        function, text = compiled("def f():\n    return N.bit_length(), X.hex()\n", N=4096, X=-1.5)
        assert "(4096).bit_length()" in text and "(-1.5).hex()" in text
        assert function() == ((4096).bit_length(), (-1.5).hex())

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, np.float64(0.5), np.int64(3), "text"])
    def test_other_values_stay_globals(self, value):
        function, text = compiled("def f():\n    return X\n", X=value)
        assert "X" in function.__code__.co_names
        assert text == "def f():\n    return X\n"
        got = function()
        assert got is value

    def test_the_compiler_folds_operations_on_literals(self):
        """``2.0 / pi`` and ``M * G * L`` become one constant, the float
        that the division and the products give at run time."""
        m, g, length = 1.1, 9.81, 0.37
        function, _ = compiled("def f(v):\n    return 2.0 / pi * v, M * G * L * v\n", pi=math.pi, M=m, G=g, L=length)
        consts = function.__code__.co_consts
        assert 2.0 / math.pi in consts and m * g * length in consts
        assert function.__code__.co_names == ()
        assert function(1.0) == (2.0 / math.pi, m * g * length)

    def test_attributes_strings_and_comments_are_left_alone(self):
        source = (
            "def f(o):\n"
            "    # X stays X here\n"
            "    return o.X, 'X', \"X\", '''X ''' + \"\"\"'X'\"\"\", r'\\'X', X  # X\n"
        )

        class Holder:
            X = "attribute"

        function, text = compiled(source, X=2.5)
        assert text == source.replace(", X  #", ", 2.5  #")
        assert function(Holder()) == ("attribute", "X", "X", "X 'X'", "\\'X", 2.5)

    def test_a_keyword_name_is_left_alone(self):
        function, text = compiled("def f(g):\n    return g(X=X, Y=X == X)\n", X=0.75)
        assert "g(X=0.75, Y=0.75 == 0.75)" in text
        assert function(dict) == {"X": 0.75, "Y": True}

    @pytest.mark.parametrize("source, want", [
        ("def f():\n    X = 2.0\n    return X\n", 2.0),
        ("def f(X=3.0):\n    return X\n", 3.0),
        ("def f():\n    X: float = 2.0\n    return X\n", 2.0),
        ("def f():\n    for X in [4.0]:\n        pass\n    return X\n", 4.0),
        ("def f():\n    return [X for X in [5.0]][0]\n", 5.0),
        ("def f():\n    return (lambda X: X)(6.0)\n", 6.0),
        ("def f():\n    global X\n    return X\n", 1.0),
        ("def f():\n    if (X := 2.0) > 0.0:\n        return X\n", 2.0),
        ("def f():\n    X = 2.0\n    X += 1.0\n    return X\n", 3.0),
        ("def f():\n    X, Y = 2.0, 3.0\n    return X\n", 2.0),
        ("def f():\n    try:\n        raise ValueError(2.0)\n    except ValueError as X:\n        return X.args[0]\n", 2.0),
        ("def f():\n    import math as X\n    return X.pi\n", math.pi),
        # bound in a nested scope only: the outer read is a global, kept as a name
        ("def f():\n    def g():\n        X = 7.0\n    return X\n", 1.0),
    ])
    def test_a_bound_name_is_left_alone(self, source, want):
        function, text = compiled(source, X=1.0)
        assert text == source
        assert function() == want


class TestRename:
    def test_renames_identifiers_only(self):
        text = "y = x1 + x * 1e5 + obj.x - e5  # x\nz = 'x'\n"
        assert rename(text, {"x": "a", "e5": "b", "obj": "o", "x1": "c"}) == "y = c + a * 1e5 + o.x - b  # x\nz = 'x'\n"


class TestInline:
    def test_renames_locals_by_mapping_or_tag_and_prefixes_globals(self):
        source = "def f(t):\n    w = K * t\n    return w + OFFSET\n"
        namespace = {"K": 2.0, "OFFSET": 0.5}
        function = compile_function(source, "<test inline>", dict(namespace))
        body = "w = K * t\nout = w + OFFSET\n"
        text, globals_ = inline(body, function, {"t": "time"}, "s1", namespace, "c_")
        assert text == "w__s1 = c_K * time\nout = w__s1 + c_OFFSET\n"
        assert globals_ == {"c_K": 2.0, "c_OFFSET": 0.5}
        body = textwrap.indent(text, " " * 4)
        g = compile_function(f"def g(time):\n{body}    return out\n", "<test g>", globals_)
        assert g(1.5) == function(1.5) == 3.5
