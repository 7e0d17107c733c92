"""Formulas written once as source text, compiled or inlined.

Inputs: a formula (the kernel, a plant's right-hand side, a reference, the
envelope) is one text, statements at indentation 0 or one expression, over
named locals and the globals of its own names dict.  Outputs:
:func:`function` writes the one ``def`` around a text and compiles it
(:func:`compile_function`); :func:`inline` renames the names the text
binds, by its symbol table, and its globals apart, so that another
generated function, such as ``sim.run``'s loop, runs the same statements
without a call; it compiles nothing.  What is identical, and why: a
formula's function and its inlined copies take the same float operations
in the same order, since they are one text and only names differ.

Constants are compiled as literals.  Each name that the text reads as a
global whose value is a finite ``float``, or an ``int`` that is not a
``bool``, is replaced by the ``repr`` of its value, in parentheses when
that starts with a minus sign (so ``-0.0`` and ``-1.5`` stay one operand)
or an attribute follows.  ``repr`` round-trips every finite float,
subnormals and the largest included, so each literal is the very float
the global held.  CPython's compiler then folds an operation whose
operands are all literals, such as ``2.0 / pi`` or ``M * G * L``, by the
same IEEE operation that would run at run time, and a literal costs no
dictionary lookup, so no float changes and the step runs faster.
Infinities and nans have no literal and stay globals, as do other types:
a numpy scalar does not compute like a Python float.  Only name tokens are
replaced, not attributes (``theta.T``), keyword names, strings or
comments, and never a name that the text binds anywhere, in any scope.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import symtable
import textwrap

__all__ = ["compile_function", "function", "rename", "inline"]

# A comment, a string, or an identifier that is not an attribute (after a
# ".") or the tail of a number: splitting a text by it puts these tokens at
# the odd indices, and only identifiers are replaced.
_TOKEN = re.compile(r"""(?x)(
    \#[^\n]*
    | (?<![\w.])[rRbBuUfF]{0,2}
      (?: '''(?:\\[\s\S]|[^\\])*?''' | \"\"\"(?:\\[\s\S]|[^\\])*?\"\"\"
        | '(?:\\.|[^'\\\n])*' | "(?:\\.|[^"\\\n])*" )
    | (?<![\w.])[A-Za-z_]\w*)""")
# after a name: "=" but not "==", a keyword argument's (an assignment's
# target is bound, and so left alone anyway)
_KEYWORD = re.compile(r"\s*=(?!=)")


def _literal(value):
    """``repr(value)`` if it is a literal that compiles to ``value``, else
    None."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return None


def _bound(table) -> set:
    """The names that the scope of ``table``, or a scope in it, binds."""
    names = {s.get_name() for s in table.get_symbols() if s.is_local() or s.is_declared_global()}
    for child in table.get_children():
        names |= _bound(child)
    return names


def _with_literals(source: str, filename: str, namespace: dict) -> str:
    """``source`` with each global of ``namespace`` that has a literal
    written as that literal (see the module docstring)."""
    literals = {name: text for name, value in namespace.items() if (text := _literal(value)) is not None}
    if not literals:
        return source
    # The bound names come from the symbol table, not from _KEYWORD, which
    # cannot tell "X = 2.0" from "f(X=2.0)": without the table an assigned X
    # would stay a name while later reads of X became the global's literal,
    # and the text would compile, with no SyntaxError to show it.
    for name in _bound(symtable.symtable(source, filename, "exec")):
        literals.pop(name, None)
    parts = _TOKEN.split(source)
    for i in range(1, len(parts), 2):
        text = literals.get(parts[i])
        if text is not None and not _KEYWORD.match(parts[i + 1]):
            # "-1.5" is one operand only in parentheses, and "4096.bit_length"
            # would read as the float "4096." and a name
            parts[i] = f"({text})" if text[0] == "-" or parts[i + 1][:1] == "." else text
    return "".join(parts)


def compile_function(source: str, filename: str, namespace: dict):
    """The one function that ``source`` defines, compiled under
    ``filename`` with ``namespace`` as its globals, its constants as
    literals.  The text compiled is registered in :mod:`linecache` under
    that name as a lazy entry, one string until a traceback reads its
    lines, so a traceback shows the literals where they run.  The function
    is not kept in its globals, so no cycle outlives its last reference."""
    source = _with_literals(source, filename, namespace)
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (lambda: source,)
    exec(code, namespace)
    return namespace.pop(code.co_names[0])


def function(name: str, params: str, text: str, returns: str, filename: str, names):
    """``def name(params):``, ``text`` (statements at indentation 0, each
    line ending in a newline, or empty) and ``return returns``, compiled
    by :func:`compile_function` under ``filename`` on a copy of ``names``."""
    body = textwrap.indent(text, " " * 4)
    return compile_function(f"def {name}({params}):\n{body}    return {returns}\n", filename, dict(names))


def rename(text: str, names: dict) -> str:
    """``text`` with each identifier that is a key of ``names`` replaced
    by its value; strings and comments are kept as written."""
    parts = _TOKEN.split(text)
    parts[1::2] = [names.get(token, token) for token in parts[1::2]]
    return "".join(parts)


@functools.cache
def _locals(text: str) -> frozenset:
    """The names that ``text`` binds in any scope, by its symbol table."""
    return frozenset(_bound(symtable.symtable(text, "<inline>", "exec")))


def inline(text: str, mapping: dict, tag: str, names, prefix: str):
    """``(text, namespace)``: ``text`` renamed for a caller to inline, and
    the globals it reads.  Each name in ``mapping`` is renamed to its
    value, every other name the text binds to ``<name>__<tag>``, and each
    name in ``names`` (its globals) to ``<prefix><name>``, its key in the
    namespace; a name that the text only reads is otherwise left alone."""
    renamed = {name: prefix + name for name in names}
    renamed.update((name, f"{name}__{tag}") for name in _locals(text))
    renamed.update(mapping)
    return rename(text, renamed), {prefix + name: value for name, value in names.items()}
