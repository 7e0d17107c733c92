"""Formulas written once as source text, compiled or inlined.

A formula (the kernel, a plant's right-hand side, a reference, the
envelope) is one text over named locals and the globals of its own names
dict.  :func:`compile_function` makes the text a callable;
:func:`inline` renames its locals to a caller's and its globals apart, so
that the same statements run inside another generated function, such as
``sim.run``'s loop, without a call.

Constants are compiled as literals.  Each name that the text reads as a
global whose value is a finite ``float``, or an ``int`` that is not a
``bool``, is replaced by the ``repr`` of its value, in parentheses when
that starts with a minus sign (so ``-0.0`` and ``-1.5`` stay one operand)
or an attribute follows.  ``repr`` round-trips every finite float,
subnormals and the largest included, so each literal is the very float
the global held.  CPython's
compiler then folds an operation whose operands are all literals, such as
``2.0 / pi`` or ``M * G * L``, by the same IEEE operation that would run at
run time, and a literal costs no dictionary lookup, so no float changes
and the step runs faster.  Infinities and nans have no literal and stay
globals, as do other types: a numpy scalar does not compute like a Python
float.  Only name tokens are replaced, not attributes (``theta.T``),
keyword names, strings or comments, and never a name that the text binds
anywhere, in any scope.
"""

from __future__ import annotations

import linecache
import math
import re
import symtable

__all__ = ["compile_function", "rename", "inline"]

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


def rename(text: str, names: dict) -> str:
    """``text`` with each identifier that is a key of ``names`` replaced
    by its value; strings and comments are kept as written."""
    parts = _TOKEN.split(text)
    parts[1::2] = [names.get(token, token) for token in parts[1::2]]
    return "".join(parts)


def inline(text: str, function, mapping: dict, tag: str, names, prefix: str):
    """``(text, namespace)``: ``text``, which the compiled ``function``
    evaluates, renamed for a caller to inline, and the globals it reads.

    Each local of ``function`` is renamed to its entry in ``mapping``, or
    else to ``<local>__<tag>``; each name in ``names`` (the text's globals)
    to ``<prefix><name>``, its key in the returned namespace."""
    renamed = {name: prefix + name for name in names}
    renamed.update((name, mapping.get(name, f"{name}__{tag}")) for name in function.__code__.co_varnames)
    return rename(text, renamed), {prefix + name: value for name, value in names.items()}
