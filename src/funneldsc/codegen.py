"""Formulas written once as source text, compiled or inlined.

A formula (the kernel, a plant's right-hand side, a reference, the
envelope) is one text over named locals and the globals of its own names
dict.  :func:`compile_function` makes the text a callable;
:func:`inline` renames its locals to a caller's and its globals apart, so
that the same statements run inside another generated function, such as
``sim.run``'s loop, without a call.
"""

from __future__ import annotations

import linecache
import re

__all__ = ["compile_function", "rename", "inline"]

# an identifier, not an attribute (after a ".") or the tail of a number
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def compile_function(source: str, filename: str, namespace: dict):
    """The one function that ``source`` defines, compiled under
    ``filename`` with ``namespace`` as its globals.  The source is
    registered in :mod:`linecache` under that name as a lazy entry, one
    string until a traceback reads its lines.  The function is not kept
    in its globals, so no cycle outlives its last reference."""
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (lambda: source,)
    exec(code, namespace)
    return namespace.pop(code.co_names[0])


def rename(text: str, names: dict) -> str:
    """``text`` with each identifier that is a key of ``names`` replaced
    by its value."""
    return _NAME.sub(lambda m: names.get(m[0], m[0]), text)


def inline(text: str, function, mapping: dict, tag: str, names, prefix: str):
    """``(text, namespace)``: ``text``, which the compiled ``function``
    evaluates, renamed for a caller to inline, and the globals it reads.

    Each local of ``function`` is renamed to its entry in ``mapping``, or
    else to ``<local>__<tag>``; each name in ``names`` (the text's globals)
    to ``<prefix><name>``, its key in the returned namespace."""
    renamed = {name: prefix + name for name in names}
    renamed.update((name, mapping.get(name, f"{name}__{tag}")) for name in function.__code__.co_varnames)
    return rename(text, renamed), {prefix + name: value for name, value in names.items()}
