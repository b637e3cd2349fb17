"""One hash-consing table for the syntax trees of truth terms, truth formulas
and RC formulas, and for ordinal notations and their Veblen terms.

Nodes are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
ML Workshop 2006): building a node whose class and fields equal a live node's
returns that node.  Equal structure is therefore the same object, so equality
and hashing are object identity: constant time and free of recursion however
deep a node is.  A node's fields never change.  Its caches (an ordinal's
`_code`, and a term's order `label`, which ordinal._relabel rewrites) may be
written after it is built, but never change its identity.  The table takes no
lock: build nodes from one thread at a time.

The table is a plain dict from the key (class, *fields) to a weak reference
to the node that carries the same key.  A lookup is one dict.get and one call
of the reference.  When a node dies, its reference's callback deletes the
entry, but only while the entry is still that reference: a node rebuilt under
the same key before the callback ran has put a new reference there, which
stays.  So a node leaves the table once nothing else refers to it.  Because
callbacks delete entries whenever a node dies, nothing may iterate _TABLE;
len(_TABLE) is safe.
"""

import weakref

_TABLE = {}  # (class, *fields) -> _Ref to the node


class _Ref(weakref.ref):
    """A weak reference that remembers its table key."""

    __slots__ = ("key",)


def _drop(ref):
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class Node:
    """A hash-consed node.  A concrete class lists its fields, and only its
    fields, in __slots__; its caches (free variables, a sort key, a code) sit
    in a base class's slots, and its _fill() sets them when the node is
    built.  _fill() may refuse the node by raising; the node is then stored
    nowhere, since it enters the table only after _fill() returns."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls,) + fields
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(fields) != len(cls.__slots__):
            raise TypeError("%s takes %d fields" % (cls.__name__, len(cls.__slots__)))
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        node._fill()
        ref = _TABLE[key] = _Ref(node, _drop)
        ref.key = key
        return node

    def __repr__(self):
        fields = (repr(getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, ", ".join(fields))

    def __reduce__(self):
        # copies and unpickled nodes go back through the table
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
