"""One hash-consing table for the syntax trees of truth terms, truth formulas
and RC formulas.

Nodes are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
ML Workshop 2006): building a node whose class and fields equal a live node's
returns that node.  Equal structure is therefore the same object, so equality
and hashing are object identity: constant time and free of recursion however
deep a node is.  The table holds its nodes weakly, so a node leaves it once
nothing else refers to it.  Nodes must never be mutated, and the table takes
no lock: build nodes from one thread at a time.
"""

import weakref

_TABLE = weakref.WeakValueDictionary()  # (class, *fields) -> node


class Node:
    """A hash-consed node.  A concrete class lists its fields, and only its
    fields, in __slots__; its _fill() sets whatever the node caches (free
    variables, a sort key), once, when the node is built."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls,) + fields
        node = _TABLE.get(key)
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError("%s takes %d fields" % (cls.__name__, len(cls.__slots__)))
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                setattr(node, name, value)
            node._fill()
            _TABLE[key] = node
        return node

    def __repr__(self):
        fields = (repr(getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, ", ".join(fields))

    def __reduce__(self):
        # copies and unpickled nodes go back through the table
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
