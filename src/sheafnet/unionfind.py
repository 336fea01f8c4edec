"""Disjoint-set forest over hashable items, with path halving."""


class UnionFind:
    def __init__(self, items):
        self.items = list(items)
        self.parent = {x: x for x in self.items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the classes of ``a`` and ``b``; False if they already were one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def groups(self):
        """The classes as lists, in order of first member, members in item order."""
        out = {}
        for x in self.items:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())
