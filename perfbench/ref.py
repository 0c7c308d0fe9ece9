"""Reference lasso acceptance, written independently of the library.

The word u(v)^w is accepted when some state reached on u starts a path in
the product of the automaton with the positions of v that reaches an
accepting node lying on a cycle.  Cycles are found by strongly connected
components (Tarjan, iterative) of the reachable product graph.
"""

from __future__ import annotations


class Reference:
    """Acceptance of lasso words by one automaton, from its transitions."""

    def __init__(self, automaton):
        self.initial = set(automaton.initial)
        self.accepting = set(automaton.accepting)
        self.post: dict = {}
        for s, x, d in automaton.transitions:
            self.post.setdefault((s, x), []).append(d)

    def accepts(self, prefix, period) -> bool:
        current = set(self.initial)
        for x in prefix:
            current = {d for q in current for d in self.post.get((q, x), ())}
        n = len(period)
        adj: dict = {}
        stack = [(q, 0) for q in current]
        seen = set(stack)
        while stack:
            q, i = stack.pop()
            succ = [(d, (i + 1) % n) for d in self.post.get((q, period[i]), ())]
            adj[(q, i)] = succ
            for node in succ:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        for comp in _sccs(adj):
            cyclic = len(comp) > 1 or comp[0] in adj[comp[0]]
            if cyclic and any(q in self.accepting for q, _ in comp):
                return True
        return False


def _sccs(adj: dict) -> list[list]:
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, k = work[-1]
            succ = adj[node]
            if k < len(succ):
                work[-1] = (node, k + 1)
                nxt = succ[k]
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, 0))
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == node:
                        break
                out.append(comp)
    return out
