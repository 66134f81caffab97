"""One depth-first walk on an explicit stack, for both exact searches.

Each level holds a lazy child generator, so depth costs no Python frame.
A search brings its root, its goal depth and `children(state)`, which
yields `(step, child)` best-first and skips the children it has visited."""

from collections.abc import Callable, Iterator


def walk(root, depth: int, children: Callable, budget: float) -> tuple[list | None, int]:
    """The steps to the first state `depth` steps below root, or None, and
    the states expanded.  A state is expanded when asked for its children,
    even if it has none; the walk stops once expansions exceed the budget,
    so a count above the budget means UNKNOWN, not an exhausted search."""
    path: list = []
    stack: list[Iterator] = []
    expanded = 0
    state = root
    while len(path) < depth:
        expanded += 1
        if expanded > budget:
            return None, expanded
        stack.append(children(state))
        while (nxt := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None, expanded
            path.pop()
        step, state = nxt
        path.append(step)
    return path, expanded
