"""Reference routines that only the tests use."""

from provar.permgroup import PermGroup


def all_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every subgroup, by closing generator sets; meant for small orders."""
    trivial = PermGroup(group.degree, [], cap=group.cap)
    found = {trivial.element_set(): trivial}
    frontier = [trivial]
    elems = group.elements()
    while frontier:
        current = frontier.pop()
        inside = current.element_set()
        for e in elems:
            if e in inside:
                continue
            bigger = PermGroup(group.degree, list(current.generators) + [e], cap=group.cap)
            key = bigger.element_set()
            if key not in found:
                found[key] = bigger
                frontier.append(bigger)
    return sorted(found.values(), key=lambda g: (g.order, sorted(g.element_set())))
