"""A reference for the twist, shared by the disk and verify tests."""


def merged_region(ang, d):
    """Vertex cycle of the (2m+2)-gon around the diagonal d, clockwise:
    the union of the two faces of ``ang.faces()`` that have d as a side."""
    beside = [f for f in ang.faces() if d in f.sides]
    assert len(beside) == 2, f"{d} is a side of {len(beside)} faces"
    return tuple(sorted({v for f in beside for v in f.vertices}))
