"""Knob-reporting shims: the optional compiled tier was removed; these stay
because ``perfbench/child.py`` still probes them."""


def kernels_enabled() -> bool:
    """Always ``False``; kept for knob reporting."""
    return False


def kernels_provenance() -> str:
    """Always ``"default"``; kept for knob reporting."""
    return "default"
