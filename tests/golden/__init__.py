"""Committed golden digests of the propagation results (see make_golden)."""
