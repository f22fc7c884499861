"""Fixtures shared by the memsim suites."""

from contextlib import contextmanager

import pytest

from repro.memsim import cache, tlb

from .reference import reference_engine


@pytest.fixture
def reference_engines(monkeypatch):
    """``with reference_engines():`` — every ``TLBArray`` / ``CacheLevel``
    (hence every ``Machine``) built inside gets the scalar reference in
    place of the engine its config asks for, at the same geometry."""

    @contextmanager
    def swap():
        with monkeypatch.context() as patch:
            patch.setattr(tlb, "make_engine", reference_engine)
            patch.setattr(cache, "make_engine", reference_engine)
            yield

    return swap
