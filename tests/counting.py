"""Call counters for the tests that bound how often a helper runs."""

from __future__ import annotations


def count_calls(monkeypatch, owner, name, calls=None):
    """Replace owner.name with a wrapper that records each call's arguments
    into calls (a new list if none is given); return that list, so that one
    list can count several bindings of a function."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls
