"""Call counters for the tests that bound how often a helper runs."""

from __future__ import annotations


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call's arguments;
    return the list it records into."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls
