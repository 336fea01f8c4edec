"""Bundled architecture fixtures."""

import json
from importlib import resources

FIXTURES = ("chain", "diamond", "lstm", "gru", "mgu2")


def fixture_text(name):
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURES}")
    return resources.files(__package__).joinpath(f"{name}.json").read_text()


def fixture_document(name):
    return json.loads(fixture_text(name))


def fixture_graph(name):
    from ..arch_site import parse_architecture

    return parse_architecture(fixture_document(name))
