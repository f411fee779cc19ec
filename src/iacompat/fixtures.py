"""Access to the shipped case-study contract documents."""
from __future__ import annotations

from .docformat import ContractDocument, parse_document

FIXTURE_NAMES = ("le_device.ia", "transport_layer.ia", "ping.ia", "pong.ia")


def fixture_text(name: str) -> str:
    from importlib import resources  # on first use: it and pathlib slow down importing the package
    ref = resources.files(__package__).joinpath("fixtures").joinpath(name)
    return ref.read_text(encoding="utf-8")


def load_fixture(name: str) -> ContractDocument:
    return parse_document(fixture_text(name), source=name)
