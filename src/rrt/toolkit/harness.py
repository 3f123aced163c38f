"""Two-node in-process harness: the same middleware code drives a fully
distributed run and a single-process simulation without modification."""

from __future__ import annotations

import random
from typing import Callable, Iterable

from ..node import NodeConfig, RRTNode, serve
from ..registry import TypeRegistry


class SeededGuidSource:
    """Deterministic GUID byte source for reproducible transcripts."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def __call__(self) -> bytes:
        return self._rng.randbytes(16)


class LocalPair:
    """Two live nodes in one process, on distinct ephemeral ports."""

    def __init__(
        self,
        *,
        seed: int | None = None,
        registrars: Iterable[Callable[[TypeRegistry], None]] = (),
        config_a: NodeConfig | None = None,
    ):
        self._registrars = tuple(registrars)
        self.a = self._spawn(config_a, None if seed is None else seed)
        self.b = self._spawn(None, None if seed is None else seed + 1)

    def _spawn(self, config: NodeConfig | None, seed: int | None) -> RRTNode:
        types = TypeRegistry()
        for register in self._registrars:
            register(types)
        return serve(
            config or NodeConfig(port=0),
            types=types,
            guid_source=SeededGuidSource(seed) if seed is not None else None,
        )

    def close(self) -> None:
        self.b.stop()
        self.a.stop()

    def __enter__(self) -> "LocalPair":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
