"""Buffers (channels/arcs) of a CSDF graph.

A buffer ``b = (t, t')`` is an unbounded FIFO from producer ``t`` to
consumer ``t'`` holding ``M0(b)`` initial tokens. At the *end* of an
execution of phase ``t_p``, ``in_b(p)`` tokens are written; *before* an
execution of phase ``t'_{p'}`` starts, ``out_b(p')`` tokens are read.

``i_b = Σ_p in_b(p)`` and ``o_b = Σ_{p'} out_b(p')`` are the per-iteration
totals used by the consistency condition ``q_t·i_b = q_{t'}·o_b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Tuple

from repro.exceptions import ModelError


@dataclass(frozen=True)
class Buffer:
    """A cyclo-static channel.

    Parameters
    ----------
    name:
        Unique identifier within a graph.
    source, target:
        Producer / consumer task names. ``source == target`` models a
        self-loop (used e.g. to forbid auto-concurrency).
    production:
        ``in_b``: tokens written per producer phase (length ``ϕ(source)``).
    consumption:
        ``out_b``: tokens read per consumer phase (length ``ϕ(target)``).
    initial_tokens:
        ``M0(b) ≥ 0``.

    Examples
    --------
    The paper's Figure 1 buffer:

    >>> b = Buffer("b", "t", "t2", (2, 3, 1), (2, 5), 0)
    >>> b.total_production, b.total_consumption
    (6, 7)
    """

    name: str
    source: str
    target: str
    production: Tuple[int, ...]
    consumption: Tuple[int, ...]
    initial_tokens: int = 0
    serialization: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        production = tuple(int(r) for r in self.production)
        consumption = tuple(int(r) for r in self.consumption)
        if not production or not consumption:
            raise ModelError(f"buffer {self.name!r} has an empty rate vector")
        if any(r < 0 for r in production) or any(r < 0 for r in consumption):
            raise ModelError(f"buffer {self.name!r} has negative rates")
        if sum(production) == 0 or sum(consumption) == 0:
            raise ModelError(
                f"buffer {self.name!r} never produces or never consumes; "
                "remove the channel instead"
            )
        if self.initial_tokens < 0:
            raise ModelError(
                f"buffer {self.name!r} has negative initial marking "
                f"{self.initial_tokens}"
            )
        object.__setattr__(self, "production", production)
        object.__setattr__(self, "consumption", consumption)
        object.__setattr__(self, "initial_tokens", int(self.initial_tokens))

    # ------------------------------------------------------------------
    # Totals and prefix sums (the paper's i_b, o_b, Ia, Oa)
    # ------------------------------------------------------------------
    @property
    def total_production(self) -> int:
        """``i_b`` — tokens produced by one full iteration of the source."""
        return sum(self.production)

    @property
    def total_consumption(self) -> int:
        """``o_b`` — tokens consumed by one full iteration of the target."""
        return sum(self.consumption)

    @property
    def rate_gcd(self) -> int:
        """``gcd_b = gcd(i_b, o_b)`` used by Theorem 2's rounding."""
        return gcd(self.total_production, self.total_consumption)

    def produced_upto(self, phase: int, n: int = 1) -> int:
        """``Ia⟨t_p, n⟩ = Σ_{α≤p} in_b(α) + (n−1)·i_b``.

        Total tokens written into the buffer at the completion of the
        ``n``-th execution of producer phase ``p`` (1-based).
        """
        self._check_producer_phase(phase)
        if n < 1:
            raise ModelError(f"execution index must be ≥ 1, got {n}")
        return sum(self.production[:phase]) + (n - 1) * self.total_production

    def consumed_upto(self, phase: int, n: int = 1) -> int:
        """``Oa⟨t'_{p'}, n'⟩ = Σ_{α≤p'} out_b(α) + (n'−1)·o_b``."""
        self._check_consumer_phase(phase)
        if n < 1:
            raise ModelError(f"execution index must be ≥ 1, got {n}")
        return sum(self.consumption[:phase]) + (n - 1) * self.total_consumption

    def is_self_loop(self) -> bool:
        return self.source == self.target

    def reversed(self, name: str, initial_tokens: int) -> "Buffer":
        """The reverse channel used by the bounded-buffer transformation.

        The consumer *frees space* (produces into the reverse buffer) with
        its consumption vector, and the producer *claims space* with its
        production vector.
        """
        return Buffer(
            name=name,
            source=self.target,
            target=self.source,
            production=self.consumption,
            consumption=self.production,
            initial_tokens=initial_tokens,
        )

    def with_initial_tokens(self, initial_tokens: int) -> "Buffer":
        """This buffer with another initial marking.

        The rate vectors were validated when this buffer was built and
        are shared as they are; only the marking is checked. A batch of
        capacity edits swaps hundreds of markings at once.

        >>> b = Buffer("b", "t", "t2", (2, 3, 1), (2, 5), 0)
        >>> b.with_initial_tokens(4) == Buffer("b", "t", "t2", (2, 3, 1),
        ...                                    (2, 5), 4)
        True
        """
        initial_tokens = int(initial_tokens)
        if initial_tokens < 0:
            raise ModelError(
                f"buffer {self.name!r} has negative initial marking "
                f"{initial_tokens}"
            )
        edited = object.__new__(Buffer)
        edited.__dict__.update(self.__dict__)
        edited.__dict__["initial_tokens"] = initial_tokens
        return edited

    def _check_producer_phase(self, phase: int) -> None:
        if not 1 <= phase <= len(self.production):
            raise ModelError(
                f"producer phase {phase} out of range 1..{len(self.production)} "
                f"for buffer {self.name!r}"
            )

    def _check_consumer_phase(self, phase: int) -> None:
        if not 1 <= phase <= len(self.consumption):
            raise ModelError(
                f"consumer phase {phase} out of range 1..{len(self.consumption)} "
                f"for buffer {self.name!r}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Buffer({self.name}: {self.source}->{self.target}, "
            f"in={list(self.production)}, out={list(self.consumption)}, "
            f"M0={self.initial_tokens})"
        )
