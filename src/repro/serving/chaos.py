"""Chaos fault plane for the serving tier.

Failures in the serving tier are user-visible, so its resilience
layer is tested by injecting them on purpose.  A :class:`ChaosPlane`
lives **inside each engine worker** and injects faults at the
worker's pipe boundary — the exact seam the dispatcher's resilience
layer (deadlines, reroutes, breaker) must cover:

``crash``
    the worker ``os._exit``\\ s before answering — the parent sees a
    broken pipe, marks the slot dead, and reroutes the request;
``hang``
    the worker sleeps ``hang_s`` without answering — the parent's
    per-request deadline expires, the worker is killed, and the
    request is rerouted;
``slow``
    the worker sleeps ``slow_ms`` and then answers normally — the
    reply must still land inside the deadline (exercises the poll
    loop without a kill);
``corrupt``
    the worker sends a malformed frame instead of the reply — the
    parent cannot trust the stream anymore, kills the worker, and
    reroutes.

Faults apply to data-plane (``http``) messages only; admin traffic
(``ping`` probes, blue/green ``load`` flips) is left alone so chaos
runs can still assert reload semantics deterministically.

Configuration is a :class:`ChaosConfig`, built programmatically
(tests, benchmarks) or parsed from the ``REPRO_CHAOS`` environment
variable::

    REPRO_CHAOS="crash=0.02,hang=0.01,slow=0.05,slow_ms=30,seed=7"

Probabilities are per-request and drawn from a per-worker
deterministic stream when ``seed`` is set.  ``crash_once``/
``hang_once`` name token files: the first worker to atomically remove
the token fires that fault exactly once fleet-wide — a one-shot fault
for regression tests such as the hung-worker one.

Because every fault either delays a reply or destroys the worker
before/instead of replying — never after mutating anything a response
depends on — a chaos run's *answers* must stay bitwise-identical to a
fault-free run.  ``tests/stress/test_serving_chaos.py`` pins exactly
that.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, fields
from typing import Optional

from repro.exceptions import ValidationError

__all__ = ["CHAOS_ENV", "ChaosConfig", "ChaosPlane"]

#: Environment hook: a :meth:`ChaosConfig.parse` spec string.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit code of a chaos-crashed worker (distinguishable from real
#: crashes in process tables while debugging a chaos run).
CHAOS_EXIT_CODE = 23

#: Sent instead of the real reply by the ``corrupt`` fault — a frame
#: the dispatcher's ``(kind, status, body)`` unpack rejects.
CORRUPT_FRAME = ("chaos-corrupt-frame",)

_PROBABILITY_FIELDS = ("crash", "hang", "slow", "corrupt")


@dataclass(frozen=True)
class ChaosConfig:
    """Fault probabilities and shapes for one chaos run.

    ``crash``/``hang``/``slow``/``corrupt`` are per-request
    probabilities (mutually exclusive per draw; their sum must stay
    <= 1).  ``slow_ms`` shapes the slow-reply fault, ``hang_s`` bounds
    a hang that no deadline ever kills.  ``seed`` makes each worker's
    fault stream deterministic (derived per worker index).
    ``crash_once``/``hang_once`` are one-shot token-file faults (see
    module docstring).
    """

    crash: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    corrupt: float = 0.0
    slow_ms: float = 25.0
    hang_s: float = 3600.0
    seed: Optional[int] = None
    crash_once: Optional[str] = None
    hang_once: Optional[str] = None

    def __post_init__(self):
        total = 0.0
        for name in _PROBABILITY_FIELDS:
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"chaos probability {name!r} must lie in [0, 1], "
                    f"got {value!r}"
                )
            total += value
        if total > 1.0 + 1e-12:
            raise ValidationError(
                f"chaos probabilities sum to {total:.3f} > 1"
            )
        if float(self.slow_ms) < 0 or float(self.hang_s) < 0:
            raise ValidationError("slow_ms and hang_s must be non-negative")

    @property
    def enabled(self) -> bool:
        """True when any fault can ever fire."""
        return (
            any(float(getattr(self, name)) > 0 for name in _PROBABILITY_FIELDS)
            or self.crash_once is not None
            or self.hang_once is not None
        )

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Build a config from a ``key=value,key=value`` spec string."""
        if not isinstance(spec, str) or not spec.strip():
            raise ValidationError("chaos spec must be a non-empty string")
        known = {f.name: f for f in fields(cls)}
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValidationError(
                    f"chaos spec entry {part!r} is not key=value"
                )
            key, value = (token.strip() for token in part.split("=", 1))
            if key not in known:
                raise ValidationError(
                    f"unknown chaos spec key {key!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
            if key in ("crash_once", "hang_once"):
                kwargs[key] = value
            elif key == "seed":
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ=None) -> Optional["ChaosConfig"]:
        """The ``REPRO_CHAOS`` config, or None when unset/empty."""
        spec = (environ or os.environ).get(CHAOS_ENV, "").strip()
        if not spec:
            return None
        return cls.parse(spec)


class ChaosPlane:
    """Per-worker fault injector driven by a :class:`ChaosConfig`.

    Lives in the engine worker process; :meth:`inject` is called once
    per data-plane request, *before* the request is answered.  Returns
    True when the fault consumed the request (a corrupt frame was
    already sent in place of the reply) — the caller must then skip
    its own reply.  ``crash`` never returns; ``hang``/``slow`` return
    False after sleeping so the worker answers normally if it is still
    alive (the parent usually kills a hung worker mid-sleep).

    ``generation`` is the slot's respawn count: without it a seeded
    replacement worker would replay its predecessor's exact fault
    stream, turning one drawn hang into a deterministic hang-on-every-
    respawn loop.  Mixing the generation in keeps runs reproducible
    (same seed + same fault history => same draws) while giving each
    respawn a fresh stream.
    """

    def __init__(
        self, config: ChaosConfig, worker_index: int = 0, generation: int = 0
    ):
        self.config = config
        self.worker_index = int(worker_index)
        self.generation = int(generation)
        if config.seed is None:
            self._rng = random.Random()
        else:
            # String seeds hash through sha512: deterministic across
            # processes and platforms, and distinct per coordinate.
            self._rng = random.Random(
                f"{int(config.seed)}:{self.worker_index}:{self.generation}"
            )

    def draw(self) -> Optional[str]:
        """The fault kind for one request, or None (no fault).

        One-shot token faults take precedence: the first worker to
        atomically remove the token file claims the fault.
        """
        for kind, path in (
            ("crash", self.config.crash_once),
            ("hang", self.config.hang_once),
        ):
            if path and os.path.exists(path):
                try:
                    os.remove(path)
                except OSError:
                    continue  # a sibling worker claimed it first
                return kind
        u = self._rng.random()
        edge = 0.0
        for kind in _PROBABILITY_FIELDS:
            edge += float(getattr(self.config, kind))
            if u < edge:
                return kind
        return None

    def inject(self, conn) -> bool:
        """Apply one drawn fault at the pipe boundary (see class doc)."""
        fault = self.draw()
        if fault is None:
            return False
        if fault == "crash":
            os._exit(CHAOS_EXIT_CODE)
        if fault == "hang":
            time.sleep(float(self.config.hang_s))
            return False
        if fault == "slow":
            time.sleep(float(self.config.slow_ms) / 1000.0)
            return False
        # corrupt: poison the stream instead of replying
        conn.send(CORRUPT_FRAME)
        return True
