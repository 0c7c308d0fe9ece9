"""One operation of a workload: a single public call into the library, and
how its output is summarized and checked."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union


def digest(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha1(data).hexdigest()[:20]


class Failed(Exception):
    """A documented failure that is not a library exception, such as a
    command-line run that exits with a non-zero status."""


@dataclass(eq=False)
class Query:
    """One call; `key` names its golden output, `verify` checks it against a
    reference (returning a problem, or None), `counters` reads work counts
    from the output."""

    layer: str
    call: Callable[[], Any]
    key: Optional[str] = None
    summarize: Callable[[Any], str] = lambda out: "ok"
    verify: Optional[Callable[[Any], Optional[str]]] = None
    counters: Optional[Callable[[Any], dict]] = None
    out: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def summary(self) -> str:
        if isinstance(self.error, Failed):
            return f"error:{self.error}"
        if self.error is not None:
            return "error:" + type(self.error).__name__
        return self.summarize(self.out)
