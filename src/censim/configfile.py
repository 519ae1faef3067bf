"""Plain-text key=value configuration files.

One `key=value` pair per line; blank lines and lines starting with `#` are
ignored; whitespace around keys and values is stripped.  Keys may not
repeat.  Values are strings until a typed accessor interprets them.  The
accessors record the keys they read, so a caller that has read all it
knows can reject the rest: a misspelt key fails instead of running the
default.
"""

from __future__ import annotations

from .errors import DataError

_MISSING = object()


class Config:
    def __init__(self, values: dict, source: str = "config"):
        self.values = dict(values)
        self.source = source
        self.read: set = set()

    @classmethod
    def from_file(cls, path) -> "Config":
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
                if key in values:
                    raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = value.strip()
        return cls(values, source=str(path))

    def has(self, key: str) -> bool:
        return key in self.values

    def text(self, key: str, default=_MISSING) -> str:
        self.read.add(key)
        if key in self.values:
            return self.values[key]
        if default is _MISSING:
            raise DataError(f"{self.source}: missing required key {key!r}")
        return default

    def integer(self, key: str, default=_MISSING) -> int:
        raw = self.text(key, default)
        if raw is default and key not in self.values:
            return default
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise DataError(f"{self.source}: {key}={raw!r} is not an integer") from None

    def floating(self, key: str, default=_MISSING) -> float:
        raw = self.text(key, default)
        if raw is default and key not in self.values:
            return default
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise DataError(f"{self.source}: {key}={raw!r} is not a number") from None

    def tokens(self, key: str, default=_MISSING) -> tuple:
        """Comma-separated list; empty value means an empty list."""
        raw = self.text(key, default)
        if not isinstance(raw, str):
            return raw
        if raw == "":
            return ()
        return tuple(tok.strip() for tok in raw.split(","))

    def numbers(self, key: str) -> tuple:
        try:
            return tuple(float(t) for t in self.tokens(key))
        except ValueError:
            raise DataError(f"{self.source}: {key} must be a list of numbers") from None

    def reject_unread(self) -> None:
        """Raise a DataError naming every key no accessor has read."""
        unread = sorted(set(self.values) - self.read)
        if unread:
            raise DataError(f"{self.source}: unknown keys {unread}")
