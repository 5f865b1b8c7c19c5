"""Flat ``section.key = value`` configuration files (see CONFIG.md for all keys).

Precedence everywhere in the CLI: command-line flag, then config file, then
built-in default.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if "." not in key or not key:
            raise ConfigError(f"line {lineno}: key must be 'section.key', got {key!r}")
        cfg[key] = value.strip()
    return cfg


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text())


def resolve(flag_value, cfg: dict[str, str], key: str, default):
    """Apply precedence: explicit flag > config file entry > default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def get_float(cfg: dict[str, str], key: str, default: float) -> float:
    try:
        return float(cfg.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"{key} is not a number: {cfg[key]!r}") from exc


def get_int(cfg: dict[str, str], key: str, default: int) -> int:
    try:
        return int(float(cfg.get(key, default)))
    except (ValueError, OverflowError) as exc:     # int(float("inf")) overflows
        raise ConfigError(f"{key} is not an integer: {cfg[key]!r}") from exc
