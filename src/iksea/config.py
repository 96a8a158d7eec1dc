"""Run configuration: flat line-oriented key-value files with sections.

Grammar (INI-style, parsed with the stdlib configparser):

    # comment (';' also works)
    [section]
    key = value

* values are bare strings; numbers use C locale ('.' decimal point)
* lists are whitespace-separated and non-empty, e.g. ``n_values = 1024 2048``
* booleans: true/false, yes/no, on/off or 1/0 in any case (BOOLEAN_STATES)
* section and key names are case-sensitive and lower-case by convention

Every run file needs a ``[run]`` section with at least ``command``; the
remaining sections depend on the command (see README).  A parsed config
keeps the text it was read from, comments included, as ``RunConfig.text``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import ConfigError

__all__ = ["RunConfig", "COMMANDS"]

COMMANDS = ("ground-qfi", "dyn-qfi", "sweep", "fit", "oracle-check", "phase")

#: the keys each section may hold
_KEYS = {
    "run": "command seed prefix",
    "model": "h gamma k_ksea n_sites",
    "grid": "n_values h_values",
    "times": "values start stop count spacing",
    "sweep": "variable n_values dh_values kappa_values anchor",
    "fit": "input x_column y_column window_lo window_hi",
    "oracle": "sizes points include_dynamics corrupt_scale",
}


def _parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";"),
        inline_comment_prefixes=None, strict=True)
    cp.optionxform = str  # keep key case
    return cp


_MISSING = object()


def _getter(parse, what: str):
    """Typed accessor get(section, key, default) that parses with `parse`.

    An absent key gives `default`, or a ConfigError when none is passed; a
    stripped value that `parse` rejects with ValueError or KeyError raises
    ConfigError("[section] key = 'raw' is not <what>"), and an empty list
    raises ConfigError("[section] key is empty").
    """
    def get(self, section: str, key: str, default=_MISSING):
        sec = self.sections.get(section, {})
        if key not in sec:
            if default is _MISSING:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = sec[key]
        try:
            value = parse(raw.strip())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}") from exc
        if value == []:
            raise ConfigError(f"[{section}] {key} is empty")
        return value
    return get


def _list_of(parse):
    """Parser of a whitespace-separated list of parse(token) values."""
    return lambda raw: [parse(tok) for tok in raw.split()]


@dataclass
class RunConfig:
    """Parsed run configuration plus typed accessors."""

    command: str
    sections: Dict[str, Dict[str, str]]
    path: Optional[str] = None
    seed: int = 0
    prefix: str = "run"
    text: str = field(default="", repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, path: Optional[str] = None) -> "RunConfig":
        cp = _parser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}") from exc
        sections = {s: dict(cp.items(s)) for s in cp.sections()}
        for section, kv in sections.items():
            for key in kv:
                if key not in _KEYS.get(section, "").split():
                    raise ConfigError(f"[{section}] {key} is not a known key")
        if "run" not in sections:
            raise ConfigError("config needs a [run] section")
        run = sections["run"]
        command = run.get("command", "").strip()
        if command not in COMMANDS:
            raise ConfigError(
                f"[run] command must be one of {', '.join(COMMANDS)}; "
                f"got {command!r}")
        cfg = cls(command=command, sections=sections, path=path, text=text)
        cfg.seed = cfg.get_int("run", "seed", default=0)
        if cfg.seed < 0:
            raise ConfigError("[run] seed must be a non-negative integer")
        cfg.prefix = run.get("prefix", command.replace("-", "_")).strip()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_text(text, path=path)

    # -- typed accessors ----------------------------------------------------

    get_str = _getter(str, "a string")
    get_float = _getter(float, "a number")
    get_int = _getter(int, "an integer")
    get_bool = _getter(lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
                       "a boolean")
    get_floats = _getter(_list_of(float), "a list of numbers")
    get_ints = _getter(_list_of(int), "a list of integers")
