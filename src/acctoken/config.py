"""Flat key=value config files for gas schedules, rent parameters and faults.

Format: one ``section.key = value`` pair per line, each key at most once,
``#`` comments, blank lines ignored. ``dump_defaults()`` emits every knob
with its default so a dumped file round-trips losslessly.
"""

from dataclasses import fields

from .gas import GasSchedule, RentParams
from .storage import FaultPolicy


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if target_type is int:
        return int(raw, 0)
    if target_type is float:
        return float(raw)
    return raw


def parse_config(text: str) -> dict[str, str]:
    """The file's ``key = value`` pairs; a key given on a second line, or
    outside every section, is an error, not an override or a no-op."""
    sections = {section for section, _heading in _SECTIONS.values()}
    pairs, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key.partition(".")[0] not in sections:
            raise ValueError(f"line {lineno}: unknown key {key!r}, not in a section of {', '.join(sorted(sections))}")
        if key in lines:
            raise ValueError(f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        pairs[key] = value.strip()
    return pairs


#: each config section's class, key prefix and heading, in dump order
_SECTIONS = {
    GasSchedule: ("schedule", "gas schedule"),
    RentParams: ("rent", "storage rent"),
    FaultPolicy: ("storage", "storage network fault policy"),
}


def _build(cls, pairs: dict[str, str]):
    section = _SECTIONS[cls][0]
    defaults = cls()
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, raw in pairs.items():
        if not key.startswith(section + "."):
            continue
        name = key[len(section) + 1 :]
        if name not in names:
            raise ValueError(f"unknown {section} option {name!r}")
        kwargs[name] = _parse_value(raw, type(getattr(defaults, name)))
    return cls(**kwargs)


def schedule_from_config(pairs: dict[str, str]) -> GasSchedule:
    return _build(GasSchedule, pairs)


def rent_from_config(pairs: dict[str, str]) -> RentParams:
    return _build(RentParams, pairs)


def fault_from_config(pairs: dict[str, str]) -> FaultPolicy:
    return _build(FaultPolicy, pairs)


def dump_defaults() -> str:
    blocks = []
    for cls, (section, heading) in _SECTIONS.items():
        defaults = cls()
        lines = [f"# {heading}"]
        lines.extend(f"{section}.{f.name} = {_format_value(getattr(defaults, f.name))}" for f in fields(cls))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
