"""Deterministic report construction and serialization.

Reports are nested dicts of JSON-safe values (profiles become lists,
exact scalars become strings); serialization sorts keys so repeated runs
are byte-identical and golden-file tests stay stable.  Report.to_json
writes in one pass the bytes of json.dumps(data, sort_keys=True,
indent=2) + "\n", which with an indent runs json's pure-Python encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .hochschild import HHProfile


def jsonable(value):
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return {_key(k): jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [jsonable(v) for v in value]
    if isinstance(value, HHProfile):
        out = {"dims": list(value.dims), "certified_through": value.bound}
        if value.note:
            out["note"] = value.note
        return out
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _key(k):
    if type(k) is str:
        return k
    if isinstance(k, (tuple, list)):
        return ",".join(str(x) for x in k)
    return str(k)


class Report:
    """Command echo + algebra summary + results + named checks."""

    def __init__(self, command):
        self.data = {"command": command, "checks": []}
        self.format_hint = "table"

    def set(self, key, value):
        self.data[key] = jsonable(value)

    def check(self, name, passed, details=None):
        entry = {"name": name, "passed": bool(passed)}
        if details is not None:
            entry["details"] = jsonable(details)
        self.data["checks"].append(entry)
        return bool(passed)

    def all_passed(self):
        return all(c["passed"] for c in self.data["checks"])

    def to_json(self) -> str:
        out = []
        _write(self.data, out, "\n")
        out.append("\n")
        return "".join(out)

    def to_table(self) -> str:
        lines = [f"command: {self.data['command']}"]
        for key in sorted(self.data):
            if key in ("command", "checks"):
                continue
            lines.extend(_render(key, self.data[key], indent=0))
        if self.data["checks"]:
            lines.append("checks:")
            for c in self.data["checks"]:
                status = "ok" if c["passed"] else "FAIL"
                lines.append(f"  [{status}] {c['name']}")
                if "details" in c and not c["passed"]:
                    lines.append(f"         {c['details']}")
        return "\n".join(lines) + "\n"


def _write(value, out, newline):
    """Append the json.dumps(value, sort_keys=True, indent=2) text of
    value to out, `newline` being "\n" and the indent of value's line: the
    encoder's type order (str, None, True, False, int, float, list or
    tuple, dict), its key conversion, and json.dumps itself for floats and
    for what it refuses."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key, item in sorted(value.items()):
            out.append(inner)
            out.append(_string(key if isinstance(key, str) else _key_text(key)))
            out.append(": ")
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "}"
    else:
        out.append(json.dumps(value))


def _key_text(key):
    """A non-string dict key as json writes it, before quoting."""
    if key is True or key is False or key is None or isinstance(
            key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{key.__class__.__name__}")


def _render(key, value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        if set(value) >= {"dims", "certified_through"}:
            return [pad + f"{key}: " + _profile_table(value)]
        lines = [pad + f"{key}:"]
        for k in sorted(value):
            lines.extend(_render(k, value[k], indent + 1))
        return lines
    if isinstance(value, list) and value and all(
            isinstance(x, dict) and set(x) >= {"dims"} for x in value):
        lines = [pad + f"{key}:"]
        for i, x in enumerate(value):
            lines.append(pad + f"  [{i}] " + _profile_table(x))
        return lines
    return [pad + f"{key}: {value}"]


def _profile_table(profile_dict) -> str:
    dims = profile_dict["dims"]
    head = " ".join(f"n={n}" for n in range(len(dims)))
    body = " ".join(f"{d:>{len(f'n={n}')}}" for n, d in enumerate(dims))
    note = f"  ({profile_dict['note']})" if profile_dict.get("note") else ""
    return f"[{head}] = [{body}]{note}"
