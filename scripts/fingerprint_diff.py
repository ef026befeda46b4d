"""Compare two outputs of scripts/solver_fingerprint.py field by field.

    python3 scripts/fingerprint_diff.py OLD NEW

Lines are matched by what they describe (the instance and pass, the
generate preset, the kinematics or graph robot, the numpy line), not by position, so
a pass line that appears on one side only shows up as such.  A field is a
hash when both sides hold a 40-digit hex SHA-1; every other field (status,
iterations, passes, library versions, and a hash against null) is compared
as a value.  Each line whose non-hash fields differ, or that one side lacks,
is printed with both sides.  Lines that differ only in hashes are counted
and named with the hash fields that changed.  The exit status is 1 when any
non-hash field differs or a line is missing, and 0 otherwise.
"""

import json
import re
import sys

ID_FIELDS = ("instance", "pass", "generate", "kinematics", "graph")
SHA1 = re.compile(r"[0-9a-f]{40}")


def _is_hash(value) -> bool:
    return isinstance(value, str) and SHA1.fullmatch(value) is not None


def _key(line: dict) -> tuple:
    """What a line describes: its identifying values and which fields it has."""
    return tuple(line.get(f) for f in ID_FIELDS), tuple(sorted(line))


def _read(path: str) -> dict:
    with open(path) as f:
        lines = [json.loads(text) for text in f if text.strip()]
    return {_key(line): line for line in lines}


def _label(key: tuple) -> str:
    ids, fields = key
    named = [f"{f}={v}" for f, v in zip(ID_FIELDS, ids) if v is not None]
    return " ".join(named) or ",".join(fields)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: fingerprint_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (_read(path) for path in argv)
    differing, hash_only = 0, []
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            differing += 1
            print(f"only in {'NEW' if a is None else 'OLD'}: {json.dumps(a or b)}")
            continue
        changed = [f for f in a if a[f] != b[f]]
        hashes = [f for f in changed if _is_hash(a[f]) and _is_hash(b[f])]
        if len(hashes) < len(changed):
            differing += 1
            print(f"OLD: {json.dumps(a)}\nNEW: {json.dumps(b)}")
        elif hashes:
            hash_only.append(f"{_label(key)}: {', '.join(hashes)}")
    print(f"{differing} lines differ beyond their hashes; "
          f"{len(hash_only)} of {len(old)} differ in hashes only")
    for entry in hash_only:
        print(f"  {entry}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
