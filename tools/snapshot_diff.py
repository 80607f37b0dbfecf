"""Compare two ``cli_snapshot.py`` outputs case by case.

    python tools/snapshot_diff.py A.json B.json

Prints the cases that differ, and for each whether its exit code, its
standard error or the text of its standard output changed, or only numbers
in that output moved.  A moved number is named by its place: the JSON path
(``value[0]``, ``rows[2].value[1]``) when the output is one JSON document,
else its line and, for CSV, its column.  For each case the largest absolute
move is given with its field, and the last line gives the largest over all
cases.  The strings "NaN", "Infinity" and "-Infinity" count as numbers.
Exits 0 when every case is identical, 1 otherwise.
"""

import json
import math
import re
import sys

NUMBER = re.compile(r'"(?:NaN|-?Infinity)"|(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])')
SPECIAL = ("NaN", "Infinity", "-Infinity")


def _json_fields(doc, path, skeleton, numbers):
    """Walk a JSON document: numbers go to ``numbers`` by path, the rest to ``skeleton``."""
    if isinstance(doc, dict):
        skeleton.append((path, "{}", tuple(doc)))
        for k, v in doc.items():
            _json_fields(v, f"{path}.{k}" if path else k, skeleton, numbers)
    elif isinstance(doc, list):
        skeleton.append((path, "[]", len(doc)))
        for i, v in enumerate(doc):
            _json_fields(v, f"{path}[{i}]", skeleton, numbers)
    elif (isinstance(doc, (int, float)) and not isinstance(doc, bool)) or doc in SPECIAL:
        numbers.append((path, float(doc)))
    else:
        skeleton.append((path, "leaf", doc))


def fields(text: str):
    """(skeleton, [(field, value)]) of one standard output.

    Two outputs whose skeletons are equal differ at most in their numbers.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, (dict, list)):
        skeleton, numbers = [], []
        _json_fields(doc, "", skeleton, numbers)
        return skeleton, numbers
    lines = text.split("\n")
    header = lines[0].split(",") if "," in lines[0] else None
    skeleton, numbers = [], []
    for i, line in enumerate(lines):
        if line.startswith(("{", "[")):  # a JSON line, such as a file after a summary
            sub_skeleton, sub_numbers = fields(line)
            skeleton.append(sub_skeleton)
            numbers += [(f"line {i + 1} {f}", v) for f, v in sub_numbers]
            continue
        skeleton.append(NUMBER.sub("#", line))
        cells = line.split(",")
        for j, cell in enumerate(cells):
            column = f" {header[j]}" if header and len(cells) == len(header) else ""
            for k, tok in enumerate(NUMBER.findall(cell)):
                numbers.append((f"line {i + 1}{column}" + (f" #{k}" if k else ""), float(tok.strip('"'))))
    return skeleton, numbers


def move(a: float, b: float) -> float:
    """|b - a|, 0 where both are the same non-finite value, inf where only one is."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare(a: dict, b: dict) -> list[str]:
    """Report lines for the cases of ``a`` and ``b``; empty when they agree."""
    out = []
    for name in [n for n in a if n not in b] + [n for n in b if n not in a]:
        out.append(f"{name}: only in {'A' if name in a else 'B'}")
    worst = (0.0, "", "")
    for name in [n for n in a if n in b and a[n] != b[n]]:
        (code_a, text_a, err_a), (code_b, text_b, err_b) = a[name], b[name]
        notes = []
        if code_a != code_b:
            notes.append(f"exit code {code_a} -> {code_b}")
        if err_a != err_b:
            notes.append("stderr changed")
        if text_a != text_b:
            (skel_a, nums_a), (skel_b, nums_b) = fields(text_a), fields(text_b)
            if skel_a != skel_b or [f for f, _ in nums_a] != [f for f, _ in nums_b]:
                notes.append("stdout text changed")
            else:
                moved = [(move(x, y), f) for (f, x), (_, y) in zip(nums_a, nums_b) if x != y]
                big, field = max(moved, default=(0.0, ""))
                notes.append(f"{len(moved)} numeric fields moved, largest {big:.3g} ({field})")
                worst = max(worst, (big, name, field))
        out.append(f"{name}: " + "; ".join(notes))
    if out:
        differ = sum(1 for n in a if n in b and a[n] != b[n])
        out.append(f"{differ} of {len(a)} cases differ; largest numeric move "
                   f"{worst[0]:.3g} ({worst[1]}: {worst[2]})")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
        report = compare(json.load(fa), json.load(fb))
    print("\n".join(report) if report else "identical")
    sys.exit(1 if report else 0)
