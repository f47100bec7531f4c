#!/usr/bin/env python3
"""List the public items of crates/*/src that nothing calls.

    python3 scripts/api_audit.py

An item is every `pub fn`, `pub const fn`, `pub const` and `pub static` in
the non-test code of crates/*/src: each file up to its `#[cfg(test)]`
module, which clippy's `items_after_test_module` keeps last. Its callers
are searched by name in the non-test code of crates/*/src (the crates' own
bins included), benchmark/src, examples/ and harness/. Definitions, `use`
lines and comments do not count as calls, and neither do tests: an item
only a test reaches is dead API.

The audit is by name, so it errs towards "called": a method that shares its
name with a called one is not listed. Whatever it does list has no caller.

Each listed item must appear in scripts/api_allow.txt with a reason:

    <path> <item> — (a) <test_fn>: <why>     a named test (or the test
                                             helper it calls) reads it to
                                             check behaviour that stays
    <path> <item> — (b) README|DESIGN: <why> that document offers it to users

Exits 1 on a listed item missing from the allow-list, on an allow-list
entry that is stale (the item has a caller now, or is gone), and on an
entry whose ground does not hold: the named test does not mention the item,
or the named document does not. Standard library only.
"""

import collections
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "api_allow.txt"

TEST_MOD = re.compile(r"^#\[cfg\(test\)\]\s*$", re.M)
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
USE = re.compile(r"\buse\s+[^;]*;", re.S)
IDENT = re.compile(r"\b[A-Za-z_]\w*\b")
# Every definition site, public or not: a same-named definition is not a call.
ANY_DEF = re.compile(r"\bfn\s+([A-Za-z_]\w*)|\b(?:const|static(?:\s+mut)?)\s+([A-Za-z_]\w*)\s*:")
PUB_DEF = re.compile(
    r"^[ \t]*pub[ \t]+(?:"
    r"(?:const[ \t]+)?(?:unsafe[ \t]+)?fn[ \t]+(?P<fn>[A-Za-z_]\w*)"
    r"|const[ \t]+(?P<const>[A-Za-z_]\w*)[ \t]*:"
    r"|static[ \t]+(?:mut[ \t]+)?(?P<static>[A-Za-z_]\w*)[ \t]*:)",
    re.M,
)
ALLOW_LINE = re.compile(r"^(\S+)\s+(\w+)\s+—\s+\((a|b)\)\s+(\w+):\s*\S.*$")


def non_test(text):
    """The code above the file's `#[cfg(test)]` module."""
    m = TEST_MOD.search(text)
    return text[: m.start()] if m else text


def rust_files(*dirs):
    for d in dirs:
        yield from sorted((ROOT / d).rglob("*.rs"))


def rel(path):
    return path.relative_to(ROOT).as_posix()


def callers_by_name():
    """Identifier counts over the caller corpus, definition sites excluded."""
    uses = collections.Counter()
    for path in rust_files("crates", "benchmark/src", "examples", "harness/src"):
        parts = path.relative_to(ROOT).parts
        if parts[0] == "crates" and parts[2] != "src":
            continue  # crates/*/tests: test code
        code = USE.sub(" ", COMMENT.sub(" ", non_test(path.read_text())))
        uses.update(IDENT.findall(code))
        for m in ANY_DEF.finditer(code):
            uses[m.group(1) or m.group(2)] -= 1
    return uses


def public_items():
    """(path, line, name) of every public item in crates/*/src."""
    items = []
    for path in rust_files("crates"):
        parts = path.relative_to(ROOT).parts
        if parts[2] != "src" or "bin" in parts[3:-1]:
            continue
        code = non_test(path.read_text())
        for m in PUB_DEF.finditer(code):
            name = m.group("fn") or m.group("const") or m.group("static")
            items.append((rel(path), code.count("\n", 0, m.start()) + 1, name))
    return items


def test_code():
    """Every test's source: crates/*/tests, tests/ and the `#[cfg(test)]` modules."""
    out = []
    for path in rust_files("crates", "tests"):
        text = path.read_text()
        parts = path.relative_to(ROOT).parts
        if parts[0] == "crates" and parts[2] == "src":
            m = TEST_MOD.search(text)
            text = text[m.start() :] if m else ""
        out.append(text)
    return "\n".join(out)


def fn_body(code, name):
    """The text of `fn name`'s body (brace-matched), or None."""
    m = re.search(r"\bfn\s+" + re.escape(name) + r"\b[^{;]*\{", code)
    if not m:
        return None
    depth, i = 1, m.end()
    while depth and i < len(code):
        depth += {"{": 1, "}": -1}.get(code[i], 0)
        i += 1
    return code[m.start() : i]


def main():
    uses = callers_by_name()
    items = public_items()
    dead = {(p, n): line for p, line, n in items if uses[n] <= 0}
    existing = {(p, n) for p, _, n in items}
    tests = test_code()
    docs = {d: (ROOT / f"{d}.md").read_text() for d in ("README", "DESIGN")}

    errors = []
    allowed = set()
    lines = ALLOW.read_text().splitlines() if ALLOW.exists() else []
    for no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{rel(ALLOW)}:{no}"
        m = ALLOW_LINE.match(line)
        if not m:
            errors.append(f"{where}: not `path item — (a|b) <test_fn|README|DESIGN>: reason`")
            continue
        path, name, ground, witness = m.groups()
        allowed.add((path, name))
        if (path, name) not in existing:
            errors.append(f"{where}: stale: no `pub` {name} in {path}")
        elif (path, name) not in dead:
            errors.append(f"{where}: stale: {name} has a caller now")
        elif ground == "a":
            body = fn_body(tests, witness)
            if body is None:
                errors.append(f"{where}: no test fn {witness}")
            elif not re.search(r"\b" + name + r"\b", body):
                errors.append(f"{where}: test {witness} does not read {name}")
        elif witness not in docs:
            errors.append(f"{where}: ground (b) names README or DESIGN, not {witness}")
        elif not re.search(r"\b" + name + r"\b", docs[witness]):
            errors.append(f"{where}: {witness}.md does not mention {name}")

    unlisted = sorted((p, line, n) for (p, n), line in dead.items() if (p, n) not in allowed)
    for p, line, n in unlisted:
        errors.append(f"{p}:{line}: pub {n} has no caller outside tests")

    for e in errors:
        print(e)
    print(
        f"api audit: {len(dead)} caller-less pub items, {len(allowed)} allowed, "
        f"{len(unlisted)} unlisted, {len(errors)} errors"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
