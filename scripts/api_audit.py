#!/usr/bin/env python3
"""List the public items of crates/*/src that nothing calls.

    python3 scripts/api_audit.py

Items live in the non-test code of crates/*/src: each file up to its
`#[cfg(test)]` module, which clippy's `items_after_test_module` keeps last.
Their users are searched by name in the non-test code of crates/*/src (the
crates' own bins included), benchmark/src, examples/ and harness/. Comments
and `use` lines are not uses, and neither are tests: an item only a test
reaches is dead API. Two passes:

* fns: every `pub fn`, `pub const fn`, `pub const` and `pub static`.
  Definition sites of the same name are not calls.
* types: every `pub struct`, `pub enum`, `pub trait` and `pub type`. Not
  uses: a definition of that name, an `impl` block whose header names it,
  a path segment after a capitalised one (`QueueDisc::Pifo` is a variant,
  not the type `Pifo`), an enum variant declared with the same spelling,
  and string literals. A type listed and not allowed is then taken out of
  the corpus with its impl blocks, and the pass repeats until nothing new
  is listed, so what only a dead type used is listed too.

The audit is by name, so it errs towards "used": an item that shares its
name with a used one is not listed. Whatever it does list has no user.

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
PUB_TYPE = re.compile(r"^[ \t]*pub[ \t]+(?:struct|enum|trait|type)[ \t]+([A-Za-z_]\w*)", re.M)
# Comments and string / char literals, blanked before the type pass scans
# identifiers and braces (a lifetime `'a` is not a char literal).
NOISE = re.compile(r"//[^\n]*|/\*.*?\*/|\bb?r(#*)\".*?\"\1|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])'", re.S)
TYPE_DEF = re.compile(r"\b(?:struct|enum|trait|type|union)\s+([A-Za-z_]\w*)")
# An impl item, not `impl Trait` in argument or return position.
IMPL = re.compile(r"^[ \t]*(?:unsafe[ \t]+)?impl\b", re.M)
# The segment after a capitalised one: `Enum::Variant`, `Self::Variant`.
AFTER_TYPE_PATH = re.compile(r"(?=\b[A-Z]\w*\s*::\s*([A-Za-z_]\w*))")
ANGLES = re.compile(r"<[^<>]*>")
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


def blank(text):
    """`text` with comments and literals replaced by spaces (offsets kept)."""
    return NOISE.sub(lambda m: re.sub(r"\S", " ", m.group(0)), text)


def block_end(code, i):
    """End of the item starting at `i`: its `;`, or its brace-matched body."""
    while i < len(code) and code[i] not in ";{":
        i += 1
    if i == len(code) or code[i] == ";":
        return i + 1
    depth = 0
    while i < len(code):
        depth += {"{": 1, "}": -1}.get(code[i], 0)
        i += 1
        if depth == 0:
            break
    return i


def variant_names(code, start, end):
    """Offsets of the variant names declared in the enum at code[start:end]."""
    i = code.index("{", start) + 1
    depth, expect, out = 0, True, []
    while i < end - 1:
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0 and c == ",":
            expect = True
        elif depth == 0 and expect and (c.isalpha() or c == "_"):
            out.append(i)
            expect = False
        i += 1
    return out


def impl_subjects(header):
    """The trait and type an `impl` header is for, without generics or bounds:
    `<P: PisaProgram> Switch<Adapter<P>>` is an impl of `Switch` alone."""
    header = re.split(r"\bwhere\b", header.replace("->", "  "))[0]
    while ANGLES.search(header):
        header = ANGLES.sub(" ", header)
    return set(IDENT.findall(header))


class Corpus:
    """The caller corpus, indexed for the type pass."""

    def __init__(self):
        self.files = []
        self.where = collections.defaultdict(list)  # name -> [(file, offset)]
        for path in rust_files("crates", "benchmark/src", "examples", "harness/src"):
            parts = path.relative_to(ROOT).parts
            if parts[0] == "crates" and parts[2] != "src":
                continue
            code = USE.sub(lambda m: " " * len(m.group(0)), blank(non_test(path.read_text())))
            f = len(self.files)
            spans = collections.defaultdict(list)  # name -> spans that are not its uses
            skip = set()
            for m in TYPE_DEF.finditer(code):
                end = block_end(code, m.end())
                spans[m.group(1)].append((m.start(), end))
                if code.startswith("enum", m.start()):
                    skip.update(variant_names(code, m.end(), end))
            for m in IMPL.finditer(code):
                body = code.find("{", m.end())
                if body < 0:
                    continue
                span = (m.start(), block_end(code, body))
                for name in impl_subjects(code[m.end() : body]):
                    spans[name].append(span)
            skip.update(m.start(1) for m in AFTER_TYPE_PATH.finditer(code))
            self.files.append(spans)
            for m in IDENT.finditer(code):
                if m.start() not in skip:
                    self.where[m.group()].append((f, m.start()))
        self.gone = [[] for _ in self.files]  # spans of types found dead

    def used(self, name):
        def inside(pos, spans):
            return any(a <= pos < b for a, b in spans)

        return any(
            not inside(pos, self.files[f].get(name, ())) and not inside(pos, self.gone[f])
            for f, pos in self.where[name]
        )

    def drop(self, name):
        """Takes `name`'s definitions and impl blocks out of the corpus."""
        for f, spans in enumerate(self.files):
            self.gone[f].extend(spans.get(name, ()))


def public_types():
    """(path, line, name) of every public struct / enum / trait / type."""
    items = []
    for path in rust_files("crates"):
        parts = path.relative_to(ROOT).parts
        if parts[2] != "src" or "bin" in parts[3:-1]:
            continue
        code = non_test(path.read_text())
        for m in PUB_TYPE.finditer(code):
            items.append((rel(path), code.count("\n", 0, m.start()) + 1, m.group(1)))
    return items


def dead_types(items, allowed):
    """{(path, name): line} of the types with no user, to a fixed point."""
    corpus = Corpus()
    dead = {}
    while True:
        new = {(p, n): line for p, line, n in items if (p, n) not in dead and not corpus.used(n)}
        if not new:
            return dead
        dead.update(new)
        for p, n in new:
            if (p, n) not in allowed:
                corpus.drop(n)


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
    errors = []
    entries = []
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
        entries.append((where, *m.groups()))
    allowed = {(path, name) for _, path, name, _, _ in entries}

    uses = callers_by_name()
    items = public_items()
    dead = {(p, n): line for p, line, n in items if uses[n] <= 0}
    types = public_types()
    dead_ty = dead_types(types, allowed)
    dead.update(dead_ty)
    existing = {(p, n) for p, _, n in items + types}
    tests = test_code()
    docs = {d: (ROOT / f"{d}.md").read_text() for d in ("README", "DESIGN")}

    for where, path, name, ground, witness in entries:
        if (path, name) not in existing:
            errors.append(f"{where}: stale: no `pub` {name} in {path}")
        elif (path, name) not in dead:
            errors.append(f"{where}: stale: {name} is used now")
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
        what = "user" if (p, n) in dead_ty else "caller"
        errors.append(f"{p}:{line}: pub {n} has no {what} outside tests")

    for e in errors:
        print(e)
    print(
        f"api audit: {len(dead) - len(dead_ty)} caller-less pub fns, {len(dead_ty)} user-less "
        f"pub types, {len(allowed)} allowed, {len(unlisted)} unlisted, {len(errors)} errors"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
