#!/usr/bin/env python3
"""Lint the library interfaces for values that no other module names.

Every `val` declared in `lib/**/*.mli`, nested signatures included, must
be named as a whole identifier in at least one `.ml`/`.mli` file outside
its own module (the `.ml`/`.mli` pair it is declared in). The search
covers lib, bin, bench, examples, test, perfbench and tools, so tests and
the benchmark count as users. A value only its own module uses belongs
out of the interface; a value nothing uses belongs out of the tree.

Names are collected from code only: comments, string literals (quoted
strings `{|...|}` and `{id|...|id}` included) and character literals
are blanked first, so a value named only in prose or in a message has
no user. Type variables (`'a`) and primes in names (`x'`) are code and
stay. The match is by name only: a different value with the same name
counts as a user. That can only over-count users, so the check never
flags a value that is in use.

Run from anywhere:  python3 tools/check_interfaces.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH_DIRS = ["lib", "bin", "bench", "examples", "test", "perfbench", "tools"]
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
SIGNATURE_TOKEN = re.compile(
    r"\b(?:module\s+type\s+([A-Z]\w*)\s*=\s*sig|module\s+([A-Z]\w*)\s*:\s*sig"
    r"|(sig|object)|(end)|val\s+([a-z_][A-Za-z0-9_']*))\b"
)

QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")
CHAR_LITERAL = re.compile(
    r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2}))'"
)


def blank(s):
    """s with every character but newlines turned into a space."""
    return re.sub(r"[^\n]", " ", s)


def literal_end(text, i):
    """Index just past the string, quoted-string or character literal
    that starts at text[i], or None if none starts there."""
    if text[i] == '"':
        i += 1
        while i < len(text) and text[i] != '"':
            i += 2 if text[i] == "\\" else 1
        return i + 1
    m = QUOTED_OPEN.match(text, i)
    if m:
        end = text.find("|" + m.group(1) + "}", m.end())
        return len(text) if end < 0 else end + len(m.group(1)) + 2
    # a quote after a name character is a prime in that name
    after_name = i and (text[i - 1].isalnum() or text[i - 1] in "_'")
    if text[i] == "'" and not after_name:
        m = CHAR_LITERAL.match(text, i)
        if m:
            return m.end()
    return None


def code_only(text):
    """Blank (nested) comments and every literal, keeping newlines.
    Literals inside a comment are skipped whole, as OCaml's lexer does,
    so a "*)" in one does not end the comment."""
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, j = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, j = depth - 1, i + 2
        else:
            j = literal_end(text, i)
            if j is None:
                out.append(text[i] if depth == 0 else blank(text[i]))
                i += 1
                continue
        out.append(blank(text[i:j]))
        i = j
    return "".join(out)


def declarations(rel, text):
    """(line, qualified name, name) for every `val` in an interface."""
    code = code_only(text)
    stack, found = [], []
    for m in SIGNATURE_TOKEN.finditer(code):
        if m.group(1) or m.group(2):
            stack.append(m.group(1) or m.group(2))
        elif m.group(3):
            stack.append(None)
        elif m.group(4):
            if stack:
                stack.pop()
        else:
            line = code.count("\n", 0, m.start()) + 1
            path = [rel.stem.capitalize()] + [s for s in stack if s]
            found.append((line, ".".join(path + [m.group(5)]), m.group(5)))
    return found


def main():
    sources = {}
    for d in SEARCH_DIRS:
        for path in sorted((ROOT / d).rglob("*")):
            rel = path.relative_to(ROOT)
            if path.suffix not in (".ml", ".mli"):
                continue
            if any(p.startswith((".", "_")) for p in rel.parts[:-1]):
                continue
            sources[rel] = path.read_text()

    # a module is its .ml/.mli pair: the path without the suffix
    names_by_module = {}
    for rel, text in sources.items():
        names_by_module.setdefault(rel.with_suffix(""), set()).update(
            IDENT.findall(code_only(text))
        )

    findings, checked = [], 0
    for rel, text in sorted(sources.items()):
        if rel.parts[0] != "lib" or rel.suffix != ".mli":
            continue
        own = rel.with_suffix("")
        for line, qualified, name in declarations(rel, text):
            checked += 1
            if not any(
                name in names
                for module, names in names_by_module.items()
                if module != own
            ):
                findings.append(
                    f"{rel}:{line}: {qualified} has no user outside its module"
                )

    print("\n".join(findings + [
        f"{len(findings)} findings ({checked} values declared in lib/**/*.mli)"
    ]))
    sys.exit(1 if findings else 0)


if __name__ == "__main__":
    main()
