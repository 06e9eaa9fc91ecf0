#!/usr/bin/env python3
"""Lint the library interfaces for values that no other module names.

Every `val` declared in `lib/**/*.mli`, nested signatures included, must
be named as a whole identifier in at least one `.ml`/`.mli` file outside
its own module (the `.ml`/`.mli` pair it is declared in). The search
covers lib, bin, bench, examples, test, perfbench and tools, so tests and
the benchmark count as users. A value only its own module uses belongs
out of the interface; a value nothing uses belongs out of the tree.

The match is by name only, over the whole text: a different value with
the same name, or a mention in a comment, counts as a user. That can
only over-count users, so the check never flags a value that is in use.

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


def skip_string(text, i):
    """Index just past the string literal that starts at text[i] == '"'."""
    i += 1
    while i < len(text) and text[i] != '"':
        i += 2 if text[i] == "\\" else 1
    return i + 1


def strip_comments(text):
    """Blank out (nested) comments, keeping their newlines."""
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif text[i] == '"':
            j = skip_string(text, i)
            out.append(text[i:j] if depth == 0 else "\n" * text.count("\n", i, j))
            i = j
        else:
            if depth == 0 or text[i] == "\n":
                out.append(text[i])
            i += 1
    return "".join(out)


def declarations(rel, text):
    """(line, qualified name, name) for every `val` in an interface."""
    code = strip_comments(text)
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
            IDENT.findall(text)
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
