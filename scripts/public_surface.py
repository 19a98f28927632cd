#!/usr/bin/env python3
"""Print the workspace's public surface, one sorted line per public item.

Reads the HTML that `cargo doc --workspace --no-deps` (the CI rustdoc gate)
leaves under target/doc and lists, for every `txstat*` crate:

- each entry of the crate's `all.html`, as `crate::path kind`, where kind is
  rustdoc's file prefix (`struct`, `enum`, `fn`, `constant`, `trait`, ...);
- each inherent method or associated const of a struct, enum or union, as
  `crate::path::Type::name method` (or `associatedconstant`). Only the
  inherent-impl section of the type's page is read: it runs from
  `id="implementations-list"` to the first trait, auto-trait or blanket
  implementation section, so `Clone::clone` or `Any::type_id` never count.

Only the links of `all.html` and `id=` anchors are parsed.

    cargo doc --workspace --no-deps --offline
    python3 scripts/public_surface.py > PUBLIC_SURFACE.txt

An optional argument names another doc directory (default: target/doc at the
repository root).
"""

import re
import sys
from pathlib import Path

ALL_ITEMS = re.compile(r'<ul class="all-items">(.*?)</ul>', re.S)
ITEM_LINK = re.compile(r'<li><a href="([^"]+)">([^<]+)</a></li>')
TYPE_KINDS = ("struct", "enum", "union")
INHERENT_START = 'id="implementations-list"'
INHERENT_ENDS = (
    'id="trait-implementations"',
    'id="synthetic-implementations"',
    'id="blanket-implementations"',
)
MEMBER_ANCHOR = re.compile(r'id="(method|associatedconstant)\.(\w+)(?:-\d+)?"')


def inherent_members(page):
    """The (kind, name) of every inherent method and associated const on a type page."""
    html = page.read_text(encoding="utf-8")
    start = html.find(INHERENT_START)
    if start < 0:
        return []
    ends = [i for i in (html.find(end, start) for end in INHERENT_ENDS) if i >= 0]
    section = html[start:min(ends, default=len(html))]
    return [(m.group(1), m.group(2)) for m in MEMBER_ANCHOR.finditer(section)]


def crate_surface(crate_dir):
    lines = []
    html = (crate_dir / "all.html").read_text(encoding="utf-8")
    for block in ALL_ITEMS.findall(html):
        for href, path in ITEM_LINK.findall(block):
            kind = Path(href).name.split(".", 1)[0]
            item = f"{crate_dir.name}::{path}"
            lines.append(f"{item} {kind}")
            if kind in TYPE_KINDS:
                for member_kind, name in inherent_members(crate_dir / href):
                    lines.append(f"{item}::{name} {member_kind}")
    return lines


def main():
    root = Path(__file__).resolve().parent.parent
    doc = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "target" / "doc"
    crates = sorted(d for d in doc.glob("txstat*") if (d / "all.html").is_file())
    if not crates:
        sys.exit(f"no txstat*/all.html under {doc}: run `cargo doc --workspace --no-deps` first")
    lines = sorted(line for crate in crates for line in crate_surface(crate))
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
