#!/usr/bin/env python3
"""Builds the benchmark and runs it with the given arguments.

From the root of a checkout:

    python3 perfbench/run.py --workload edit_to_event --seed 1 --seconds 30 --trace 0

The program's speed depends on its code layout. Built in place, the
crates are path dependencies outside this package's workspace, so cargo
hashes their absolute paths into symbol names and codegen-unit splits,
and compiles the absolute paths into the binary. The same sources in
two checkouts then give two binaries whose JSON parse, and with it
`edit_to_event` and every set-up, differ by up to 1.6 times.

So this script mirrors the sources the build reads into
`.perfbench/tree/`, as the repository's workspace with this package
added as a member. There every path is relative to the workspace root,
and the same sources give the same binary in any checkout. Files are
copied only when they changed, with their modification times, so cargo
rebuilds only what changed. The build goes to `CARGO_TARGET_DIR` when
it is set, else to `.perfbench/tree/target/`. Then the script replaces
itself with the benchmark binary, which writes its run records under
`.perfbench/`.
"""

import os
import re
import shutil
import subprocess
import sys

TREE = os.path.join(".perfbench", "tree")
PACKAGE = "powerplay-perfbench"
# What the build reads: the workspace manifest, the crates, the vendored
# stand-ins, the suite's own sources (a workspace member), the paper's
# designs the benchmark compiles in, and this package.
SOURCES = ["Cargo.toml", "crates", "vendor", "src", "examples/designs", "perfbench"]
# Build outputs inside the source directories, never mirrored.
SKIP_DIRS = {"target", ".perfbench", ".bench_build"}
# Mirrored rewritten, not copied.
REWRITTEN = {"Cargo.toml", os.path.join("perfbench", "Cargo.toml")}


def source_files():
    """Relative paths of every file under SOURCES."""
    for top in SOURCES:
        if os.path.isfile(top):
            yield top
            continue
        if not os.path.isdir(top):
            raise SystemExit(f"perfbench: `{top}` is missing; run from the root of a checkout")
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            for name in sorted(filenames):
                yield os.path.join(dirpath, name)


def write_if_changed(path, text):
    try:
        with open(path, encoding="utf-8") as f:
            if f.read() == text:
                return
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def mirror():
    """Brings TREE up to date with the checkout's sources."""
    wanted = set()
    for rel in source_files():
        wanted.add(rel)
        if rel in REWRITTEN:
            continue
        src, dst = rel, os.path.join(TREE, rel)
        s = os.stat(src)
        try:
            d = os.stat(dst)
            if (d.st_size, d.st_mtime_ns) == (s.st_size, s.st_mtime_ns):
                continue
        except FileNotFoundError:
            pass
        os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
        shutil.copy2(src, dst)
    # Files the checkout no longer has, and directories left empty (an
    # empty crate directory would still match a `crates/*` member glob).
    for top in SOURCES:
        base = os.path.join(TREE, top)
        if os.path.isfile(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base, topdown=False):
            if any(part in SKIP_DIRS for part in os.path.relpath(dirpath, TREE).split(os.sep)):
                continue
            for name in filenames:
                path = os.path.join(dirpath, name)
                if os.path.relpath(path, TREE) not in wanted:
                    os.remove(path)
            if not os.listdir(dirpath):
                os.rmdir(dirpath)

    # The mirrored manifests, rewritten: this package joins the
    # repository's workspace instead of being a workspace of its own.
    # The originals stay untouched.
    with open("Cargo.toml", encoding="utf-8") as f:
        root = f.read()
    root, n = re.subn(r"^members\s*=\s*\[", 'members = ["perfbench", ', root, count=1, flags=re.M)
    if n != 1:
        raise SystemExit("perfbench: no `members = [` in the workspace's Cargo.toml")
    write_if_changed(os.path.join(TREE, "Cargo.toml"), root)
    with open(os.path.join("perfbench", "Cargo.toml"), encoding="utf-8") as f:
        own = f.read()
    own = re.sub(r"^\[workspace\]\s*$", "", own, flags=re.M)
    write_if_changed(os.path.join(TREE, "perfbench", "Cargo.toml"), own)


def git_rev():
    """The checkout's git revision, or `none` outside a git work tree."""
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    mirror()
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--quiet", "--offline",
            "--manifest-path", os.path.join(TREE, "Cargo.toml"),
            "-p", PACKAGE,
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(TREE, "target")
    binary = os.path.join(target, "release", PACKAGE)
    os.environ["PERFBENCH_GIT_REV"] = git_rev()
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
