#!/usr/bin/env python3
"""Checks that every GitHub Actions workflow file is valid YAML.

GitHub rejects a workflow file that does not parse as a whole, so a
single bad line silently disables every job in it. GitHub also rejects
duplicate mapping keys, which PyYAML's stock loaders accept (the last
value wins), so this loader refuses them.

Usage: check_workflows.py [--root REPO]

Exit status: 0 when every file parses, 1 when one does not or none
exists, 77 when PyYAML is not installed (ctest's SKIP_RETURN_CODE).
"""

import argparse
import pathlib
import sys

try:
    import yaml
except ImportError:
    print("check_workflows: PyYAML not installed; skipping")
    sys.exit(77)


class UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that raises on a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()

    workflow_dir = pathlib.Path(args.root) / ".github" / "workflows"
    files = sorted(p for p in workflow_dir.glob("*") if p.suffix in (".yml", ".yaml"))
    if not files:
        print(f"check_workflows: no workflow files under {workflow_dir}")
        return 1
    failed = 0
    for path in files:
        try:
            with open(path) as f:
                yaml.load(f, Loader=UniqueKeyLoader)
        except yaml.YAMLError as e:
            failed += 1
            print(f"FAIL {path}:\n{e}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
