"""Compare the CLI outputs of two source trees byte for byte.

Usage: python tools/compare_cli_outputs.py OLD_TREE NEW_TREE

Runs every command of ``CLI_COMMANDS`` in NEW_TREE's ``perfbench/workloads.py``
once per tree, each in a subprocess of its own with that tree's ``src`` on
PYTHONPATH and a fresh working directory in which ``{out}`` is the relative
directory ``out`` (so printed paths match).  Compares exit codes, stdout and
every file written under ``out``, prints one line per command and exits 1 on
any difference.  Under a command line, each differing JSON file gets one more
line naming its numeric leaf of largest relative difference.  Standard
library only.
"""

import ast
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_CLI = "import sys; from mexneedlets.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_commands(tree):
    """(name, argv template) of every ``CLI_COMMANDS`` entry, read without importing the module."""
    path = Path(tree) / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "CLI_COMMANDS"
                                                for target in node.targets):
            return [(name, argv) for name, argv, _ in ast.literal_eval(node.value)]
    raise SystemExit("%s defines no CLI_COMMANDS" % path)


def run(tree, template, workdir):
    """(exit code, stdout bytes, {path under out: bytes}) of one command run in ``workdir``."""
    out = workdir / "out"
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    argv = shlex.split(template.format(out="out"))
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=workdir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def largest_difference(a, b, path="$"):
    """(relative difference, path, old leaf, new leaf) of the leaf where two JSON values differ most.

    Numeric leaves differ by |a - b| / max(|a|, |b|).  Any other differing
    pair (strings, a number against a non-number, containers whose keys or
    lengths differ, NaN) differs by infinity.
    """
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k], "%s.%s" % (path, k)) for k in sorted(a)]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, "%s[%d]" % (path, i)) for i, (x, y) in enumerate(zip(a, b))]
    else:
        if type(a) is type(b) and a == b:
            return 0.0, path, a, b
        rel = (abs(a - b) / max(abs(a), abs(b))) if _is_number(a) and _is_number(b) else math.inf
        return (math.inf if math.isnan(rel) else rel), path, a, b
    return max((largest_difference(x, y, p) for x, y, p in pairs), key=lambda r: r[0],
               default=(0.0, path, a, b))


def _json_report(name, old_bytes, new_bytes):
    """The line naming the largest leaf difference of a differing JSON file, or None."""
    if not name.endswith(".json") or old_bytes is None or new_bytes is None:
        return None
    try:
        rel, path, a, b = largest_difference(json.loads(old_bytes), json.loads(new_bytes))
    except ValueError:
        return None
    return "    out/%s: largest relative difference %.3g at %s (%r -> %r)" % (name, rel, path, a, b)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = args
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, template in cli_commands(new):
            (code_a, stdout_a, files_a), (code_b, stdout_b, files_b) = (
                run(tree, template, Path(tmp) / side / name)
                for side, tree in (("old", old), ("new", new)))
            problems = [] if code_a == code_b else ["exit %d != %d" % (code_a, code_b)]
            if stdout_a != stdout_b:
                problems.append("stdout")
            changed = [f for f in sorted(set(files_a) | set(files_b))
                       if files_a.get(f) != files_b.get(f)]
            problems += ["out/" + f for f in changed]
            print("%-24s %s" % (name, "differs: " + ", ".join(problems) if problems
                                else "identical (exit %d)" % code_a))
            for f in changed:
                line = _json_report(f, files_a.get(f), files_b.get(f))
                if line:
                    print(line)
            differing += bool(problems)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
