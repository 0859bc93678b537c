"""Compare the CLI outputs of two source trees byte for byte.

Usage: python tools/compare_cli_outputs.py OLD_TREE NEW_TREE

Runs every command of ``CLI_COMMANDS`` in NEW_TREE's ``perfbench/workloads.py``
once per tree, each in a subprocess of its own with that tree's ``src`` on
PYTHONPATH and a fresh working directory in which ``{out}`` is the relative
directory ``out`` (so printed paths match).  Compares exit codes, stdout and
every file written under ``out``, prints one line per command and exits 1 on
any difference.  Standard library only.
"""

import ast
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
            problems += ["out/" + f for f in sorted(set(files_a) | set(files_b))
                         if files_a.get(f) != files_b.get(f)]
            print("%-24s %s" % (name, "differs: " + ", ".join(problems) if problems
                                else "identical (exit %d)" % code_a))
            differing += bool(problems)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
