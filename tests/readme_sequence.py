"""Run the README's command-line sequence in one output directory.

Reads the bash block under README's "## Command line", so the commands
have one source, and runs each ``actsense`` command in OUTDIR through
``actsense.cli.main``, with every ``simulate``, ``sweep`` and
``gridsearch`` at ``--jobs N`` (default 1).  Exits 1 at the first command
that fails.  The outputs are deterministic, so two trees made at
different ``--jobs`` or from two checkouts should match under
``diff -r``.  The file is not a test module, so pytest does not collect
it; on 2 vCPUs it takes about three minutes at ``--jobs 1``:

    PYTHONPATH=src python3 tests/readme_sequence.py OUTDIR --jobs 2
"""

import argparse
import os
import re
import shlex
import sys
from pathlib import Path

from actsense import cli

README = Path(__file__).resolve().parent.parent / "README.md"
POOLED = ("simulate", "sweep", "gridsearch")


def readme_commands(text):
    """The argv, without the leading ``actsense``, of each command in the
    Command line section's bash block."""
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "actsense":
            yield argv[1:]


def with_jobs(argv, jobs):
    """``argv`` with its ``--jobs`` set to ``jobs`` when its command runs
    simulations."""
    if argv[0] not in POOLED:
        return argv
    if "--jobs" in argv:
        at = argv.index("--jobs")
        argv = argv[:at] + argv[at + 2:]
    return [*argv, "--jobs", str(jobs)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    commands = [with_jobs(argv, args.jobs)
                for argv in readme_commands(README.read_text(encoding="utf-8"))]
    Path(args.outdir).mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)
    for argv in commands:
        print("$ actsense", shlex.join(argv), flush=True)
        code = cli.main(argv)
        if code:
            print(f"actsense {argv[0]} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
