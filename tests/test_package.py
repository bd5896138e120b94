import os
import subprocess
import sys
from pathlib import Path

import essencemap


def test_public_names_resolve_and_are_listed_once():
    names = essencemap.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(essencemap, name)] == []


def test_import_leaves_out_dataclasses_and_inspect():
    # Each costs start-up time that a small mapping run pays in full.
    code = ("import sys, essencemap, essencemap.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
