import os
import subprocess
import sys
from pathlib import Path

import ringpiv


def test_every_exported_name_resolves_once():
    assert len(ringpiv.__all__) == len(set(ringpiv.__all__))
    missing = [name for name in ringpiv.__all__ if not hasattr(ringpiv, name)]
    assert missing == []


def test_import_loads_only_the_pipeline():
    """``import ringpiv`` pays for no dataclass machinery, no frame generator and no PGM reader.

    ``ringpiv.synth`` imports no ``dataclasses`` either: its records are ``_ReadOnly`` classes.
    """
    src = str(Path(ringpiv.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def loaded_by(statement):
        code = (
            f"import sys, numpy; before = set(sys.modules); {statement}; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    loaded = loaded_by("import ringpiv")
    assert "ringpiv.piv" in loaded
    assert loaded.isdisjoint({"dataclasses", "ringpiv.synth", "ringpiv.pgm"})
    loaded = loaded_by("import ringpiv.synth")
    assert "ringpiv.synth" in loaded
    assert "dataclasses" not in loaded
