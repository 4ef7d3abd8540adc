"""Two default-scale outputs, pinned to their bytes.

Both were compared by hand against the previous commit on every change
to the event schedule; here their size and sha256 are known answers.
Python 3.10, 3.11 and 3.12 print the same bytes.
"""

import hashlib
import pathlib

import pytest

from repro.cli import main

HETERO_SPEC = str(
    pathlib.Path(__file__).resolve().parents[2]
    / "examples"
    / "specs"
    / "heterogeneous.json"
)


@pytest.mark.parametrize(
    ("argv", "size", "digest"),
    [
        pytest.param(
            [
                "run",
                "resilience_loss_sweep",
                "resilience_straggler_sweep",
                "--scale",
                "default",
                "--no-cache",
                "--json",
            ],
            3_260,
            "28324d140eadf5115607acbbad7e053fd7a8135132c401c721bd55b3c4cef699",
            id="resilience_default",
        ),
        pytest.param(
            [
                "sweep",
                "--spec",
                HETERO_SPEC,
                "--samples",
                "96",
                "--seed",
                "1",
                "--no-cache",
                "--json",
            ],
            38_388,
            "c138a6fd5d0412fe361ac16ab48a20dd9e0cd77827ebd0d667c4060749f8a808",
            id="heterogeneous_sweep_96",
        ),
    ],
)
def test_output_bytes_are_known(argv, size, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
