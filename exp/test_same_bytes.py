"""Self-test of ``same_bytes.py``, kept out of tier-1 because it checks out
two worktrees and trains in each. From the repository root:

    python3 -m pytest -q exp/test_same_bytes.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import same_bytes  # noqa: E402

# One agent past the 1000-step window of ``ma_violations``, so that a
# perturbed window shows in the step log.
COMMANDS = {"tiny": [["train", "--mode", "single", "--steps-per-agent", "1020",
                      "--freq-updates", "1020", "--runs", "1", "--seed", "{seed}",
                      "--output", "{dir}"]]}


def test_head_against_head_is_identical(tmp_path):
    with same_bytes.worktree("HEAD") as a, same_bytes.worktree("HEAD") as b:
        files, lines, diffs = same_bytes.compare(a, b, tmp_path, COMMANDS, seeds=(5,))
    assert (lines, diffs) == (1, [])
    assert files == 9  # manifest, band, summary and six files in run_5


def test_a_perturbed_constant_fails_and_names_the_file(tmp_path):
    with same_bytes.worktree("HEAD") as a, same_bytes.worktree("HEAD") as b:
        metrics = b / "src" / "fedpart" / "metrics.py"
        text = metrics.read_text(encoding="utf-8")
        assert text.count("window: int = 1000") == 1
        metrics.write_text(text.replace("window: int = 1000", "window: int = 999"),
                           encoding="utf-8")
        _, _, diffs = same_bytes.compare(a, b, tmp_path, COMMANDS, seeds=(5,))
    assert diffs == [diffs[0]]
    assert diffs[0].startswith("tiny-5/run_5/agent_0.steps.csv: line 1001: ")
