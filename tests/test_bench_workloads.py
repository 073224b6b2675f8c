"""The benchmark's `potlab verify` argv parses as the CLI reads it.

``perfbench/workloads.py`` runs `potlab verify` in-process with a fixed
argv, so a flag it passes that the CLI refuses breaks every benchmark run
with exit 2.  This test runs that argv against a recording ``cmd_verify``;
it reads ``perfbench/`` only.
"""

from pathlib import Path

from potlab.harness import cli


def test_contact_verify_argv_reaches_cmd_verify(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    seen = []

    def record(args):
        seen.append(args)
        return 0

    monkeypatch.setattr(cli, "cmd_verify", record)
    assert workloads.WORKLOADS["contact-verify"].run(None, 3, tmp_path) is None
    [args] = seen
    assert args.jobs == 1
    assert args.seed == 3
