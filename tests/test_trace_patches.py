"""The traced benchmark's patches: every name it wraps exists and comes back.

``perfbench/spans.py`` wraps public potlab functions by name, so deleting or
renaming one of them breaks ``perfbench/run.py --trace 1``.  This test
installs and restores the tracer in-process; it reads ``perfbench/`` only.
"""

from pathlib import Path


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr
    names = {attr for _, attr, _ in patched}
    assert {"mollify_measure", "solve_op_sequence", "disk_integral", "ball_mass",
            "obstacle_maximal"} <= names
