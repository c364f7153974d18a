"""Pinned artifact bytes.

Each case runs one CLI command in process and compares the sha256 of every
artifact it writes to a pinned value.  The values were recorded by running
these same commands with one BLAS thread (see conftest.py) on earlier code:
the first six before declared test dependence (per-synthesis row reuse) was
added, the gridworld ``synth``/``sweep`` and unicycle ``simulate`` cases
before the CLI stopped restating library defaults.  So a change that moves
any bit of a ``synth``, ``trials``, ``sweep`` or ``simulate`` artifact fails
here.  An intended change of output bytes must re-pin the affected values
and say why.
"""

import hashlib
from pathlib import Path

import pytest

from advsynth.cli import main

REPO = Path(__file__).resolve().parent.parent

# (id, arguments before --out, {artifact file name: sha256})
CASES = [
    (
        "trials-unicycle-gamma",
        ["trials", "--config", "bench/configs/unicycle-gamma.cfg", "--count", "20", "--seed", "7"],
        {"trials.json": "5aeec4fcbbbe829f6577df4599af858fa17471c90aadfbc6fe8fd0dcbcf76249"},
    ),
    (
        # every trial reaches Γ partway through the grid scan
        "trials-unicycle-gamma-200",
        ["trials", "--config", "bench/configs/unicycle-gamma.cfg", "--count", "200", "--seed", "7"],
        {"trials.json": "e8383369de25ba00286b25015e16912a1e1a3d4b6d1368780d2730571e3e60e1"},
    ),
    (
        "trials-unicycle-refine",
        ["trials", "--config", "bench/configs/unicycle-refine.cfg", "--count", "20", "--seed", "7"],
        {"trials.json": "2fb2bd91162346af61b69ce8da1dff3c95b76768677011222cc1a072b5aec3f9"},
    ),
    (
        "trials-gridworld-cold",
        ["trials", "--config", "bench/configs/gridworld-cold.cfg", "--count", "20", "--seed", "7"],
        {"trials.json": "c748b8015f468cd12428c9cb07e74f010e9a39debb538eb8756d0e9621268117"},
    ),
    (
        "trials-quadgrid-loop",
        ["trials", "--config", "bench/configs/quadgrid-loop.cfg", "--count", "10", "--seed", "7"],
        {"trials.json": "ceb722834cc7d891e00b7c5484f2ed9f439fca807e52e72eba224132652904d8"},
    ),
    (
        "simulate-quadgrid",
        ["simulate", "--config", "configs/quadgrid.cfg", "--horizon", "2"],
        {
            "trajectory.csv": "a682751e5bd22593900ead2cb1525fafcb82f245a686c4892557dd917021853c",
            "min_barrier.csv": "9752542b28aa548b8d54d5e37611cf4d2555fff7a7ed9dfa9df0bcd272e12ffa",
            "monitor.json": "b01378f598c39fb80c06c4dd5faaa7e7c3ac7f3a041c290d71857d1095327ed8",
        },
    ),
    (
        # both obstacles on the agent: their gradients are zero
        "simulate-quadgrid-on-agent",
        ["simulate", "--config", "bench/configs/quadgrid-loop.cfg", "--horizon", "10",
         "--state=1,1"],
        {
            "min_barrier.csv": "765492f1199b14f3f86f4ab7a926cc0a9a48c91a1a3ca283f2b5a299c4dcc664",
            "monitor.json": "b5015763457411353a7474fbf11836cc2db54bb2d3f171cb5aae45d797177c5c",
            "trajectory.csv": "68fb552e9ddca383a758f90def446ff4cedff7b3d263b3eec93aadfb0bd9c138",
        },
    ),
    (
        "simulate-quadgrid-off-grid",
        ["simulate", "--config", "bench/configs/quadgrid-loop.cfg", "--horizon", "10",
         "--state=2.2,1.9"],
        {
            "min_barrier.csv": "484ce3777684816d7dc3a46770f58eb8aeceee4f8f722fc4c6ec3cd5a62384f7",
            "monitor.json": "ff737e262fc601bbe4c17c3cc7e06f046c27e65f30eaeb47c6a481c91d2b6060",
            "trajectory.csv": "cd5c212c15f48e63dda318dbe624096bd9c34ce2c5e956173756b9d67e167c6c",
        },
    ),
    (
        "sweep-unicycle",
        # two obstacles on a 3-point grid: the synthesis scans and refines
        ["sweep", "--config", "bench/configs/unicycle-refine.cfg", "--state=0.2,0.6,2",
         "--axes", "0:-1:1:5,1:-1:1:5"],
        {"sweep.csv": "b6754289fd0406cea414b92402090e43d17a6ccb11e91be0cb6c3daf1f87900c", "sweep_overlay.json": "0406ca4fe9264338e7407df43f9cfa19a977aa5f5b807d9c0ecca04eabb3ff10"},
    ),
    (
        "synth-gridworld",
        ["synth", "--config", "bench/configs/gridworld-cold.cfg", "--state", "3,5"],
        {"synth.json": "5b0c7500fc6f4733be0d3a7fd919774f412626eec1efa328ca8dfb873c10e600"},
    ),
    (
        "sweep-gridworld",
        ["sweep", "--config", "bench/configs/gridworld-cold.cfg", "--state", "3,5",
         "--axes", "0:0:9:10,1:0:9:10"],
        {
            "sweep.csv": "5421f15814c593e4df208ef039c7355c786a7e7214fb1e7116ce5c6763c7ba48",
            "sweep_overlay.json": "5d57324fa75a0bf5d4ef483eda0787efe23045fac471bed6428cb765ec823977",
        },
    ),
    (
        "simulate-unicycle",
        ["simulate", "--config", "configs/unicycle.cfg", "--horizon", "2"],
        {
            "trajectory.csv": "528756be0dce37a2f5d9d9177ce0d20cd81372fa260361c25a2b3f05cb805917",
            "min_barrier.csv": "928645c9f2c876493a8896ff8c81a857b757a38787972bdef27fd28bb4d0631e",
            "monitor.json": "c4bfc967ddbaec5d573daeb93ccd4191432262efbf191a06de771ebca5a476f3",
        },
    ),
]


def _digests(args, out_dir: Path, files) -> dict:
    args = [str(REPO / a) if a.startswith(("bench/", "configs/")) else a for a in args]
    assert main(args + ["--out", str(out_dir)]) == 0
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in files}


@pytest.mark.parametrize("args,pinned", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_artifact_bytes_are_pinned(tmp_path, capsys, args, pinned):
    assert _digests(args, tmp_path, pinned) == pinned
    capsys.readouterr()
