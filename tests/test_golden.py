"""Golden bytes: fixed CLI runs must keep writing exactly the recorded files.

Each run goes through cli.main in process, and every file it writes is
compared by SHA-256 against a hash recorded before any refactor of the
pipelines touched them.  A refactor that keeps the outputs keeps these
hashes; a change that moves a digit on purpose re-records them and names
the moved fields.  The hashes depend on the numpy and scipy builds (their
BLAS and summation order), so the test skips on other versions.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy

from polaronlab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

SMALL_EXTRAPOLATION = "alpha = 0.5\ndelta = 1\nnmax = 2\nlambda_values = 1.5,2,2.5\nseed = 7\n"
SMALL_KERNEL = "image_cut = 3\nell = 2\nmass = 2\n"

# run name -> (argv without --out, {file it writes: SHA-256})
GOLDEN = {
    "checks_quick": (["checks", "--config", str(CONFIGS / "quick.cfg")], {
        "checks.json": "0ab89a9677f4db2b5cbf243de2315df153f912891edd41e7f9c0f9aa4ed78dbc",
    }),
    # the parameter tables' defaults are the values quick.cfg spells out
    "checks_defaults": (["checks"], {
        "checks.json": "0ab89a9677f4db2b5cbf243de2315df153f912891edd41e7f9c0f9aa4ed78dbc",
    }),
    "dispersion_default": (["dispersion"], {
        "dispersion.csv": "2ac5788d1b18d721295520be314bbb4c64f995df63d6d69accb8b5a1772a8ef3",
        "verdict.json": "78da875a08ef1a05238f343f146960783caca087ee8d495459ecf77c79909560",
    }),
    "dispersion_free": (["dispersion", "--config", str(CONFIGS / "free.cfg")], {
        "dispersion.csv": "671300f4a93ca0a0ceb6fc0e5b252fe5dc06a84bd86ea542a7334830015e59ba",
        "verdict.json": "fa35534e150eb7a3368a9659c48e72430f61feaa9edf5ae8c7f4008e9f2d405f",
    }),
    "extrapolate_default": (["extrapolate"], {
        "extrapolation.csv": "07d3227727cab3154601d3971e40eca00ad04b775ba9030682dade4d985b51e0",
        "extrapolation.json": "c3834c9a990537e0ff5ddaab9f964a3590ce9c1fcd2b3e03c7545415a5f5b196",
    }),
    "extrapolate_nmax2": (["extrapolate", "--config", "{small}"], {
        "extrapolation.csv": "628a2c334e80835c141d0793183de983973c36e0a7c4f5227044135471678d1b",
        "extrapolation.json": "769afe86ca57055b49cad3f08dd4f9ea57db81cb095fcf7f00662b0c11e2d670",
    }),
    "kernel_default": (["kernel"], {
        "kernel.json": "a51bcae86488cebf73cc980a471232babeef00a26c916cfd2337a86e4407e85b",
    }),
    "kernel_small": (["kernel", "--config", "{kernel}"], {
        "kernel.json": "fa01f5cebfbf616fc5fa38cfc0b5c0386dd13d93b7c1233bded57c5aba87ab66",
    }),
    "torus_default": (["torus"], {
        "torus.csv": "918cc964604c02f2c0118c37b385e6b279540b2342311b67e2614170daa5ed98",
        "torus.json": "7e687f6dae4953a31318f5d4f8e065407adc9c52424cd8100d27f1e6edaabf6f",
    }),
    # the count routes: solve.count_below at split 1 on 257 states (N_max = 1)
    # and at split 190 on 1,330 states (N_max = 3); torus_default and
    # torus_desk_threads2 count P = 0 with operators._window_count on the
    # S(E) of its pair solve, and no golden reaches operators._pair_count
    "torus_nmax1_desk": (["torus", "--nmax", "1", "--delta", "0.75", "--lambda", "3"], {
        "torus.csv": "093da471105c328533a02589fe799765b0aa6eb94e5d8ea49824c7ee00f644d6",
        "torus.json": "0ef3f54ed77e11df3426306c3384e63f62c2c97baf94ae28636cc310c44642a3",
    }),
    "torus_nmax3": (["torus", "--nmax", "3", "--lambda", "1.5"], {
        "torus.csv": "05d37b9858a13ff602709085f94672362158918d1b7aa827526af38890e9ff3d",
        "torus.json": "65522c5b24f18a42f8de5c245164dbd236deda002bab33d4c9d78cb72189b7cb",
    }),
    "torus_desk_threads2": (["torus", "--delta", "0.75", "--lambda", "3", "--threads", "2"], {
        "torus.csv": "1adacff23ed7e7e768d4975c7e81d1c1af7eaf14df5ef3869287ae486adacb3b",
        "torus.json": "06f8093ace9a687d52abfc7f62199707ad81c988eacfd33a672fd33c08134d0e",
    }),
    "checks_desk": (["checks", "--config", str(CONFIGS / "desk.cfg")], {
        "checks.json": "cd93e0f404e3a011564575c5e54683a516d4cdff038ddca1eb4ac5924bb4fab0",
    }),
}


def _versions_match():
    return (np.__version__ == RECORDED_VERSIONS["numpy"]
            and scipy.__version__ == RECORDED_VERSIONS["scipy"])


@pytest.mark.skipif(
    not _versions_match(),
    reason=f"golden hashes were recorded with numpy {RECORDED_VERSIONS['numpy']} "
           f"and scipy {RECORDED_VERSIONS['scipy']}",
)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_recorded_bytes(name, tmp_path):
    argv, hashes = GOLDEN[name]
    small = tmp_path / "small.cfg"
    small.write_text(SMALL_EXTRAPOLATION)
    kernel = tmp_path / "kernel.cfg"
    kernel.write_text(SMALL_KERNEL)
    out = tmp_path / "out"
    argv = [a.replace("{small}", str(small)).replace("{kernel}", str(kernel)) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == hashes
