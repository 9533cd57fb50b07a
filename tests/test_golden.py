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
        "checks.json": "ff8ea8f22b6b2214203cbb9b93f1332956a225ec97275361f0461c5a730adbff",
    }),
    # the parameter tables' defaults are the values quick.cfg spells out
    "checks_defaults": (["checks"], {
        "checks.json": "ff8ea8f22b6b2214203cbb9b93f1332956a225ec97275361f0461c5a730adbff",
    }),
    "dispersion_default": (["dispersion"], {
        "dispersion.csv": "c373c546169a0c8c4787730ca1348483f18756d3f913d9aef7a158457e7e861a",
        "verdict.json": "fdd7271208122dd7468d50a7e0f6b2f3a425cf72f7d888940b9991e5cc6776fd",
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
        "extrapolation.csv": "3c05e9d2eebf21af33b8628166f60b8af4dc6d328f142d37654fbc605d1cb7d3",
        "extrapolation.json": "65f352a6e357dc0f8f98c3f5b3642141b294506053891f58cbb7a48d1a6059e0",
    }),
    "kernel_default": (["kernel"], {
        "kernel.json": "a51bcae86488cebf73cc980a471232babeef00a26c916cfd2337a86e4407e85b",
    }),
    "kernel_small": (["kernel", "--config", "{kernel}"], {
        "kernel.json": "fa01f5cebfbf616fc5fa38cfc0b5c0386dd13d93b7c1233bded57c5aba87ab66",
    }),
    "torus_default": (["torus"], {
        "torus.csv": "bfa5093208486f8b01ca67ac3f33e5a5099a140afd03f89511b20d66e76d3d8b",
        "torus.json": "24d583a3cbac1de986d90bee8f5e908218c5b99a40e53061301b6d7af3886550",
    }),
    # the count routes: solve.count_below at split 1 on 257 states (N_max = 1)
    # and at split 190 on 1,330 states (N_max = 3), and operators._pair_count
    # on the 257-row complement of the desk grid through the thread pool
    "torus_nmax1_desk": (["torus", "--nmax", "1", "--delta", "0.75", "--lambda", "3"], {
        "torus.csv": "093da471105c328533a02589fe799765b0aa6eb94e5d8ea49824c7ee00f644d6",
        "torus.json": "0ef3f54ed77e11df3426306c3384e63f62c2c97baf94ae28636cc310c44642a3",
    }),
    "torus_nmax3": (["torus", "--nmax", "3", "--lambda", "1.5"], {
        "torus.csv": "05d37b9858a13ff602709085f94672362158918d1b7aa827526af38890e9ff3d",
        "torus.json": "65522c5b24f18a42f8de5c245164dbd236deda002bab33d4c9d78cb72189b7cb",
    }),
    "torus_desk_threads2": (["torus", "--delta", "0.75", "--lambda", "3", "--threads", "2"], {
        "torus.csv": "ebabb6158c20a777e02a6d0be748217424bcb2f9391866e3a1e47e8855931f98",
        "torus.json": "c572bdc7b2f7f6371538415dadedd3ad8eed0726c398a0ba3109790a90e0debe",
    }),
    "checks_desk": (["checks", "--config", str(CONFIGS / "desk.cfg")], {
        "checks.json": "24b56ddcf93558403e10c2c36ffdd99acb72052e3098a07bc1a1a150d6bb366d",
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
