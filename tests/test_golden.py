"""Pinned SHA-256 digests of every file a seed-7 session writes.

One working directory gets ``mixquant gen-fixture --seed 7``, the eight
metric x algo runs at the default bit widths and a ``--manifest`` rerun
of one of them, all through the CLI with relative paths, so no manifest
holds a machine path. Every file must hash to its pinned digest: any
change to an artifact's bytes, its name or the set of files shows here.
The pins were recorded with OpenBLAS on x86-64 and are as specific to
the float arithmetic of the machine as the accuracies pinned in
``test_decisions.py``; every pass of the seed-7 fixture is one row
block, so no worker thread runs. They hold on OpenBLAS's FMA kernels:
the session is rerun under the Haswell and Zen kernels, besides the one
the machine picks. On a kernel without FMA, such as Prescott, 23 of
the 72 files differ (every specs file and the hessian and noise
scores), though no config, outcome or cost does.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixquant.cli import EXIT_OK, main

METRICS = ("qe", "noise", "hessian", "random")
ALGOS = ("greedy", "bisection")


def write_session(root: Path) -> dict[str, str]:
    """Run the session in ``root`` (the working directory); ``{path: sha256}``."""
    assert main(["gen-fixture", "--seed", "7", "--out", "fixture"]) == EXIT_OK
    inputs = [
        "--model", "fixture/model.json",
        "--calib", "fixture/calib.json",
        "--eval", "fixture/eval.json",
        "--latency-table", "fixture/latency.csv",
    ]
    for metric in METRICS:
        for algo in ALGOS:
            out = f"runs/{metric}-{algo}"
            args = ["run", *inputs, "--metric", metric, "--algo", algo, "--out", out]
            assert main(args) == EXIT_OK
    rerun = ["run", "--manifest", "runs/hessian-greedy/manifest.json", "--out", "runs/rerun"]
    assert main(rerun) == EXIT_OK
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


GOLDEN = {
    "fixture/calib.features.bin": "72c9e9e5af01961ffcdc6121576ec1d11e7f1443a3e2acbc7054373822ad3f27",
    "fixture/calib.json": "bcfe2b0c5824f9347e03815a54abee28aa997f6a5ce32e2f60dbb904f4fb383f",
    "fixture/calib.labels.bin": "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
    "fixture/eval.features.bin": "3d57a018acc04ef2dbe3e64fcfe79b87ec49c1678ca9dd5ba727b470dbf114c4",
    "fixture/eval.json": "2e9759b90bab5fc7808c47ff72cc4e3c042babc9ba53ddbc394d0aa9500fef1c",
    "fixture/eval.labels.bin": "9e387b97e2fcd8e19af96a9cfff64c32bac0ee8ff6c26b4e7742d9ec0c09b2ed",
    "fixture/latency.csv": "59816fe0e51ed0f31e293d0295766528e1e614d9af2fa344065585381a46e671",
    "fixture/model.bin": "f25429a836e285e52f3ab25e9b76c0bd837f76c6b3c3e00ab92b7293d8c38519",
    "fixture/model.json": "394b128fbbbddb6c8df5cc500d48a3eb907f11a9f1b61d5405c51c0416b6b1ee",
    "runs/hessian-bisection/config.json": "2b466f6c4b9f2be1e3cc2278e80d4a53a2461cd320e5da0d494226684e441dbf",
    "runs/hessian-bisection/cost.json": "ca09251bd94bb943a8cb00d379141986fba18945aa3aedb77af2e8d8ff179b11",
    "runs/hessian-bisection/manifest.json": "5b29d73a3d1c985da9a16784f0315742f2d1a82d80b6e273a5c0c395aad367b7",
    "runs/hessian-bisection/outcome.json": "641bf88e072d0c4e11afa6daedd6dc7787f044be41e5ef3fa95c553ea7d41103",
    "runs/hessian-bisection/sensitivity.json": "15b864bddcc7149a838decf294492775cc34ad33bf715c088f563a2282397061",
    "runs/hessian-bisection/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/hessian-bisection/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/hessian-greedy/config.json": "c44b95e4056d2b6098e4d0f2625533bd1c73de9178369ef278ab27a67ae3641d",
    "runs/hessian-greedy/cost.json": "4b4faa5ebabbf3e04331320fe872fac2798fb044bade3a0d7ace4ffe4198670f",
    "runs/hessian-greedy/manifest.json": "f55c171a0dbf21190517281b1e8624300dc55147e6000d7361ea65887d11712c",
    "runs/hessian-greedy/outcome.json": "02b7791de14caccbd0c0eebbd66b33835a463650e3f0c675234795f90cbe408f",
    "runs/hessian-greedy/sensitivity.json": "15b864bddcc7149a838decf294492775cc34ad33bf715c088f563a2282397061",
    "runs/hessian-greedy/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/hessian-greedy/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/noise-bisection/config.json": "14176e00ea319db67d452146c8c77749bc3158d39214d919e860b517bd42dba5",
    "runs/noise-bisection/cost.json": "b3bc84bcbc9c588169da1d08a1cfbf6ff647760615e4ba20347cb00d0762a352",
    "runs/noise-bisection/manifest.json": "a1ebe480ec445edee855dad2460963951500e7e7a5dbadd69c9852eb8e17fe00",
    "runs/noise-bisection/outcome.json": "c9335fff5b4c45a36209583167562286e19919418dac833d09d24f3d7faadff8",
    "runs/noise-bisection/sensitivity.json": "16de45cacd9d726bee390a4b87df77a15017e8102a94c78c1792fa8465917307",
    "runs/noise-bisection/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/noise-bisection/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/noise-greedy/config.json": "14176e00ea319db67d452146c8c77749bc3158d39214d919e860b517bd42dba5",
    "runs/noise-greedy/cost.json": "b3bc84bcbc9c588169da1d08a1cfbf6ff647760615e4ba20347cb00d0762a352",
    "runs/noise-greedy/manifest.json": "1b338d240a81e349af8a61d195b3b46d1ce5723f54dd68448e20497dbf7d7014",
    "runs/noise-greedy/outcome.json": "5483337940ed7dfc8c8b7867d92bf41874c3bf6ccf6b0b09016c66da6b852984",
    "runs/noise-greedy/sensitivity.json": "16de45cacd9d726bee390a4b87df77a15017e8102a94c78c1792fa8465917307",
    "runs/noise-greedy/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/noise-greedy/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/qe-bisection/config.json": "14176e00ea319db67d452146c8c77749bc3158d39214d919e860b517bd42dba5",
    "runs/qe-bisection/cost.json": "b3bc84bcbc9c588169da1d08a1cfbf6ff647760615e4ba20347cb00d0762a352",
    "runs/qe-bisection/manifest.json": "edf5acd83514d439a41c96deb370a5b59803e57e8ecea13a077511a25aa15680",
    "runs/qe-bisection/outcome.json": "c9335fff5b4c45a36209583167562286e19919418dac833d09d24f3d7faadff8",
    "runs/qe-bisection/sensitivity.json": "973c382747bc08e208ecf8d3cc22038ba2d05036a0f3d719155e9dc21a43fde1",
    "runs/qe-bisection/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/qe-bisection/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/qe-greedy/config.json": "14176e00ea319db67d452146c8c77749bc3158d39214d919e860b517bd42dba5",
    "runs/qe-greedy/cost.json": "b3bc84bcbc9c588169da1d08a1cfbf6ff647760615e4ba20347cb00d0762a352",
    "runs/qe-greedy/manifest.json": "80e6f2377608c219ff45e42ffd8b9a52bbdb4d16c7b74b37205bdc799471d78b",
    "runs/qe-greedy/outcome.json": "247d2ebfdf18a650785665ed8f8ddd993216bc2994e16d96bf24871561bef8a6",
    "runs/qe-greedy/sensitivity.json": "973c382747bc08e208ecf8d3cc22038ba2d05036a0f3d719155e9dc21a43fde1",
    "runs/qe-greedy/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/qe-greedy/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/random-bisection/config.json": "c44b95e4056d2b6098e4d0f2625533bd1c73de9178369ef278ab27a67ae3641d",
    "runs/random-bisection/cost.json": "4b4faa5ebabbf3e04331320fe872fac2798fb044bade3a0d7ace4ffe4198670f",
    "runs/random-bisection/manifest.json": "7eac623fe9a0f7a869a8fc36e217990694dbd4d9ae0032defe0810c36f804bec",
    "runs/random-bisection/outcome.json": "9d611695183de7a9475edd54f04f9ef0d11b6f599fecad8b8978085b61d439c9",
    "runs/random-bisection/sensitivity.json": "365efb57d0d1025b5fc9e1f92ddfacd5694a10d12d6a03b53a482cf70aa039e4",
    "runs/random-bisection/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/random-bisection/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/random-greedy/config.json": "c44b95e4056d2b6098e4d0f2625533bd1c73de9178369ef278ab27a67ae3641d",
    "runs/random-greedy/cost.json": "4b4faa5ebabbf3e04331320fe872fac2798fb044bade3a0d7ace4ffe4198670f",
    "runs/random-greedy/manifest.json": "e60e85d683c3b0138b9ccb78da494d95aeeb37f603afaa03b4be84f9776c8638",
    "runs/random-greedy/outcome.json": "89cd174bef0f58c324b093681f58fef48b755cfb521e77e6144406328ca84896",
    "runs/random-greedy/sensitivity.json": "365efb57d0d1025b5fc9e1f92ddfacd5694a10d12d6a03b53a482cf70aa039e4",
    "runs/random-greedy/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/random-greedy/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
    "runs/rerun/config.json": "c44b95e4056d2b6098e4d0f2625533bd1c73de9178369ef278ab27a67ae3641d",
    "runs/rerun/cost.json": "4b4faa5ebabbf3e04331320fe872fac2798fb044bade3a0d7ace4ffe4198670f",
    "runs/rerun/manifest.json": "ecc23879e6f62698283ab8cbc0dc964cbf7cb4fa84b1a42b92c781fd52132d85",
    "runs/rerun/outcome.json": "02b7791de14caccbd0c0eebbd66b33835a463650e3f0c675234795f90cbe408f",
    "runs/rerun/sensitivity.json": "15b864bddcc7149a838decf294492775cc34ad33bf715c088f563a2282397061",
    "runs/rerun/specs-4bit.json": "4ddc09e7a3f9448d3404e173792008f2ef08fbeceeeea316c7ca5fdd1fecd113",
    "runs/rerun/specs-8bit.json": "bce7e83fc6bd9a52fbc3c0d5a4099719158517e3b9d7837bed50c2d9aad17806",
}


def test_seed7_session_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = write_session(tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN
    # the rerun reproduces every artifact but the manifest, which names its --out
    for name, digest in digests.items():
        if name.startswith("runs/rerun/") and not name.endswith("manifest.json"):
            assert digest == digests[name.replace("rerun", "hessian-greedy")], name


def fma_kernels_unavailable() -> str | None:
    """Why the session cannot be rerun on other OpenBLAS kernels here, or None."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: OPENBLAS_CORETYPE picks no kernel"
    cpuinfo = Path("/proc/cpuinfo")
    flags = cpuinfo.read_text().split() if cpuinfo.is_file() else []
    if not {"avx2", "fma"} <= set(flags):
        return "the CPU lacks AVX2 or FMA, which the Haswell and Zen kernels run on"
    return None


@pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
def test_seed7_session_is_byte_identical_on_other_fma_kernels(tmp_path, coretype):
    reason = fma_kernels_unavailable()
    if reason:
        pytest.skip(reason)
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = (
        "import json, pathlib, test_golden\n"
        "print(json.dumps(test_golden.write_session(pathlib.Path.cwd())))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == GOLDEN
