"""Byte-identical default traces: short CLI runs must hash to the recorded
SHA-256s of their CSV traces (the trace-digest table in CHANGES.md), so a
refactor or speedup of the engine cannot change a default trace unnoticed.

The digests were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64
Linux.  A different numpy or BLAS may round differently and change them; a
mismatch there says the environment differs, not necessarily the code.
"""

import contextlib
import hashlib
import io

import pytest

from manifold_cd.cli import main

DESK = "procrustes-desk --epochs 20"

RUNS = [
    (f"{DESK} --algo rcd", "c0b97c823e53c488ce186c6a22cbefdce697d621550ff7f9c004eceae7fc83ab"),
    (f"{DESK} --algo rcdlin", "c0b97c823e53c488ce186c6a22cbefdce697d621550ff7f9c004eceae7fc83ab"),
    (f"{DESK} --algo rgd", "284ad9fffbd69b7d6ae0cb16ae07d097c8971f6298f7b284f0ac2c744d57757c"),
    (f"{DESK} --algo tsd", "fabfc52cda81ac4c55785f1ed83dd75c80c8b530db9125a79c0cf7199b6bb208"),
    (f"{DESK} --select random", "b9873ee4081741c3297306c5431bc07cc00cb5239299075621aa0064854b13a3"),
    (f"{DESK} --select without-replacement",
     "5e8ab4d0c324f19d2032afff9dde74a7b4b4766ef734a8b0512fd81b7bd75194"),
    ("--problem ds-quadratic --n 6 --p 5 --algo rcd --select random --eta 0.2 "
     "--epochs 50 --seed 3",
     "68b3b1822c1da9671db5146ea1bf350471a76f74d4a34761334df844456772ab"),
    ("--problem ds-quadratic --n 6 --p 5 --algo rcdlin --select without-replacement "
     "--eta 0.2 --epochs 50 --seed 3",
     "c46793a62ee52e91199644f8bc693dbd8dcb039ceb8fe1f108cade6a612bc70d"),
    ("--problem weighted-ls --n 12 --p 3 --algo rgd --eta 0.2 --epochs 50 --seed 7",
     "8ed641c4440816c513c4ab62036abe6f6dd342c9c8aaf507a125e0fa559f87db"),
    ("weighted-ls-desk-sparse --epochs 5",
     "05ae4d80bb14767299950277da45948240fda594073b9d3a20fc2cecefe5767b"),
    ("--problem nearest-symplectic --planted --n 4 --p 3 --algo rcd --eta 0.02 "
     "--epochs 30 --seed 9",
     "43a8b09c065a4c2db5e6f477ddf434be2406baabea45eb79f646f056f71285ba"),
    ("--problem pca --n 12 --p 4 --algo rcdlin --select without-replacement --eta 0.2 "
     "--epochs 30 --seed 3 --grad-log 2 --feas-log 3",
     "2f82381df08fe64408d7d9060eef167baa2f44c8938cd86bdbd0bc0a5e6bb8dc"),
    # rcdlin cyclic at trace=epoch: the pivot-row run path; an inner count that
    # cuts the runs and wraps the sweep; n = 2, where the label (0, 1) repeats
    ("--problem pca --n 12 --p 4 --algo rcdlin --select cyclic --trace epoch --eta 0.2 "
     "--epochs 30 --seed 3 --grad-log 2 --feas-log 3",
     "ff9ebbec29207f8ea79f55f4ee721ed80238c0d135ad5624210066b64d10a9ee"),
    ("--problem pca --n 12 --p 4 --algo rcdlin --select cyclic --trace epoch --eta 0.2 "
     "--epochs 30 --seed 3 --grad-log 2 --feas-log 3 --inner 7",
     "2c8599116da4eba4e2991c1f782c4102b8e9e23bfa0edff785c6ec4b13a0e888"),
    (f"{DESK} --algo rcdlin --trace epoch --inner 250",
     "3bb1ebb756f42db36627d32bb4368f2975c00f1c6673861440ece629ab20a341"),
    ("--problem pca --n 2 --p 1 --algo rcdlin --trace epoch --inner 3 --epochs 5",
     "7b1bf5f123d864aca67ddf1fd2277444bd564542c4e205560839fbcec22f8704"),
    # rcdlin on the factored SPSD family at trace=epoch: the column-chain
    # sweep under each drawn rule, with an inner count short of |I|
    ("weighted-ls-desk-dense --epochs 3 --trace epoch",
     "043386449cd916318e7e9c8ff27aa687f7dbbd1ba0f87375f123ce6605abe415"),
    ("weighted-ls-desk-sparse --epochs 5 --trace epoch --select random",
     "f5934a3f36368a03b2b13537213c1dd9240000b2bd7bfec7306c827db312af2d"),
    ("--problem weighted-ls --n 12 --p 3 --algo rcdlin --select cyclic --trace epoch "
     "--inner 7 --eta 0.2 --epochs 30 --seed 7",
     "623e852f5ae8fe9bd72c5f6990f6aaf2bc64d7329cb3b3d6def3d7bb8f16a7c7"),
    ("lorentz-desk --trace step", "1b6c49299ab6a15c903d2859bcc6568ac83898df671099fbad7a0f622e2b4b51"),
    ("lorentz-desk --select cyclic",
     "d7b81ac67e417bbd73e82725a919bff827f35b8272cce34edb3d2b111763c924"),
    ("lorentz-desk --trace epoch --n 5 --p 60 --seed 3",
     "89ea0231256fecd428d73556a9bc82e5c3e511dc51f7398d1ce74bdb7917f382"),
    ("lorentz-desk --trace epoch --n 8 --p 60 --seed 5",
     "2d38c77aee64f64fa238b9434f8b8b03f4ca5c37532bb785812d7535e98edbaa"),
    ("lorentz-desk --trace epoch --n 2 --p 40 --seed 1",
     "1ae562de08b109164454df0e3a410e9c3ef007afef240010acd405817f21b828"),
    ("lorentz-desk --trace epoch --n 4 --p 50 --seed 2 --grad-log 2 --feas-log 3",
     "e941bea58ccd4b80312641418e01d0b709f0b4fdad6443aa6edc0896a1878fef"),
]


@pytest.mark.parametrize("run, digest", RUNS, ids=[r for r, _ in RUNS])
def test_trace_digest(run, digest, tmp_path):
    args = run.split()
    with contextlib.redirect_stdout(io.StringIO()):
        if not args[0].startswith("--"):
            cfg = str(tmp_path / "cfg.json")
            assert main(["preset", args[0], "--out", cfg]) == 0
            args = ["--config", cfg] + args[1:]
        out = tmp_path / "trace.csv"
        assert main(["run", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
