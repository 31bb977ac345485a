import os

import pytest

# As binfec.cli.main does before numpy loads: tests call main in this
# process, and its encode and repair fork worker processes, which is
# safe only while OpenBLAS starts no threads of its own.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings

from binfec.basis import build_basis_tables
from binfec.field import tables_for

# test_robustness.py's longer run: pytest --hypothesis-profile=robustness
settings.register_profile("robustness")


@pytest.fixture(scope="session")
def ft8():
    return tables_for(8)


@pytest.fixture(scope="session")
def bt8(ft8):
    return build_basis_tables(ft8, 256)


@pytest.fixture(scope="session")
def ft16():
    return tables_for(16)


@pytest.fixture(scope="session")
def bt16(ft16):
    return build_basis_tables(ft16, 1 << 16)


@pytest.fixture
def mul_rows_work(monkeypatch):
    """patch(module) counts module.mul_rows calls: a list of rows x width."""
    def patch(module):
        work = []
        original = module.mul_rows

        def counting(ft, v, factors, **kwargs):
            work.append(v.size)
            return original(ft, v, factors, **kwargs)

        monkeypatch.setattr(module, "mul_rows", counting)
        return work
    return patch
