import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scatter_calc.ordinal import CnfOrdinal  # noqa: E402


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one for every CnfOrdinal constructed from now on."""
    made = []
    init = CnfOrdinal.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CnfOrdinal, "__init__", counted)
    return made
