"""Golden gate: the engine's exported charpolys, byte for byte.

`golden/charpolys.txt` holds `export_class` output for every class at every
level 11-120, 155 and 233, at each level's Sturm primes. Regenerate it (only
when a change to the output is intended) from the repository root with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden; open(test_golden.GOLDEN, 'w').write(test_golden.golden_text())"
"""

from pathlib import Path

from congruon.hecke_io import export_class
from congruon.modsym import newform_classes
from congruon.pipeline import sturm_bound

GOLDEN = Path(__file__).parent / "golden" / "charpolys.txt"
LEVELS = [*range(11, 121), 155, 233]


def golden_text():
    primes = {n: sturm_bound(n, 2).primes for n in LEVELS}
    return "".join(
        export_class(cls, primes[n]) for n in LEVELS for cls in newform_classes(n)
    )


def test_engine_reproduces_golden_charpolys():
    assert golden_text() == GOLDEN.read_text()
