"""ReferenceIndex: the oracle itself deserves a sanity pass.

Single-block writes go through ``splice``: Insert is
``splice(r, r, [(v, w)])``, Delete ``splice(r, r + 1, [])``.
"""

import pytest

from repro.datastructures.reference import ReferenceIndex
from repro.errors import DataStructureError


class TestReferenceIndex:
    def test_full_surface(self):
        ref = ReferenceIndex()
        ref.splice(0, 0, [("a", 2)])
        ref.splice(1, 1, [("b", 3)])
        ref.splice(1, 1, [("c", 1)])
        assert list(ref.values()) == ["a", "c", "b"]
        assert ref.total_chars == 6
        assert ref.find_char(0) == (0, 0)
        assert ref.find_char(2) == (1, 0)
        assert ref.find_char(3) == (2, 0)
        assert ref.char_start(2) == 3
        assert ref.char_start(3) == 6
        ref.splice(1, 2, [("C", 4)])
        assert ref.get(1) == ("C", 4)
        assert ref.splice(0, 1, []) == [("a", 2)]
        assert len(ref) == 2
        ref.checkrep()

    def test_bounds(self):
        ref = ReferenceIndex()
        with pytest.raises(IndexError):
            ref.find_char(0)
        with pytest.raises(IndexError):
            ref.get(0)
        with pytest.raises(IndexError):
            ref.splice(0, 1, [])
        with pytest.raises(IndexError):
            ref.splice(1, 1, [("x", 1)])
        with pytest.raises(DataStructureError):
            ref.splice(0, 0, [("x", -1)])
        with pytest.raises(IndexError):
            ref.char_start(1)
