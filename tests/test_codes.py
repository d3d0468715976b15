"""The Hamming codes built in systematic form, against enumeration."""
import pytest

from eqpart.codes import hamming_code_vertices
from eqpart.errors import VertexBudgetError

from helpers import hamming_code_by_enumeration


@pytest.mark.parametrize("r", range(5))
def test_hamming_code_equals_the_words_of_zero_syndrome(r):
    code = hamming_code_vertices(r)
    assert code == hamming_code_by_enumeration(r)
    assert len(code) == 2 ** (2**r - 1 - r)


def test_hamming_code_past_the_vertex_budget_raises_before_building():
    # 2**26 codewords; the enumeration would walk 2**31 words
    with pytest.raises(VertexBudgetError, match="67108864 codewords"):
        hamming_code_vertices(5)

