import numpy as np
import pytest


def _rows(result):
    """A pointwise result as named arrays with the batch axis first:
    dataclass fields, tuple items, or the one array."""
    if isinstance(result, tuple):
        return dict(enumerate(result))
    if isinstance(result, np.ndarray):
        return {"value": result}
    return vars(result)


@pytest.fixture
def assert_batch_invariant():
    """``check(points)`` for a few points alone must give the bits of their
    rows in ``check`` of the whole batch: the first, last and two inner."""
    def assert_invariant(check, pts):
        batch = _rows(check(pts))
        for k in (0, len(pts) // 3, len(pts) // 2, len(pts) - 1):
            alone = _rows(check(pts[k:k + 1]))
            for name, values in batch.items():
                assert np.asarray(alone[name])[0].tobytes() == \
                    np.asarray(values)[k].tobytes(), (name, k)

    return assert_invariant
