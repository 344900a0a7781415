import gc
import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(call): the peak bytes tracemalloc sees while call() runs."""
    def peak(call) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
